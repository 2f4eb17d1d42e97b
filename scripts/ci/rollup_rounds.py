"""Check that a ``/rollup.json`` scrape has absorbed at least one round.

Run on the body the metrics server returned::

    curl -sf http://127.0.0.1:9137/rollup.json > rollup.json
    python scripts/ci/rollup_rounds.py rollup.json

It prints the round count and exits 0 when the rollup holds at least one
round; otherwise it exits 1 with the document on stderr, so a poll loop
can retry until the live run has finished its first round.
"""

import json
import sys


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: rollup_rounds.py ROLLUP_JSON", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        rollup = json.load(handle)
    rounds = rollup.get("rounds", 0)
    if rounds < 1:
        print(f"FAIL: rollup has absorbed no round yet: {rollup}", file=sys.stderr)
        return 1
    print(f"rollup rounds={rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
