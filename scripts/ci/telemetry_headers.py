"""Check that every telemetry artefact starts with a header record.

Run on the files a run's sinks wrote::

    python -m repro.cli run fig3 --rounds 5 --steps 20 --seed 7 \\
        --metrics-out m.jsonl --flight-out f.jsonl --events-out e.jsonl
    python scripts/ci/telemetry_headers.py m.jsonl f.jsonl e.jsonl

It prints one line per file whose header holds, and exits 1 naming every
check that failed. The first line of each file must be a JSON object
with ``"type": "header"``, a non-empty ``run_fingerprint`` and
``schema_version`` 1.
"""

import json
import sys

SCHEMA_VERSION = 1


def main(paths) -> int:
    if not paths:
        print("usage: telemetry_headers.py FILE.jsonl...", file=sys.stderr)
        return 2
    failures = []
    for path in paths:
        with open(path) as handle:
            head = json.loads(handle.readline())
        checks = [
            (head.get("type") == "header", f"{path}: not a header: {head}"),
            (bool(head.get("run_fingerprint")), f"{path}: no run_fingerprint"),
            (head.get("schema_version") == SCHEMA_VERSION,
             f"{path}: schema_version {head.get('schema_version')!r} "
             f"!= {SCHEMA_VERSION}"),
        ]
        failed = [message for passed, message in checks if not passed]
        if failed:
            failures.extend(failed)
        else:
            print(path, "header OK", head["run_fingerprint"][:12])
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
