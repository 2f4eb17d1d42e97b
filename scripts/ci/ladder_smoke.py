"""Check the results file that ``benchmarks/ladder/run.py --smoke`` wrote.

Run after the smoke::

    python benchmarks/ladder/run.py --smoke
    python scripts/ci/ladder_smoke.py benchmarks/ladder/out/results-2025-smoke.json

It prints the probes it reads and exits 1 naming every check that failed:

* no workload has a failed rep or a recorded failure;
* the layer pass reports no fidelity failure;
* stacked vectorisation (agent and simulator kernel) pays for itself:
  ``parallel.batched_speedup_d64`` >= 3 (the smoke fleet is D=16:
  4.6-6.8 locally, so 3 leaves 30 % margin; with the kernel silently
  scalar it reads 2.7);
* the stacked evaluator keeps evaluation a small share of the paper's
  run: ``paper_2dev``'s ``experiments.eval_share`` < 0.25 (0.11
  stacked, 0.35 scalar);
* a hierarchical node holds one decoded update at a time:
  ``hier.peak_resident`` == 1.
"""

import json
import sys


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: ladder_smoke.py RESULTS_JSON", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        doc = json.load(handle)
    layers = doc["layers"]
    probes = layers["probes"]
    paper = layers["trace"]["paper_2dev"]
    speedup = probes["parallel.batched_speedup_d64"]
    eval_share = paper["experiments.eval_share"]
    resident = probes["hier.peak_resident"]
    print(
        f"batched_speedup_d64={speedup}, paper_2dev eval_share={eval_share}, "
        f"hier.peak_resident={resident}"
    )
    checks = [
        (entry["failed"] == 0 and not entry["failures"],
         f"workload {name}: {entry['failed']} failed rep(s), "
         f"failures {entry['failures']}")
        for name, entry in doc["workloads"].items()
    ]
    checks += [
        (layers["fidelity_failures"] == [],
         f"fidelity failures: {layers['fidelity_failures']}"),
        (speedup >= 3, f"parallel.batched_speedup_d64 {speedup} < 3"),
        (eval_share < 0.25, f"paper_2dev experiments.eval_share {eval_share} >= 0.25"),
        (resident == 1, f"hier.peak_resident {resident} != 1"),
    ]
    failures = [message for passed, message in checks if not passed]
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
