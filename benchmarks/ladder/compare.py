"""Compare two ladder result sets, metric by metric, workload by workload.

    python benchmarks/ladder/compare.py A.json B.json

``A`` is the reference (the parent commit, or the first of two runs of
one commit), ``B`` the candidate. Each end-to-end metric on each
workload gets one verdict, using the bounds declared in ``spec.py``:

``same``        B is within the bound of A (exact metrics: equal)
``better``      B is better than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the medians differ by more than the bound, but the two
                sets' min-max ranges overlap by more than the bound, so
                the runs do not separate the sides
``skipped``     the sets used different seeds and the metric is a seed
                mean with a bound calibrated for equal seeds

Between sets whose seeds differ an exact metric cannot be required to be
equal; it is judged by its relative bound like a timing.

Exit code 1 when any verdict is ``worse``, 2 when the two sets were not
measured the same way (full against smoke) and cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
# Import siblings as the ``ladder`` package: with this directory itself on
# sys.path, ladder/trace.py would shadow the standard library's ``trace``.
sys.path[:] = [str(HERE.parent)] + [
    entry
    for entry in sys.path
    if pathlib.Path(entry or ".").resolve() not in (HERE, HERE.parent)
]

from ladder import spec  # noqa: E402

def _worse_by(metric: spec.Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a`` (negative = better), absolute."""
    return b - a if metric.better == "lower" else a - b


def _overlap(a: Sequence[float], b: Sequence[float]) -> float:
    return max(0.0, min(max(a), max(b)) - max(min(a), min(b)))


def verdict(
    metric: spec.Metric,
    workload: str,
    a: Optional[float],
    b: Optional[float],
    a_samples: Optional[Sequence[float]] = None,
    b_samples: Optional[Sequence[float]] = None,
    same_seeds: bool = True,
) -> Tuple[str, str]:
    """``(verdict, detail)`` for one metric on one workload."""
    if a is None and b is None:
        return "n/a", ""
    if a is None or b is None:
        return "unresolved", f"A={a} B={b}: reported by one set only"
    if not metric.applies(workload):
        return "unresolved", f"A={a} B={b}: not declared for this workload"
    if metric.kind == "calibrated" and not same_seeds:
        return "skipped", "seeds differ"
    worse = _worse_by(metric, a, b)
    if a == b:
        return "same", f"{a:g}"
    if metric.kind == "exact" and (same_seeds or a == 0):
        return ("worse" if worse > 0 else "better"), f"{a:g} -> {b:g} (must be equal)"
    if metric.kind == "calibrated":
        bound = spec.calibrated_bound(metric.name, workload)
        detail = f"{a:.6g} -> {b:.6g} (bound {bound:g} absolute)"
        if abs(worse) <= bound:
            return "same", detail
        return ("worse" if worse > 0 else "better"), detail
    share = worse / abs(a)
    direction = "worse" if share > 0 else "better"
    detail = f"{a:.6g} -> {b:.6g} ({abs(share):.1%} {direction}, bound {metric.bound:.0%})"
    if abs(share) <= metric.bound:
        return "same", detail
    if a_samples and b_samples:
        overlap = _overlap(a_samples, b_samples) / abs(a)
        if overlap > metric.bound:
            return "unresolved", detail + f", ranges overlap by {overlap:.1%}"
    return direction, detail


def compare(
    a: Dict[str, object], b: Dict[str, object]
) -> List[Tuple[str, str, str, str]]:
    """``(workload, metric, verdict, detail)`` rows for two documents."""
    same_seeds = a["seed"] == b["seed"]
    rows = []
    for workload in spec.WORKLOADS:
        entry_a = a["workloads"].get(workload)
        entry_b = b["workloads"].get(workload)
        if entry_a is None or entry_b is None:
            rows.append((workload, "*", "unresolved", "workload missing from one set"))
            continue
        for metric in spec.END_TO_END:
            outcome, detail = verdict(
                metric,
                workload,
                entry_a["metrics"][metric.name],
                entry_b["metrics"][metric.name],
                entry_a["samples"].get(metric.name),
                entry_b["samples"].get(metric.name),
                same_seeds,
            )
            if outcome != "n/a":
                rows.append((workload, metric.name, outcome, detail))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=pathlib.Path, help="reference result set")
    parser.add_argument("b", type=pathlib.Path, help="candidate result set")
    args = parser.parse_args(argv)
    documents = [
        json.loads(path.read_text(encoding="utf-8")) for path in (args.a, args.b)
    ]
    modes = [document["mode"] for document in documents]
    if modes[0] != modes[1]:
        print(f"error: a {modes[0]} set and a {modes[1]} set do not compare", file=sys.stderr)
        return 2
    rows = compare(*documents)
    for workload, metric, outcome, detail in rows:
        print(f"{workload:<18} {metric:<30} {outcome:<11} {detail}")
    counts: Dict[str, int] = {}
    for _, _, outcome, _ in rows:
        counts[outcome] = counts.get(outcome, 0) + 1
    print("\n" + ", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
