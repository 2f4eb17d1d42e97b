"""Small-sample statistics and rep accounting for the ladder benchmark.

Pure Python: nothing here imports ``repro`` or numpy, so the unit tests
and ``compare.py``/``validate.py`` run in a bare interpreter.

With ``N = 7`` timed reps no percentile has ten samples beyond it, so a
timing is reported as median, min, max and ``n`` (the choosing-metrics
guide's rule for small samples) — never as a p95 of seven values.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{"median", "min", "max", "n"}`` of a non-empty sample."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def nearest_rank(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile (the smallest value with at least
    ``quantile`` of the sample at or below it)."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


@dataclass
class RepLog:
    """Outcome of every rep a workload child attempted.

    A rep *fails* when it raises or when one of its checks (count
    identities, finiteness, determinism checksum) does not hold; modelled
    stragglers, drops and dead devices are inputs, not failures.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def run(
        self, label: str, rep: Callable[[], Dict[str, object]]
    ) -> Optional[Dict[str, object]]:
        """Run one rep; returns its stats, or ``None`` when it failed.

        ``rep`` returns the rep's stats; their ``"problems"`` entry lists
        the checks that did not hold (empty when all did).
        """
        self.attempted += 1
        try:
            stats = rep()
        except Exception as error:  # a raising rep is a failed op, not a crash
            self.fail(label, f"raised {type(error).__name__}: {error}")
            return None
        if stats["problems"]:
            self.fail(label, "; ".join(stats["problems"]))
            return None
        return stats

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {reason}")

    def require_same_checksum(
        self, label: str, first: Optional[Dict[str, object]],
        second: Optional[Dict[str, object]],
    ) -> None:
        """The warm-up and the first timed rep share a seed: same inputs
        must give the same output bytes. A mismatch fails the second."""
        if first is None or second is None:
            return
        if first["checksum"] != second["checksum"]:
            self.fail(
                label,
                f"checksum {second['checksum'][:12]} differs from the "
                f"same-seed warm-up's {first['checksum'][:12]}",
            )

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
