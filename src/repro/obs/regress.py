"""Regression detection over run history: robust z-scores.

Comparing two runs (:mod:`repro.obs.diff`) answers "did B get worse
than A"; this module answers "did the *latest* run get worse than its
own history". Both questions use the same robust statistics as the
update-quarantine layer (:mod:`repro.guard.quarantine`): a median/MAD
z-score, so one historical outlier cannot shift the baseline the way a
mean/stdev would.

:func:`detect_regressions` takes the scalar summaries of stored runs
(``repro-power obs-history``) and flags any direction-aware metric
whose latest value sits beyond a z threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError

#: Scale factor turning a MAD into a stdev-comparable sigma (same
#: constant the quarantine layer uses).
_MAD_SIGMA = 1.4826

#: Direction of "good" for the run-summary metrics obs-history checks.
SUMMARY_DIRECTIONS: Dict[str, str] = {
    "reward_mean_final": "higher",
    "violation_rate": "lower",
    "straggler_rate": "lower",
    "wire_bytes": "lower",
    "wall_time_s": "lower",
    "train_steps_per_s": "higher",
}


def robust_z(value: float, history: Sequence[float]) -> float:
    """``(value - median) / (1.4826 * MAD)`` over ``history``.

    With fewer than two points — or a zero MAD (constant history) —
    the score is 0.0 when the value equals the median and ±inf
    otherwise, so a deviation from a perfectly stable baseline is
    still flagged.
    """
    values = [float(v) for v in history]
    if not values:
        return 0.0
    center = median(values)
    mad = median(abs(v - center) for v in values)
    deviation = float(value) - center
    if mad == 0.0:
        if deviation == 0.0:
            return 0.0
        return float("inf") if deviation > 0 else float("-inf")
    return deviation / (_MAD_SIGMA * mad)


@dataclass(frozen=True)
class RegressionFlag:
    """One metric whose latest value regressed beyond the threshold."""

    metric: str
    value: float
    baseline_median: float
    z: float
    direction: str

    def describe(self) -> str:
        return (
            f"{self.metric}: {self.value:.6g} vs baseline median "
            f"{self.baseline_median:.6g} (robust z = {self.z:+.2f}, "
            f"{self.direction} is better)"
        )


def detect_regressions(
    history: Sequence[Mapping[str, object]],
    latest: Mapping[str, object],
    directions: Optional[Mapping[str, str]] = None,
    z_threshold: float = 3.5,
    min_history: int = 3,
) -> List[RegressionFlag]:
    """Flag direction-aware metrics of ``latest`` that left the baseline.

    ``history`` holds the *prior* runs' scalar summaries (latest
    excluded). Metrics with fewer than ``min_history`` baseline points
    are skipped — a two-run store has no distribution to score
    against. Only deviations in the *bad* direction count.
    """
    if z_threshold <= 0:
        raise ConfigurationError(
            f"z_threshold must be > 0, got {z_threshold}"
        )
    directions = dict(directions) if directions is not None else dict(
        SUMMARY_DIRECTIONS
    )
    flags: List[RegressionFlag] = []
    for metric in sorted(directions):
        direction = directions[metric]
        if direction not in ("higher", "lower"):
            raise ConfigurationError(
                f"direction for {metric!r} must be 'higher' or 'lower',"
                f" got {direction!r}"
            )
        value = latest.get(metric)
        if not isinstance(value, (int, float)):
            continue
        baseline = [
            float(entry[metric])
            for entry in history
            if isinstance(entry.get(metric), (int, float))
        ]
        if len(baseline) < min_history:
            continue
        z = robust_z(float(value), baseline)
        bad = z < -z_threshold if direction == "higher" else z > z_threshold
        if bad:
            flags.append(
                RegressionFlag(
                    metric=metric,
                    value=float(value),
                    baseline_median=median(baseline),
                    z=z,
                    direction=direction,
                )
            )
    return flags
