"""Streaming fleet rollups: live per-round aggregates in bounded memory.

The :class:`FleetRollup` is a :class:`~repro.obs.sink.TelemetrySink`
that turns the per-device, per-round event stream into the handful of
fleet-level numbers an operator actually watches — rounds completed,
reward trend, straggler/violation rates, bytes moved, quarantine and
fault counts — while holding O(1) state *per device* and one compact
row *per round*. It is the live counterpart of the post-hoc
:mod:`repro.obs.report`: the same stream that feeds a JSONL file or the
:class:`~repro.obs.store.RunStore` can feed a rollup, which then backs
the ``/rollup.json`` endpoint (:mod:`repro.obs.exposition`), the
``obs-watch`` dashboard (:mod:`repro.obs.watch`) and the threshold
alerting engine (:mod:`repro.obs.alerts`).

Determinism: every field derived from the event stream (participants,
stragglers, bytes, update norms, rewards, quarantine/churn/fault
counts) is identical across the serial and batched backends because the
stream itself is — the parallel engine merges actor events in device
order and re-stamps sequence numbers. Wall-clock-derived fields
(durations, rounds/s) are kept apart and excluded from the
deterministic snapshot (``snapshot(deterministic=True)``) used by
``obs-watch --once`` and the cross-backend identity tests, mirroring
``obs-diff --flag-timing``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.sink import TelemetrySink
from repro.obs.sketch import EwmaEstimator, QuantileDigest

__all__ = ["FleetRollup", "ROLLUP_SERIES"]

#: Per-round series the rollup persists into a RunStore, with the
#: round-row key each series reads (``fleet_`` prefix keeps them apart
#: from the tracer-derived series ``ingest_telemetry`` records).
ROLLUP_SERIES = {
    "fleet_participants": "participants",
    "fleet_stragglers": "stragglers",
    "fleet_straggler_rate": "straggler_rate",
    "fleet_bytes": "bytes",
    "fleet_quarantined": "quarantined",
    "fleet_reward_mean": "reward_mean",
    "fleet_violation_rate": "violation_rate",
    "fleet_alerts": "alerts",
}


class _DeviceStats:
    """O(1) per-device counters (the only per-device state kept)."""

    __slots__ = ("participated", "straggled", "quarantined")

    def __init__(self) -> None:
        self.participated = 0
        self.straggled = 0
        self.quarantined = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "participated": self.participated,
            "straggled": self.straggled,
            "quarantined": self.quarantined,
        }


class FleetRollup(TelemetrySink):
    """Consume the event stream; expose live fleet aggregates.

    Attach to an :class:`~repro.obs.sink.EventPipeline` like any other
    sink, or replay stored/tailed rows through :meth:`emit` directly
    (the ``obs-watch`` path). Optionally pass an
    :class:`~repro.obs.alerts.AlertEngine`; each completed round row is
    evaluated against its rules and any triggered alerts are emitted
    back into the bound pipeline (:meth:`bind`) as ``alert`` events —
    they travel through every attached sink like native events, and the
    rollup counts them when they come back around.
    """

    def __init__(self, alerts=None) -> None:
        self.alerts = alerts
        self._pipeline = None
        # Run identity (from the header event, when one flows through).
        self.run_name: Optional[str] = None
        self.run_fingerprint: Optional[str] = None
        # Fleet totals — O(1).
        self.rounds = 0
        self.rounds_aggregated = 0
        self.rounds_empty = 0
        self.participants_total = 0
        self.stragglers_total = 0
        self.bytes_total = 0
        self.quarantined_total = 0
        self.joins_total = 0
        self.leaves_total = 0
        self.active_devices: Optional[int] = None
        self.guard_transitions = 0
        self.fallback_entries = 0
        self.alerts_total = 0
        self.fault_counts: Dict[str, int] = {}
        # Bytes per hierarchy tier (hierarchical runs only; stays
        # empty — and invisible in snapshots — on flat runs).
        self.tier_bytes_total: Dict[str, int] = {}
        # Control-plane liveness (async runs only; stays empty — and
        # invisible in snapshots — on synchronous runs).
        self.device_states: Dict[str, str] = {}
        self.device_transitions = 0
        self.deaths_total = 0
        self.rejoins_total = 0
        self.controlplane_mode: Optional[str] = None
        self.mode_changes = 0
        self.events_seen = 0
        self.run_summary: Optional[Dict[str, object]] = None
        # Streaming estimators — bounded by construction.
        self.bytes_per_round = QuantileDigest()
        self.update_norm = QuantileDigest()
        self.reward_ewma = EwmaEstimator()
        self.round_duration_ewma = EwmaEstimator()  # wall-clock
        # Per-device counters and one compact row per round.
        self.devices: Dict[str, _DeviceStats] = {}
        self.round_rows: List[Dict[str, object]] = []
        self._rewards_by_round: Dict[int, float] = {}
        self._violations_by_round: Dict[int, float] = {}

    # -- sink interface ------------------------------------------------
    def bind(self, pipeline) -> None:
        """Give the rollup a pipeline to emit alert events into."""
        self._pipeline = pipeline

    def emit(self, event: Dict[str, object]) -> None:
        kind = event.get("type")
        self.events_seen += 1
        if kind == "header":
            self.run_name = event.get("experiment") or event.get("name")
            self.run_fingerprint = event.get("run_fingerprint")
        elif kind == "round_span":
            self._on_round_span(event)
        elif kind == "quarantine":
            devices = list(event.get("devices") or [])
            self.quarantined_total += len(devices)
            for name in devices:
                self._device(str(name)).quarantined += 1
            if self.round_rows:
                self.round_rows[-1]["quarantined"] = (
                    int(self.round_rows[-1].get("quarantined", 0))
                    + len(devices)
                )
        elif kind == "churn":
            self.joins_total += len(event.get("joined") or [])
            self.leaves_total += len(event.get("left") or [])
            if event.get("active") is not None:
                self.active_devices = int(event["active"])
        elif kind == "fault":
            fault_kind = str(event.get("kind", "unknown"))
            self.fault_counts[fault_kind] = (
                self.fault_counts.get(fault_kind, 0) + 1
            )
        elif kind == "guard_transition":
            self.guard_transitions += 1
            if str(event.get("to_state", "")).lower() == "fallback":
                self.fallback_entries += 1
        elif kind == "device_state":
            device = str(event.get("device", ""))
            to_state = str(event.get("to_state", ""))
            self.device_states[device] = to_state
            self.device_transitions += 1
            if to_state == "dead":
                self.deaths_total += 1
            elif to_state == "rejoined":
                self.rejoins_total += 1
        elif kind == "controlplane_mode":
            self.controlplane_mode = str(event.get("to_mode", ""))
            self.mode_changes += 1
        elif kind == "evaluation":
            self._on_evaluation(event)
        elif kind == "alert":
            self.alerts_total += 1
            row = self._row_for_round(event.get("round"))
            if row is not None:
                row["alerts"] = int(row.get("alerts", 0)) + 1
        elif kind == "run_summary":
            self.run_summary = {
                key: value
                for key, value in event.items()
                if key not in ("type", "seq")
            }

    # -- event handlers ------------------------------------------------
    def _device(self, name: str) -> _DeviceStats:
        stats = self.devices.get(name)
        if stats is None:
            stats = self.devices[name] = _DeviceStats()
        return stats

    def _on_round_span(self, event: Dict[str, object]) -> None:
        participants = [str(p) for p in (event.get("participants") or [])]
        stragglers = [str(s) for s in (event.get("stragglers") or [])]
        span_bytes = int(event.get("bytes") or 0)
        self.rounds += 1
        if event.get("aggregated"):
            self.rounds_aggregated += 1
        if not participants:
            self.rounds_empty += 1
        self.participants_total += len(participants)
        self.stragglers_total += len(stragglers)
        self.bytes_total += span_bytes
        self.bytes_per_round.add(span_bytes)
        update_norm = event.get("update_norm")
        if update_norm is not None:
            self.update_norm.add(float(update_norm))
        duration = event.get("duration_s")
        if duration is not None:
            self.round_duration_ewma.update(float(duration))
        for name in participants:
            self._device(name).participated += 1
        for name in stragglers:
            self._device(name).straggled += 1
        tiers = event.get("tiers") or {}
        for tier, tier_bytes in tiers.items():
            self.tier_bytes_total[str(tier)] = (
                self.tier_bytes_total.get(str(tier), 0) + int(tier_bytes)
            )
        round_index = int(event.get("round") or 0)
        row: Dict[str, object] = {
            "round": round_index,
            "participants": len(participants),
            "stragglers": len(stragglers),
            "straggler_rate": (
                len(stragglers) / len(participants) if participants else 0.0
            ),
            "bytes": span_bytes,
            "aggregated": bool(event.get("aggregated")),
            "quarantined": 0,
            "alerts": 0,
        }
        if update_norm is not None:
            row["update_norm"] = float(update_norm)
        if round_index in self._rewards_by_round:
            row["reward_mean"] = self._rewards_by_round[round_index]
        if round_index in self._violations_by_round:
            row["violation_rate"] = self._violations_by_round[round_index]
        self.round_rows.append(row)
        if self.alerts is not None:
            for alert in self.alerts.evaluate(row):
                self._emit_alert(alert)

    def _on_evaluation(self, event: Dict[str, object]) -> None:
        round_index = int(event.get("round") or 0)
        reward = event.get("reward_mean")
        if reward is None:
            return
        reward = float(reward)
        self._rewards_by_round[round_index] = reward
        self.reward_ewma.update(reward)
        row = self._row_for_round(round_index)
        if row is not None:
            row["reward_mean"] = reward
            if self.alerts is not None:
                for alert in self.alerts.evaluate(
                    {"round": round_index, "reward_mean": reward}
                ):
                    self._emit_alert(alert)

    def _row_for_round(self, round_index) -> Optional[Dict[str, object]]:
        if round_index is None:
            return self.round_rows[-1] if self.round_rows else None
        round_index = int(round_index)
        for row in reversed(self.round_rows):
            if row["round"] == round_index:
                return row
        return None

    def _emit_alert(self, alert: Dict[str, object]) -> None:
        if self._pipeline is not None:
            # The pipeline fans the alert out to every sink — including
            # this rollup, which counts it on receipt (no double count).
            self._pipeline.emit(alert)
        else:
            self.emit(alert)

    # -- out-of-band ingestion (flight dumps) ----------------------------
    def ingest_flight(self, flight) -> None:
        """Fold a flight recorder's per-round reward/violation curves in.

        The flight recorder lives device-side; the event stream does
        not carry per-step power data. When a recorder (or a merged
        worker dump) is available, this back-fills ``reward_mean`` and
        ``violation_rate`` onto the matching round rows.
        """
        for round_index, rate in flight.violations_by_round().items():
            self._violations_by_round[int(round_index)] = float(rate)
            row = self._row_for_round(round_index)
            if row is not None:
                row["violation_rate"] = float(rate)
        for round_index, reward in flight.rewards_by_round().items():
            round_index = int(round_index)
            if round_index not in self._rewards_by_round:
                self._rewards_by_round[round_index] = float(reward)
                row = self._row_for_round(round_index)
                if row is not None and "reward_mean" not in row:
                    row["reward_mean"] = float(reward)

    # -- views ---------------------------------------------------------
    @property
    def straggler_rate(self) -> float:
        if self.participants_total == 0:
            return 0.0
        return self.stragglers_total / self.participants_total

    @property
    def rounds_per_s(self) -> Optional[float]:
        """Wall-clock throughput from the round-duration EWMA."""
        duration = self.round_duration_ewma.value
        if not duration:
            return None
        return 1.0 / duration

    def snapshot(self, deterministic: bool = False) -> Dict[str, object]:
        """The rollup as one JSON-serialisable dict.

        ``deterministic=True`` drops every wall-clock-derived field, so
        same-seed runs produce byte-identical snapshots regardless of
        execution backend or machine speed.
        """
        out: Dict[str, object] = {
            "type": "rollup",
            "run_name": self.run_name,
            "run_fingerprint": self.run_fingerprint,
            "rounds": self.rounds,
            "rounds_aggregated": self.rounds_aggregated,
            "rounds_empty": self.rounds_empty,
            "participants_total": self.participants_total,
            "stragglers_total": self.stragglers_total,
            "straggler_rate": self.straggler_rate,
            "bytes_total": self.bytes_total,
            "quarantined_total": self.quarantined_total,
            "joins_total": self.joins_total,
            "leaves_total": self.leaves_total,
            "guard_transitions": self.guard_transitions,
            "fallback_entries": self.fallback_entries,
            "alerts_total": self.alerts_total,
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "events_seen": self.events_seen,
            "reward_ewma": self.reward_ewma.value,
            "bytes_per_round": self.bytes_per_round.state(),
            "update_norm": self.update_norm.state(),
            "devices": {
                name: self.devices[name].as_dict()
                for name in sorted(self.devices)
            },
            "rounds_detail": [dict(row) for row in self.round_rows],
        }
        if self.tier_bytes_total:
            out["tier_bytes_total"] = dict(sorted(self.tier_bytes_total.items()))
        if self.device_states or self.controlplane_mode is not None:
            state_counts: Dict[str, int] = {}
            for state in self.device_states.values():
                state_counts[state] = state_counts.get(state, 0) + 1
            out["controlplane"] = {
                "mode": self.controlplane_mode,
                "mode_changes": self.mode_changes,
                "device_states": dict(sorted(self.device_states.items())),
                "state_counts": dict(sorted(state_counts.items())),
                "transitions": self.device_transitions,
                "deaths": self.deaths_total,
                "rejoins": self.rejoins_total,
            }
        if self.active_devices is not None:
            out["active_devices"] = self.active_devices
        if self.run_summary is not None:
            out["run_summary"] = dict(self.run_summary)
        if not deterministic:
            out["rounds_per_s"] = self.rounds_per_s
            out["round_duration_ewma_s"] = self.round_duration_ewma.value
        return out

    def render(self, deterministic: bool = False, last_rounds: int = 10) -> str:
        """The terminal dashboard body ``obs-watch`` refreshes in place."""
        lines: List[str] = []
        title = self.run_name or "run"
        fingerprint = (
            f" [{self.run_fingerprint[:12]}]" if self.run_fingerprint else ""
        )
        lines.append(f"fleet rollup — {title}{fingerprint}")
        lines.append(
            f"rounds: {self.rounds} ({self.rounds_aggregated} aggregated, "
            f"{self.rounds_empty} empty)   devices: {len(self.devices)}"
        )
        reward = self.reward_ewma.value
        lines.append(
            "reward ewma: "
            + (f"{reward:+.6g}" if reward is not None else "n/a")
            + f"   straggler rate: {100.0 * self.straggler_rate:.2f}%"
            + f"   bytes: {self.bytes_total}"
        )
        lines.append(
            f"quarantined: {self.quarantined_total}   "
            f"guard transitions: {self.guard_transitions} "
            f"({self.fallback_entries} fallback)   "
            f"churn: +{self.joins_total}/-{self.leaves_total}   "
            f"alerts: {self.alerts_total}"
        )
        if self.fault_counts:
            faults = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.fault_counts.items())
            )
            lines.append(f"faults: {faults}")
        if self.tier_bytes_total:
            tiers = ", ".join(
                f"{tier}={count}"
                for tier, count in sorted(self.tier_bytes_total.items())
            )
            lines.append(f"tier bytes: {tiers}")
        if self.device_states or self.controlplane_mode is not None:
            state_counts: Dict[str, int] = {}
            for state in self.device_states.values():
                state_counts[state] = state_counts.get(state, 0) + 1
            states = ", ".join(
                f"{state}={count}"
                for state, count in sorted(state_counts.items())
            )
            lines.append(
                f"control plane: mode={self.controlplane_mode or 'n/a'} "
                f"({self.mode_changes} changes)   "
                f"liveness: {states or 'n/a'}   "
                f"deaths: {self.deaths_total}   rejoins: {self.rejoins_total}"
            )
        if not deterministic:
            throughput = self.rounds_per_s
            if throughput is not None:
                lines.append(f"throughput: {throughput:.3f} rounds/s")
        if self.round_rows:
            lines.append("")
            lines.append(
                "| round | parts | strag | bytes | quar | alerts "
                "| reward | viol% |"
            )
            lines.append(
                "|------:|------:|------:|------:|-----:|-------:"
                "|-------:|------:|"
            )
            for row in self.round_rows[-last_rounds:]:
                reward_cell = (
                    f"{row['reward_mean']:+.4f}"
                    if row.get("reward_mean") is not None
                    else "-"
                )
                violation_cell = (
                    f"{100.0 * row['violation_rate']:.1f}"
                    if row.get("violation_rate") is not None
                    else "-"
                )
                lines.append(
                    f"| {row['round']} | {row['participants']} "
                    f"| {row['stragglers']} | {row['bytes']} "
                    f"| {row['quarantined']} | {row['alerts']} "
                    f"| {reward_cell} | {violation_cell} |"
                )
        if self.run_summary is not None:
            lines.append("")
            summary = ", ".join(
                f"{key}={_fmt(value)}"
                for key, value in sorted(self.run_summary.items())
            )
            lines.append(f"run finished: {summary}")
        return "\n".join(lines)

    # -- persistence ---------------------------------------------------
    def persist(self, store, run_id: int) -> None:
        """Record the per-round fleet series into a RunStore."""
        for series_name, row_key in sorted(ROLLUP_SERIES.items()):
            points = [
                (int(row["round"]), float(row[row_key]))
                for row in self.round_rows
                if row.get(row_key) is not None
            ]
            if points:
                store.record_series(run_id, series_name, points)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
