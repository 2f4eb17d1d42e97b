"""Device-level flight recorder.

Round spans (:mod:`repro.obs.tracing`) explain what the *federation*
did; they say nothing about why one device converged slowly, how often
an agent exceeded ``P_crit``, or which OPPs it actually dwelled in.
The :class:`FlightRecorder` fills that gap: a bounded, sampled view
over the step log (:mod:`repro.sim.trace`) — per control step, the
observed state features, the chosen OPP, the exploration/greedy flag,
the reward, the running power-violation count, the thermal state, the
agent loss whenever a train step fired, and whether a safety fallback
chose the action.

The recorder holds no copy of the steps: it keeps references to the
:class:`~repro.sim.trace.StepBlock` columns the control loops already
built, as strided slices. :class:`FlightRecord` rows are views made on
demand. ``capacity`` bounds how many rows stay retained (oldest evicted
first) and ``sample_every`` keeps every Nth step per device; both keep
the *running* counters exact, because the counters are updated over
every offered step and each row carries its device's running violation
count.

Export paths: JSONL (``dump_jsonl``/``from_jsonl`` round-trip, the
format ``repro-power run --flight-out`` writes and ``repro-power
obs-report`` reads) and NPZ (``dump_npz``, one array per field for
numpy post-processing).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Deque, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.trace import COLUMNS, StepBlock, blocks_of_rows, optional_float


@dataclass(frozen=True)
class FlightRecord:
    """Everything the recorder shows about one control step.

    ``obs_*`` fields are the state features the agent acted *from*
    (the pre-action snapshot); ``action_index``/``action_frequency_hz``
    identify the OPP it chose; ``violations`` is the device's running
    ``P > P_crit`` count up to and including this step, so the total
    survives ring-buffer eviction; ``loss`` is set only on steps where
    the agent performed a gradient/table update.
    """

    device: str
    round_index: int
    step: int
    obs_frequency_hz: float
    obs_power_w: float
    obs_ipc: float
    obs_mpki: float
    action_index: int
    action_frequency_hz: float
    reward: float
    greedy: Optional[bool] = None
    violated: bool = False
    violations: int = 0
    temperature_c: Optional[float] = None
    loss: Optional[float] = None
    #: Whether a safety watchdog's fallback governor chose the action
    #: (always False for unguarded controllers).
    fallback: bool = False

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


_FIELD_NAMES = tuple(f.name for f in fields(FlightRecord))

#: Step-log columns behind the per-step record fields, in field order.
_COLUMNS = tuple(
    "frequency_hz" if name == "action_frequency_hz" else name
    for name in _FIELD_NAMES[2:]
)

_GREEDY = {-1: None, 0: False, 1: True}


def _rows(block: StepBlock, index: slice) -> Iterator[tuple]:
    """Field-ordered value tuples of ``block``'s rows at ``index``."""
    columns = {name: block[name][index].tolist() for name in _COLUMNS}
    columns["greedy"] = [_GREEDY[g] for g in columns["greedy"]]
    columns["temperature_c"] = [optional_float(t) for t in columns["temperature_c"]]
    columns["loss"] = [
        loss if updated else None
        for loss, updated in zip(columns["loss"], block["updated"][index].tolist())
    ]
    head = (block.device, block.round_index)
    for values in zip(*(columns[name] for name in _COLUMNS)):
        yield head + values


def _blocks_of_flight_rows(rows: Iterable[Dict[str, object]]) -> List[StepBlock]:
    return blocks_of_rows(
        {**row, "frequency_hz": row.get("action_frequency_hz")} for row in rows
    )


class FlightRecorder:
    """Bounded per-step view of a fleet's step log.

    One recorder serves every device of a run (blocks carry the device
    id), so a single ``--flight-out`` file captures the whole fleet.
    ``capacity`` is the maximum number of *retained* records (oldest
    evicted first); ``sample_every`` keeps only every Nth step per
    device (N=1 keeps all).
    """

    def __init__(self, capacity: int = 65536, sample_every: int = 1) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.capacity = capacity
        self.sample_every = sample_every
        #: ``[block, start]`` pairs: the block's rows ``start::sample_every``.
        self._segments: Deque[list] = deque()
        self._retained = 0
        self._appended = 0
        self._seen_by_device: Dict[str, int] = {}
        self._violations_by_device: Dict[str, int] = {}
        self._fallbacks_by_device: Dict[str, int] = {}

    # -- recording -----------------------------------------------------
    def record_block(self, block: StepBlock) -> int:
        """Offer a block of steps; returns how many rows were retained.

        Every offered step updates the recorder's exact per-device
        counters (steps seen, violations, fallbacks), even when
        ``sample_every`` thins it out or the ring later evicts it — so
        aggregate totals stay exact regardless of capacity or sampling,
        and they add up correctly when several sessions share one
        device name.
        """
        steps = len(block)
        if not steps:
            return 0
        device = block.device
        seen = self._seen_by_device.get(device, 0)
        self._seen_by_device[device] = seen + steps
        for counts, column in (
            (self._violations_by_device, "violated"),
            (self._fallbacks_by_device, "fallback"),
        ):
            hits = int(np.count_nonzero(block[column]))
            if hits:
                counts[device] = counts.get(device, 0) + hits
        start = -seen % self.sample_every
        kept = len(range(start, steps, self.sample_every))
        if kept:
            self._segments.append([block, start])
            self._retained += kept
            self._appended += kept
            self._evict()
        return kept

    def record(self, record: FlightRecord) -> bool:
        """Offer one step as a row; returns whether it was retained."""
        (block,) = _blocks_of_flight_rows([record.as_dict()])
        return self.record_block(block) == 1

    def _evict(self) -> None:
        excess = self._retained - self.capacity
        while excess > 0:
            segment = self._segments[0]
            block, start = segment
            count = len(range(start, len(block), self.sample_every))
            if count <= excess:
                self._segments.popleft()
                dropped = count
            else:
                segment[1] = start + excess * self.sample_every
                dropped = excess
            self._retained -= dropped
            excess -= dropped

    def _slices(self, device: Optional[str] = None):
        for block, start in self._segments:
            if device is None or block.device == device:
                yield block, slice(start, None, self.sample_every)

    def __len__(self) -> int:
        return self._retained

    def __iter__(self) -> Iterator[FlightRecord]:
        for block, index in self._slices():
            for values in _rows(block, index):
                yield FlightRecord(*values)

    @property
    def records(self) -> List[FlightRecord]:
        """Retained records, oldest first (materialised)."""
        return list(self)

    @property
    def steps_seen(self) -> int:
        """Control steps offered to the recorder (before sampling)."""
        return sum(self._seen_by_device.values())

    @property
    def records_dropped(self) -> int:
        """Retained-then-evicted records (ring-buffer overflow)."""
        return self._appended - self._retained

    def clear(self) -> None:
        self._segments.clear()
        self._retained = 0
        self._appended = 0
        self._seen_by_device.clear()
        self._violations_by_device.clear()
        self._fallbacks_by_device.clear()

    # -- aggregate views ----------------------------------------------
    def _column(self, name: str, device: Optional[str] = None) -> np.ndarray:
        """One column over the retained rows (of one device or all)."""
        parts = [block[name][index] for block, index in self._slices(device)]
        return np.concatenate(parts) if parts else np.empty(0, COLUMNS[name][0])

    def _per_block(self, attr: str, dtype, device: Optional[str] = None) -> np.ndarray:
        """A per-block value (``device``, ``round_index``) per retained row."""
        slices = list(self._slices(device))
        return np.repeat(
            np.array([getattr(block, attr) for block, _ in slices], dtype=dtype),
            [len(range(*index.indices(len(block)))) for block, index in slices],
        )

    def devices(self) -> List[str]:
        """Device ids ever offered to the recorder, sorted.

        Based on the exact counters, so a device whose records were all
        evicted or sampled out still shows up in aggregate tables.
        """
        return sorted(self._seen_by_device)

    def device_records(self, device: str) -> List[FlightRecord]:
        return [
            FlightRecord(*values)
            for block, index in self._slices(device)
            for values in _rows(block, index)
        ]

    def dwell_counts(self, device: Optional[str] = None) -> Dict[int, int]:
        """Steps spent per chosen OPP index (one device or the fleet)."""
        actions, counts = np.unique(
            self._column("action_index", device).astype(np.int64),
            return_counts=True,
        )
        return dict(zip(actions.tolist(), counts.tolist()))

    def steps_by_device(self) -> Dict[str, int]:
        """Steps offered per device (exact, before sampling/eviction)."""
        return dict(sorted(self._seen_by_device.items()))

    def violation_counts(self) -> Dict[str, int]:
        """``P > P_crit`` steps per device.

        Counted over *every* offered step, so the totals are exact
        under sampling and ring-buffer eviction (for a recorder rebuilt
        from a dump, they cover the dumped rows). Devices with zero
        violations still appear, with 0.
        """
        return {
            device: self._violations_by_device.get(device, 0)
            for device in sorted(self._seen_by_device)
        }

    def violation_rate(self, device: Optional[str] = None) -> float:
        """Fraction of offered steps that exceeded ``P_crit``.

        ``device=None`` gives the fleet-wide rate; an unknown device or
        an empty recorder yields 0.0 rather than dividing by zero.
        """
        return self._rate(self._violations_by_device, device)

    def fallback_counts(self) -> Dict[str, int]:
        """Watchdog-fallback steps per device (exact, like violations).

        Counted over every offered step, so the totals survive sampling
        and eviction. Devices that never fell back still appear, with 0.
        """
        return {
            device: self._fallbacks_by_device.get(device, 0)
            for device in sorted(self._seen_by_device)
        }

    def fallback_rate(self, device: Optional[str] = None) -> float:
        """Fraction of offered steps controlled by a safety fallback."""
        return self._rate(self._fallbacks_by_device, device)

    def _rate(self, hits_by_device: Dict[str, int], device: Optional[str]) -> float:
        if device is None:
            steps = sum(self._seen_by_device.values())
            hits = sum(hits_by_device.values())
        else:
            steps = self._seen_by_device.get(device, 0)
            hits = hits_by_device.get(device, 0)
        return hits / steps if steps else 0.0

    def _by_round(self, column: str, device: Optional[str]) -> Dict[int, float]:
        """Per-round mean of a retained column, summed in row order."""
        rounds, index = np.unique(
            self._per_block("round_index", np.int64, device), return_inverse=True
        )
        sums = np.bincount(
            index, weights=self._column(column, device).astype(np.float64)
        )
        counts = np.bincount(index)
        return {
            int(r): float(s) / int(c)
            for r, s, c in zip(rounds.tolist(), sums.tolist(), counts.tolist())
        }

    def rewards_by_round(self, device: Optional[str] = None) -> Dict[int, float]:
        """Mean recorded reward per federated round."""
        return self._by_round("reward", device)

    def violations_by_round(self, device: Optional[str] = None) -> Dict[int, float]:
        """Violation rate per federated round (retained records)."""
        return self._by_round("violated", device)

    # -- export --------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, object]]:
        return [
            dict(zip(_FIELD_NAMES, values))
            for block, index in self._slices()
            for values in _rows(block, index)
        ]

    def to_jsonl_lines(self) -> List[str]:
        return [
            json.dumps({"type": "flight_record", **row}) for row in self.to_dicts()
        ]

    def dump_jsonl(self, path) -> int:
        """Write one JSON line per retained record; returns the row count."""
        lines = self.to_jsonl_lines()
        with open(path, "w") as handle:
            if lines:
                handle.write("\n".join(lines) + "\n")
        return len(lines)

    def dump_npz(self, path) -> int:
        """Write one array per record field (numpy-friendly export).

        Missing temperatures and losses are NaN; a missing greedy flag
        is -1.
        """
        columns = {
            name: self._column(column)
            for name, column in zip(_FIELD_NAMES[2:], _COLUMNS)
        }
        columns["loss"] = np.where(self._column("updated"), columns["loss"], np.nan)
        columns["device"] = self._per_block("device", str)
        columns["round_index"] = self._per_block("round_index", np.int64)
        np.savez_compressed(path, **{name: columns[name] for name in _FIELD_NAMES})
        return self._retained

    @classmethod
    def from_dicts(cls, rows: Iterable[Dict[str, object]]) -> "FlightRecorder":
        """Rebuild a recorder (unbounded enough to hold ``rows``)."""
        rows = list(rows)
        recorder = cls(capacity=max(1, len(rows)))
        for block in _blocks_of_flight_rows(rows):
            recorder.record_block(block)
        return recorder

    @classmethod
    def from_jsonl(cls, path) -> "FlightRecorder":
        """Load a recorder back from a ``dump_jsonl`` file.

        Non-record lines (header records, round spans in a mixed
        stream) are skipped, so the loader tolerates concatenated
        telemetry files — and unparseable lines (the torn tail of a
        killed run) are skipped with a warning rather than raising.
        """
        # Imported here: sink imports nothing from flight.
        from repro.obs.sink import iter_jsonl_rows

        rows: List[Dict[str, object]] = []
        for row in iter_jsonl_rows(path):
            if row.get("type", "flight_record") != "flight_record":
                continue
            rows.append(row)
        return cls.from_dicts(rows)
