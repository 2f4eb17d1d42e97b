"""The step log: every control interval, recorded once, as columns.

One :meth:`~repro.control.runtime.ControlSession.run_steps` call — one
device, one round — produces one :class:`StepBlock`: numpy columns for
the chosen OPP, the measured outcome, the reward, the observation the
agent acted from, the exploration/fallback flags, the running
``P > P_crit`` count and the loss of every update step. The serial
session appends a row at a time and builds the block when the call
ends; the batched lockstep loop cuts each device's block out of the
batch's own arrays.

A :class:`StepLog` is the run's sequence of blocks. The paper's
aggregates (mean reward per round, constraint-violation rate, average
power/IPS, per-device violation counts) are array reductions over its
columns; :class:`StepRecord` rows, ``to_rows`` and the CSV export are
views built on demand. The flight recorder
(:class:`~repro.obs.flight.FlightRecorder`) is a sampled, bounded view
over the same blocks.
"""

from __future__ import annotations

import csv
import math
from itertools import repeat
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np


class StepRecord(NamedTuple):
    """One control interval of a :class:`StepLog`, as a row."""

    step: int
    device: str
    application: str
    action_index: int
    frequency_hz: float
    power_w: float
    ipc: float
    mpki: float
    miss_rate: float
    ips: float
    reward: float
    round_index: int = 0
    temperature_c: Optional[float] = None


#: Lanes of the observation matrix :meth:`StepBlock.from_observed` reads.
#: Row 0 is the snapshot the block's first action was chosen from; row
#: ``t + 1`` is step ``t``'s outcome (and step ``t + 1``'s input).
FREQUENCY, POWER, IPC, MISS_RATE, MPKI, IPS, REWARD, TEMPERATURE = range(8)
NUM_LANES = 8


def observation_lanes(snapshot, reward: Optional[float] = None) -> tuple:
    """One row of that matrix (``None`` lanes become NaN)."""
    return (
        snapshot.frequency_hz,
        snapshot.power_w,
        snapshot.ipc,
        snapshot.miss_rate,
        snapshot.mpki,
        snapshot.ips,
        reward,
        snapshot.temperature_c,
    )


_FLOAT = (np.float64, math.nan)
#: Every per-step column: dtype and the value a row that does not carry
#: it gets. ``temperature_c`` is NaN for devices without a thermal model,
#: ``greedy`` is -1 where the controller does not say, and ``loss`` is
#: meaningful only where ``updated`` is set.
COLUMNS: Dict[str, Tuple[object, object]] = {
    "step": (np.int64, 0),
    "application": (object, ""),
    "action_index": (np.int64, 0),
    **dict.fromkeys(
        (
            "frequency_hz", "power_w", "ipc", "mpki", "miss_rate", "ips",
            "reward", "temperature_c", "obs_frequency_hz", "obs_power_w",
            "obs_ipc", "obs_mpki", "loss",
        ),
        _FLOAT,
    ),
    "greedy": (np.int8, -1),
    "violated": (np.bool_, False),
    "violations": (np.int64, 0),
    "updated": (np.bool_, False),
    "fallback": (np.bool_, False),
}


def optional_float(value: float) -> Optional[float]:
    """NaN (a column's "no value") back to ``None``."""
    return None if value != value else value


class StepBlock:
    """One device's consecutive control intervals within one round."""

    __slots__ = ("device", "round_index", "columns")

    def __init__(
        self, device: str, round_index: int, columns: Mapping[str, np.ndarray]
    ) -> None:
        self.device = device
        self.round_index = round_index
        self.columns = columns

    @classmethod
    def from_observed(
        cls,
        device: str,
        round_index: int,
        first_step: int,
        observed: np.ndarray,
        actions: np.ndarray,
        applications: np.ndarray,
        greedy: np.ndarray,
        fallback: np.ndarray,
        loss: np.ndarray,
        updated: np.ndarray,
        power_limit_w: Optional[float],
        violations_before: int,
    ) -> "StepBlock":
        """A block over an ``(n + 1, NUM_LANES)`` observation matrix.

        The measured columns are views of ``observed``; the violation
        flags compare ``power_w`` with ``power_limit_w`` (none without
        a limit) and ``violations`` carries the session's running count
        on from ``violations_before``.
        """
        after = observed[1:]
        before = observed[:-1]
        steps = len(after)
        power = after[:, POWER]
        if power_limit_w is None:
            violated = np.zeros(steps, dtype=np.bool_)
        else:
            violated = power > power_limit_w
        return cls(
            device,
            round_index,
            {
                "step": np.arange(first_step, first_step + steps, dtype=np.int64),
                "application": applications,
                "action_index": actions,
                "frequency_hz": after[:, FREQUENCY],
                "power_w": power,
                "ipc": after[:, IPC],
                "mpki": after[:, MPKI],
                "miss_rate": after[:, MISS_RATE],
                "ips": after[:, IPS],
                "reward": after[:, REWARD],
                "temperature_c": after[:, TEMPERATURE],
                "obs_frequency_hz": before[:, FREQUENCY],
                "obs_power_w": before[:, POWER],
                "obs_ipc": before[:, IPC],
                "obs_mpki": before[:, MPKI],
                "greedy": greedy,
                "violated": violated,
                "violations": violations_before + np.cumsum(violated),
                "loss": loss,
                "updated": updated,
                "fallback": fallback,
            },
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, object]]) -> "StepBlock":
        """A block over row dicts of one device and round; absent or
        ``None`` values take the column's fill value (``loss`` also
        sets ``updated``)."""
        columns = {}
        for name, (dtype, fill) in COLUMNS.items():
            values = [row.get(name) for row in rows]
            columns[name] = np.array(
                [fill if value is None else value for value in values], dtype=dtype
            )
        columns["updated"] = np.array(
            [row.get("loss") is not None for row in rows], dtype=np.bool_
        )
        return cls(rows[0]["device"], rows[0]["round_index"], columns)

    def __len__(self) -> int:
        return len(self.columns["step"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def take(self, index) -> "StepBlock":
        """The rows ``index`` (a mask, slice or index array) select."""
        return StepBlock(
            self.device,
            self.round_index,
            {name: column[index] for name, column in self.columns.items()},
        )

    def reward_total(self) -> float:
        """The block's rewards summed in step order."""
        return sum(self.columns["reward"].tolist())

    def __iter__(self) -> Iterator[StepRecord]:
        per_block = {"device": self.device, "round_index": self.round_index}
        fields = [
            repeat(per_block[name])
            if name in per_block
            else self.columns[name].tolist()
            for name in StepRecord._fields
        ]
        fields[-1] = [optional_float(t) for t in fields[-1]]
        return map(StepRecord._make, zip(*fields))


def blocks_of_rows(rows: Iterable[Mapping[str, object]]) -> List[StepBlock]:
    """Row dicts as blocks, one per run of one device and round."""
    blocks: List[StepBlock] = []
    run: List[Mapping[str, object]] = []
    for row in rows:
        if run and (row["device"], row["round_index"]) != (
            run[0]["device"],
            run[0]["round_index"],
        ):
            blocks.append(StepBlock.from_rows(run))
            run = []
        run.append(row)
    if run:
        blocks.append(StepBlock.from_rows(run))
    return blocks


class StepLog:
    """The run's :class:`StepBlock` sequence, with column aggregates."""

    def __init__(self) -> None:
        self._blocks: List[StepBlock] = []
        self._rows = 0
        self._cache: Dict[str, np.ndarray] = {}

    # -- recording -----------------------------------------------------
    def append(self, block: StepBlock) -> None:
        if len(block):
            self._blocks.append(block)
            self._rows += len(block)
            self._cache.clear()

    def record(self, record: StepRecord) -> None:
        """Append one row (tests and tools; the control loops append
        whole blocks)."""
        self.extend([record])

    def extend(self, records: Iterable[StepRecord]) -> None:
        for block in blocks_of_rows(record._asdict() for record in records):
            self.append(block)

    def drain(self) -> List[StepBlock]:
        """Hand over every block and empty the log."""
        blocks, self._blocks, self._rows = self._blocks, [], 0
        self._cache.clear()
        return blocks

    @property
    def blocks(self) -> List[StepBlock]:
        return list(self._blocks)

    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator[StepRecord]:
        for block in self._blocks:
            yield from block

    @property
    def records(self) -> List[StepRecord]:
        """The rows, materialised (a copy; the log stays append-only)."""
        return list(self)

    # -- columns -------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """One column over the whole log (``device`` and ``round_index``
        expand their per-block values)."""
        column = self._cache.get(name)
        if column is None:
            if name in ("device", "round_index"):
                column = np.repeat(
                    np.array(
                        [getattr(block, name) for block in self._blocks],
                        dtype=object if name == "device" else np.int64,
                    ),
                    [len(block) for block in self._blocks],
                )
            elif self._blocks:
                column = np.concatenate([block[name] for block in self._blocks])
            else:
                column = np.empty(0, dtype=COLUMNS[name][0])
            self._cache[name] = column
        return column

    def filter(
        self,
        device: Optional[str] = None,
        application: Optional[str] = None,
        round_index: Optional[int] = None,
    ) -> "StepLog":
        """A new log holding the rows matching every criterion."""
        selected = StepLog()
        for block in self._blocks:
            if device is not None and block.device != device:
                continue
            if round_index is not None and block.round_index != round_index:
                continue
            if application is not None:
                block = block.take(block["application"] == application)
            selected.append(block)
        return selected

    # -- aggregates ----------------------------------------------------
    def mean(self, field_name: str) -> float:
        """Mean of a numeric column (e.g. ``"reward"``), summed in order."""
        if not self._rows:
            raise ValueError("trace is empty")
        return sum(self.column(field_name).tolist()) / self._rows

    def mean_reward(self) -> float:
        return self.mean("reward")

    def mean_power_w(self) -> float:
        return self.mean("power_w")

    def mean_ips(self) -> float:
        return self.mean("ips")

    def violation_rate(self, power_limit_w: float) -> float:
        """Fraction of intervals whose power exceeded ``power_limit_w``."""
        if not self._rows:
            raise ValueError("trace is empty")
        violations = np.count_nonzero(self.column("power_w") > power_limit_w)
        return int(violations) / self._rows

    def rewards_by_round(self) -> Dict[int, float]:
        """Mean reward per federated round, for Fig. 3-style curves."""
        rounds, index = np.unique(self.column("round_index"), return_inverse=True)
        # bincount accumulates in row order: the same sums as a loop.
        sums = np.bincount(index, weights=self.column("reward"))
        counts = np.bincount(index)
        return {
            int(r): float(s) / int(c)
            for r, s, c in zip(rounds.tolist(), sums.tolist(), counts.tolist())
        }

    def power_counts(
        self, power_limit_w: float
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Per-device ``(P > power_limit_w steps, steps)``, in the order
        devices first appear."""
        violations: Dict[str, int] = {}
        steps: Dict[str, int] = {}
        for block in self._blocks:
            name = block.device
            steps[name] = steps.get(name, 0) + len(block)
            violations[name] = violations.get(name, 0) + int(
                np.count_nonzero(block["power_w"] > power_limit_w)
            )
        return violations, steps

    # -- export --------------------------------------------------------
    def to_rows(self) -> List[Dict[str, object]]:
        """Rows as plain dicts (for CSV export or DataFrame loading)."""
        return [record._asdict() for record in self]

    def to_csv(self, path) -> int:
        """Write every row as CSV; returns the number of data rows.

        The column order matches :class:`StepRecord`'s field order, so
        files from different runs line up for diffing and plotting.
        """
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=StepRecord._fields)
            writer.writeheader()
            for row in self.to_rows():
                writer.writerow(row)
        return self._rows


#: The log's older name, still imported by callers outside the package.
TraceRecorder = StepLog
