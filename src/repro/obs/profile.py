"""Hot-path scope profiler.

Before any perf PR can claim a win, wall-time must be attributable:
how much of a training run is ``agent.act`` versus the simulator step
versus aggregation? :class:`ScopeProfiler` answers that with
hierarchical ``perf_counter`` scopes::

    profiler = ScopeProfiler()
    with profiler.scope("control.run_steps"):
        with profiler.scope("agent.act"):
            ...

Nested scopes build slash-joined paths (``control.run_steps/agent.act``)
and every node tracks call count, cumulative time and child time, so
both *cumulative* and *self* columns come out of one pass. Hot loops
that already measure elapsed time can feed it in without a context
manager via :meth:`ScopeProfiler.add` (one dict update, no ``with``
overhead).

The module-level :func:`profile` helper scopes under the profiler it is
given; with none it returns a shared no-op scope, so permanently
instrumented call sites cost one ``is None`` check. For micro-level attribution there is an opt-in
:func:`cprofile_capture` wrapper around :mod:`cProfile` — far too slow
to leave attached, which is exactly why the scope profiler exists.

Aggregates export through :meth:`ScopeProfiler.export_to` as
``profile.<path>`` gauges on a :class:`~repro.obs.metrics.MetricsRegistry`,
which is how they reach ``--metrics-out`` files and the offline run
report.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

#: Separator between nested scope names in a path.
PATH_SEPARATOR = "/"


@dataclass
class ScopeStats:
    """Accumulated timings of one scope path."""

    path: str
    count: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        """Time spent in this scope excluding profiled children."""
        return max(self.total_s - self.child_s, 0.0)

    @property
    def name(self) -> str:
        """The leaf name (last path segment)."""
        return self.path.rsplit(PATH_SEPARATOR, 1)[-1]

    @property
    def depth(self) -> int:
        return self.path.count(PATH_SEPARATOR)


class _Scope:
    """One live ``with`` scope (class-based for low enter/exit cost)."""

    __slots__ = ("_profiler", "_name", "_path", "_start")

    def __init__(self, profiler: "ScopeProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Scope":
        self._path = self._profiler._push(self._name)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._profiler._pop(self._path, perf_counter() - self._start)
        return False


class _NullScope:
    """Shared do-nothing scope for uninstrumented runs."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SCOPE = _NullScope()


class ScopeProfiler:
    """Collects hierarchical wall-time statistics for one run."""

    def __init__(self) -> None:
        self._stats: Dict[str, ScopeStats] = {}
        self._stack: List[str] = []

    # -- recording -----------------------------------------------------
    def scope(self, name: str) -> _Scope:
        """``with profiler.scope("agent.act"): ...``"""
        if not name:
            raise ConfigurationError("scope name must be non-empty")
        return _Scope(self, name)

    def add(self, name: str, elapsed_s: float) -> None:
        """Record an externally measured duration as a leaf scope.

        The duration is attributed under the currently open scope path
        (if any) and counted as child time of that parent, exactly as a
        ``with`` scope would be — but without context-manager overhead,
        which matters inside per-step loops.
        """
        path = self._child_path(name)
        self._record(path, elapsed_s)

    def _push(self, name: str) -> str:
        path = self._child_path(name)
        self._stack.append(path)
        return path

    def _pop(self, path: str, elapsed_s: float) -> None:
        self._stack.pop()
        self._record(path, elapsed_s)

    def _child_path(self, name: str) -> str:
        if self._stack:
            return self._stack[-1] + PATH_SEPARATOR + name
        return name

    def _record(self, path: str, elapsed_s: float) -> None:
        stats = self._stats.get(path)
        if stats is None:
            stats = self._stats[path] = ScopeStats(path=path)
        stats.count += 1
        stats.total_s += elapsed_s
        if self._stack:
            parent = self._stats.get(self._stack[-1])
            if parent is None:
                parent = self._stats[self._stack[-1]] = ScopeStats(
                    path=self._stack[-1]
                )
            parent.child_s += elapsed_s

    # -- views ---------------------------------------------------------
    @property
    def open_depth(self) -> int:
        """Currently open scopes (0 when no ``with`` block is active)."""
        return len(self._stack)

    def table(self) -> List[ScopeStats]:
        """All scope paths, deepest trees kept together, by cumulative time."""
        return sorted(
            self._stats.values(), key=lambda s: (-s.total_s, s.path)
        )

    def stats(self, path: str) -> ScopeStats:
        if path not in self._stats:
            raise ConfigurationError(f"no scope recorded under path {path!r}")
        return self._stats[path]

    def total_recorded_s(self) -> float:
        """Cumulative time of root scopes (no double counting)."""
        return sum(
            s.total_s for s in self._stats.values() if PATH_SEPARATOR not in s.path
        )

    def format_table(self) -> str:
        """A fixed-width self/cumulative table, one row per scope path."""
        rows = self.table()
        if not rows:
            return "profiler: no scopes recorded"
        width = max(len("scope"), *(len(s.path) for s in rows))
        lines = [
            f"{'scope':<{width}}  {'count':>8}  {'cum_s':>10}  {'self_s':>10}  {'mean_ms':>9}"
        ]
        for s in rows:
            mean_ms = 1000.0 * s.total_s / s.count if s.count else 0.0
            lines.append(
                f"{s.path:<{width}}  {s.count:>8}  {s.total_s:>10.4f}  "
                f"{s.self_s:>10.4f}  {mean_ms:>9.3f}"
            )
        return "\n".join(lines)

    # -- worker merge --------------------------------------------------
    def dump_rows(self) -> List[tuple]:
        """All stats as ``(path, count, total_s, child_s)`` rows.

        The picklable counterpart of the profiler itself: parallel
        device workers profile into a private instance, ship these rows
        across the process boundary, and the parent folds them
        back in with :meth:`merge_rows`.
        """
        return [
            (s.path, s.count, s.total_s, s.child_s)
            for s in self._stats.values()
        ]

    def merge_rows(self, rows: Iterable[tuple]) -> None:
        """Fold :meth:`dump_rows` output from another profiler in.

        Merged paths are re-rooted under the currently open scope (if
        any), so a worker's ``control.run_steps/control.act`` lands as
        ``federated.local_train/control.run_steps/control.act`` when the
        orchestrator merges inside its ``federated.local_train`` scope —
        the same attribution a serial run produces. Worker root rows
        count as child time of the open scope.
        """
        prefix = self._stack[-1] + PATH_SEPARATOR if self._stack else ""
        parent: Optional[ScopeStats] = None
        if self._stack:
            parent = self._stats.get(self._stack[-1])
            if parent is None:
                parent = self._stats[self._stack[-1]] = ScopeStats(
                    path=self._stack[-1]
                )
        for path, count, total_s, child_s in rows:
            full = prefix + path
            stats = self._stats.get(full)
            if stats is None:
                stats = self._stats[full] = ScopeStats(path=full)
            stats.count += count
            stats.total_s += total_s
            stats.child_s += child_s
            if parent is not None and PATH_SEPARATOR not in path:
                parent.child_s += total_s

    # -- export --------------------------------------------------------
    def export_to(self, registry: MetricsRegistry) -> int:
        """Publish per-path aggregates as ``profile.*`` gauges.

        Three gauges per path (``...:cum_s``, ``...:self_s``,
        ``...:count``); returns the number of exported paths. Gauges —
        not histograms — because the profiler already aggregated.
        """
        for s in self._stats.values():
            registry.set_gauge(f"profile.{s.path}:cum_s", s.total_s)
            registry.set_gauge(f"profile.{s.path}:self_s", s.self_s)
            registry.set_gauge(f"profile.{s.path}:count", s.count)
        return len(self._stats)

    def reset(self) -> None:
        if self._stack:
            raise ConfigurationError(
                f"cannot reset while {len(self._stack)} scope(s) are open"
            )
        self._stats.clear()


def profile(name: str, profiler: Optional[ScopeProfiler] = None):
    """Scope under ``profiler``; no-op when it is ``None``.

    The permanent instrumentation entry point::

        with profile("sim.step", profiler):
            ...

    costs one ``is None`` check plus a no-op enter/exit when no
    profiler is attached.
    """
    if profiler is None:
        return NULL_SCOPE
    return profiler.scope(name)


class CProfileReport:
    """Holds the formatted :mod:`pstats` output after capture."""

    def __init__(self) -> None:
        self.text: str = ""


@contextmanager
def cprofile_capture(
    sort: str = "cumulative", limit: int = 30
) -> Iterator[CProfileReport]:
    """Opt-in deterministic profiler around a block.

    ``with cprofile_capture() as report: ...`` — afterwards
    ``report.text`` holds the top-``limit`` rows sorted by ``sort``.
    Orders of magnitude slower than :class:`ScopeProfiler`; never
    attach it to a run whose wall-time you are reporting.
    """
    import cProfile
    import io
    import pstats

    report = CProfileReport()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield report
    finally:
        profiler.disable()
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats(sort).print_stats(limit)
        report.text = stream.getvalue()
