"""In-process metrics: counters, gauges, histograms, timers.

The registry is the numeric half of the observability layer
(:mod:`repro.obs`). It is deliberately tiny and dependency-free: plain
Python objects, ``time.perf_counter`` for timing, and quantile
summaries computed on demand with :func:`numpy.quantile`. Instrumented
code holds an ``Optional[MetricsRegistry]`` and guards every emission
with a single ``is not None`` check, so an uninstrumented run pays one
pointer comparison per call site and nothing else.

Export paths: :meth:`MetricsRegistry.snapshot` (nested dict),
:meth:`MetricsRegistry.to_jsonl_lines` (one JSON object per metric,
ready for a ``.jsonl`` sink) and :meth:`MetricsRegistry.to_csv`
(flat ``name,kind,field,value`` rows for spreadsheets).

Timing values live only in histograms — nothing seeded or asserted by
the experiments reads them back, which keeps runs bit-reproducible
with or without metrics attached.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.obs.sketch import QuantileDigest

#: Quantiles reported in histogram summaries (median, tail, far tail).
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


def _require_name(name: str) -> str:
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"metric name must be a non-empty string, got {name!r}")
    return name


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = _require_name(name)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount


class Gauge:
    """A value that can move in both directions (e.g. a round index)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = _require_name(name)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A stream of observations with on-demand quantile summaries.

    Backed by a :class:`~repro.obs.sketch.QuantileDigest`, so memory is
    bounded regardless of how many observations arrive: small streams
    stay verbatim (quantiles exact), long streams compress into a fixed
    number of logarithmic cells while count/sum/min/max stay exact.
    """

    __slots__ = ("name", "_digest")

    def __init__(self, name: str) -> None:
        self.name = _require_name(name)
        self._digest = QuantileDigest()

    def observe(self, value: float) -> None:
        self._digest.add(float(value))

    @property
    def count(self) -> int:
        return self._digest.count

    @property
    def total(self) -> float:
        return float(self._digest.total)

    def state_cells(self) -> int:
        """Retained state entries — bounded, unlike the observation count."""
        return self._digest.state_cells()

    def quantile(self, q: float) -> float:
        if self._digest.count == 0:
            raise ConfigurationError(f"histogram {self.name!r} has no observations")
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        return self._digest.quantile(q)

    def summary(self) -> Dict[str, float]:
        """count/sum/min/max/mean plus the :data:`SUMMARY_QUANTILES`."""
        digest = self._digest
        if digest.count == 0:
            return {"count": 0, "sum": 0.0}
        out: Dict[str, float] = {
            "count": digest.count,
            "sum": float(digest.total),
            "min": float(digest.minimum),
            "max": float(digest.maximum),
            "mean": float(digest.mean()),
        }
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}"] = digest.quantile(q)
        return out

    def dump_state(self) -> Dict[str, object]:
        """The backing digest's canonical state (bounded, picklable)."""
        return self._digest.state()

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold a :meth:`dump_state` digest state in."""
        if not isinstance(state, dict):
            raise ConfigurationError(
                f"histogram {self.name!r}: merge_state expects a "
                f"dump_state() dict, got {type(state).__name__}"
            )
        self._digest.merge(QuantileDigest.from_state(state))


class MetricsRegistry:
    """Get-or-create store for all metrics of one run.

    One registry per run (or per experiment sweep). Metric kinds are
    namespaced by name only; re-registering a name with a different
    kind is an error rather than a silent shadow.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------
    def counter(self, name: str) -> Counter:
        self._check_kind(name, "counter")
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        self._check_kind(name, "gauge")
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        self._check_kind(name, "histogram")
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def _check_kind(self, name: str, kind: str) -> None:
        _require_name(name)
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {other_kind}, "
                    f"cannot reuse it as a {kind}"
                )

    # -- one-line emission helpers ------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- timing --------------------------------------------------------
    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Observe the wall-time of a ``with`` block into histogram ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name).observe(time.perf_counter() - start)

    def timed(self, name: str) -> Callable:
        """Decorator form of :meth:`timer`."""

        def decorate(func: Callable) -> Callable:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with self.timer(name):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    # -- worker merge --------------------------------------------------
    def dump_state(self) -> Dict[str, Dict[str, object]]:
        """The registry's mergeable contents as one picklable dict.

        Unlike :meth:`snapshot`, histograms ship their *digest state*
        (not quantile summaries), so a parent registry merging a
        worker's dump via :meth:`merge_state` ends up with the same
        sketch a single registry would hold. Digest states are
        bounded, so each dump stays O(metrics) instead of
        O(observations).
        """
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {
                n: h.dump_state() for n, h in self._histograms.items()
            },
        }

    def merge_state(self, state: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`dump_state` dict from another registry in.

        Counters add, gauges take the incoming value (last write wins,
        matching what sequential emission would leave behind) and
        histograms merge digest states. Used by the device fleet to
        merge per-actor telemetry back into the registry
        the run was given, always in deterministic device order.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, hist_state in state.get("histograms", {}).items():
            self.histogram(name).merge_state(hist_state)

    # -- export --------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The full registry as one nested, JSON-serialisable dict."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def to_jsonl_lines(self) -> List[str]:
        """One JSON object per metric (``{"metric", "kind", ...}``)."""
        lines = []
        for name, counter in sorted(self._counters.items()):
            lines.append(
                json.dumps({"metric": name, "kind": "counter", "value": counter.value})
            )
        for name, gauge in sorted(self._gauges.items()):
            lines.append(
                json.dumps({"metric": name, "kind": "gauge", "value": gauge.value})
            )
        for name, histogram in sorted(self._histograms.items()):
            lines.append(
                json.dumps(
                    {"metric": name, "kind": "histogram", **histogram.summary()}
                )
            )
        return lines

    def to_csv(self) -> str:
        """Flat ``name,kind,field,value`` rows (one per scalar)."""
        rows = ["name,kind,field,value"]
        for name, counter in sorted(self._counters.items()):
            rows.append(f"{name},counter,value,{counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            rows.append(f"{name},gauge,value,{gauge.value}")
        for name, histogram in sorted(self._histograms.items()):
            for field, value in histogram.summary().items():
                rows.append(f"{name},histogram,{field},{value}")
        return "\n".join(rows) + "\n"

    def reset(self) -> None:
        """Drop every registered metric (tests and sweep reuse)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


def timed(registry: Optional[MetricsRegistry], name: str) -> Callable:
    """Registry-optional decorator: no-op when ``registry`` is ``None``.

    Lets module-level code decorate functions unconditionally::

        @timed(metrics, "experiments.load_s")
        def load(): ...
    """

    def decorate(func: Callable) -> Callable:
        if registry is None:
            return func
        return registry.timed(name)(func)

    return decorate
