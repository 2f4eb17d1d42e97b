"""Observability layer: logging, metrics, tracing, flight recording,
profiling, offline run reports, streaming event sinks, cross-run
regression analytics and live fleet monitoring.

Eleven pillars, all stdlib+numpy only:

* :mod:`repro.obs.logging` — namespaced ``repro.*`` loggers with
  ``key=value`` or JSON formatting (:func:`setup_logging`,
  :func:`get_logger`);
* :mod:`repro.obs.metrics` — an in-process :class:`MetricsRegistry`
  (counters, gauges, histograms with quantile summaries, timers) with
  dict/JSONL/CSV exporters;
* :mod:`repro.obs.tracing` — a :class:`RoundTracer` producing one
  :class:`RoundSpan` per federated round with per-phase wall-time,
  transport bytes, stragglers and global-model drift;
* :mod:`repro.obs.flight` — a bounded per-control-step
  :class:`FlightRecorder` capturing device-level behaviour (state
  features, chosen OPP, exploration flag, reward, running ``P_crit``
  violations, thermal state, agent loss);
* :mod:`repro.obs.profile` — a hierarchical :class:`ScopeProfiler`
  (``with profile("agent.act")``) with self/cumulative tables plus an
  opt-in :func:`cprofile_capture` wrapper;
* :mod:`repro.obs.report` — offline Markdown run reports generated
  from flight-recorder and metrics JSONL artefacts
  (:func:`generate_report`, the ``obs-report`` CLI subcommand);
* :mod:`repro.obs.sink` — the streaming half: an :class:`EventPipeline`
  of pluggable :class:`TelemetrySink` backends (:class:`JsonlSink`,
  :class:`SqliteSink`, :class:`EventBuffer`, :class:`FanoutSink`)
  carrying round spans, fault/guard/quarantine events and run
  summaries out of a live run, merge-compatible with the parallel
  engine's per-actor telemetry;
* :mod:`repro.obs.store` — the persistent cross-run half: a
  SQLite-backed :class:`RunStore` registering runs by fingerprint with
  config, per-round series, events and final summaries;
* :mod:`repro.obs.diff` / :mod:`repro.obs.regress` — cross-run
  comparison (:func:`diff_runs`, the ``obs-diff`` subcommand) and
  regression detection over run history (robust z-scores,
  :func:`detect_regressions`);
* :mod:`repro.obs.sketch` / :mod:`repro.obs.rollup` — the live,
  constant-memory half: mergeable bounded estimators
  (:class:`QuantileDigest`, :class:`EwmaEstimator`) backing the
  :class:`Histogram`, and a streaming :class:`FleetRollup` turning
  the event stream into per-round fleet aggregates in O(1) memory per
  device;
* :mod:`repro.obs.alerts` / :mod:`repro.obs.exposition` /
  :mod:`repro.obs.watch` — live delivery: spec-string threshold/trend
  rules (:class:`AlertEngine`) emitting ``alert`` events, an opt-in
  :class:`MetricsServer` exposing ``/metrics`` (Prometheus text),
  ``/health`` and ``/rollup.json`` (``run --serve-metrics``), and the
  ``obs-watch`` terminal dashboard (:func:`watch`) tailing an events
  JSONL or polling a :class:`RunStore`.

Instrumentation contract: every instrumented call site holds an
``Optional`` sink and emits behind one ``is not None`` check, so a run
with no sinks attached pays no measurable overhead (enforced by
``benchmarks/test_bench_overhead.py``). Timing values never flow into
seeded or asserted quantities, so telemetry cannot perturb
reproducibility. The sinks are fields of the run's
:class:`~repro.runspec.RunSpec`, passed to the drivers like every other
option; the CLI attaches them by setting them on the base spec its
:class:`~repro.experiments.registry.Runner` lays every run over.
"""

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    format_alerts_markdown,
    parse_alert_specs,
)
from repro.obs.diff import (
    RunDiff,
    RunMetrics,
    diff_runs,
    format_diff_markdown,
    format_history_markdown,
    format_reward_curves,
    run_metrics_from_files,
    run_metrics_from_store,
    run_scalars,
)
from repro.obs.exposition import MetricsServer, prometheus_text
from repro.obs.flight import FlightRecord, FlightRecorder
from repro.obs.logging import (
    JsonFormatter,
    KeyValueFormatter,
    get_logger,
    reset_logging,
    setup_logging,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    timed,
)
from repro.obs.profile import (
    CProfileReport,
    ScopeProfiler,
    ScopeStats,
    cprofile_capture,
    profile,
)
from repro.obs.regress import (
    RegressionFlag,
    detect_regressions,
    robust_z,
)
from repro.obs.report import (
    generate_report,
    load_metrics_jsonl,
    load_telemetry_jsonl,
    report_from_files,
)
from repro.obs.rollup import ROLLUP_SERIES, FleetRollup
from repro.obs.sink import (
    TELEMETRY_SCHEMA_VERSION,
    EventBuffer,
    EventPipeline,
    FanoutSink,
    JsonlSink,
    SqliteSink,
    TelemetrySink,
    iter_jsonl_rows,
)
from repro.obs.sketch import EwmaEstimator, QuantileDigest
from repro.obs.store import (
    RUN_STORE_SCHEMA_VERSION,
    RunStore,
    ingest_training_result,
)
from repro.obs.tracing import (
    PHASE_AGGREGATE,
    PHASE_BROADCAST,
    PHASE_LOCAL_TRAIN,
    PHASE_UPLOAD,
    PhaseSpan,
    RoundSpan,
    RoundTracer,
)
from repro.obs.watch import JsonlFollower, StoreFollower, watch

__all__ = [
    "AlertEngine",
    "AlertRule",
    "CProfileReport",
    "Counter",
    "EventBuffer",
    "EventPipeline",
    "EwmaEstimator",
    "FanoutSink",
    "FleetRollup",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "JsonlFollower",
    "JsonlSink",
    "KeyValueFormatter",
    "MetricsRegistry",
    "MetricsServer",
    "PHASE_AGGREGATE",
    "PHASE_BROADCAST",
    "PHASE_LOCAL_TRAIN",
    "PHASE_UPLOAD",
    "PhaseSpan",
    "QuantileDigest",
    "ROLLUP_SERIES",
    "RUN_STORE_SCHEMA_VERSION",
    "RegressionFlag",
    "RoundSpan",
    "RoundTracer",
    "RunDiff",
    "RunMetrics",
    "RunStore",
    "ScopeProfiler",
    "ScopeStats",
    "SqliteSink",
    "StoreFollower",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetrySink",
    "cprofile_capture",
    "detect_regressions",
    "diff_runs",
    "format_alerts_markdown",
    "format_diff_markdown",
    "format_history_markdown",
    "format_reward_curves",
    "generate_report",
    "get_logger",
    "ingest_training_result",
    "iter_jsonl_rows",
    "load_metrics_jsonl",
    "load_telemetry_jsonl",
    "parse_alert_specs",
    "profile",
    "prometheus_text",
    "report_from_files",
    "reset_logging",
    "robust_z",
    "run_metrics_from_files",
    "run_metrics_from_store",
    "run_scalars",
    "setup_logging",
    "timed",
    "watch",
]
