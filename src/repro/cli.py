"""Command-line interface.

``repro-power list`` shows the experiment catalogue;
``repro-power run <id> [--full] [--seed N]`` executes one experiment
and prints its table/series output. ``--full`` uses the paper's
100-round schedule; the default is the fast smoke schedule.

Observability flags (``run`` and ``report``): ``--log-level``/
``--log-json`` configure the ``repro.*`` structured loggers;
``--metrics-out PATH`` attaches a :class:`~repro.obs.MetricsRegistry`
and :class:`~repro.obs.RoundTracer` to the run via the ambient
:class:`~repro.runspec.RunSpec`, then writes one JSONL file — one
``round_span`` line per federated round followed by a final
``metrics_snapshot`` line; ``--flight-out PATH`` attaches a
:class:`~repro.obs.FlightRecorder` (capacity ``--flight-capacity``,
thinning ``--flight-sample``) and dumps one ``flight_record`` line per
retained control step; ``--profile`` attaches a
:class:`~repro.obs.ScopeProfiler` whose self/cumulative table lands on
stderr and (with ``--metrics-out``) in the metrics snapshot.

``repro-power obs-report trace.jsonl --metrics metrics.jsonl -o
report.md`` turns those artefacts into an offline Markdown run report
(OPP dwell histograms, power-violation rates, convergence curves,
straggler/drift summaries, device-vs-fleet divergence).

Cross-run analytics: ``--events-out PATH`` streams the run's telemetry
events (round spans, fault/guard/quarantine events, run summary) to a
JSONL file as they happen; ``--store PATH`` registers the run in a
persistent SQLite :class:`~repro.obs.store.RunStore` with its config,
per-round series and final summary. ``repro-power obs-diff A B``
compares two runs (metrics JSONL files, or ``--store`` run ids) with
direction-aware regression detection — two same-seed runs must report
zero deltas; ``--fail-on-regression`` exits 5 otherwise.
``repro-power obs-history --store runs.db`` tabulates stored runs and
flags the latest against its history via robust z-scores. Speed is
measured from outside the program by the layer ladder
(``benchmarks/ladder/README.md``), not by a subcommand.

Guardrail flags (``run`` and ``report``): ``--guard`` arms the
device-side safety watchdog (fallback power-cap governor on anomaly),
``--quarantine`` arms the server-side update screen with EWMA
reputations, and ``--churn [SPEC]`` runs the federation under a seeded
join/leave/rejoin membership schedule (default spec:
``leave=0.15,rejoin=0.5,seed=11``). Like every other run option they
become fields of the invocation's one ambient
:class:`~repro.runspec.RunSpec`, picked up by every federated
training run the experiment performs.

Control-plane flags (``run`` and ``report``): ``--async`` reroutes
federated training through the event-driven async control plane
(:mod:`repro.controlplane`) — device registry with seeded heartbeats,
bounded upload buffer with backpressure, deadline-bounded staleness-
weighted aggregation, graceful degradation by live fraction.
``--heartbeat-interval`` sets the modelled beat period,
``--upload-buffer capacity:policy[:deadline]`` the buffer
(policies: ``reject``, ``drop-oldest``, ``block-with-deadline``), and
``--quorum`` the live-fraction floor below which merging stops.

Exit codes: ``0`` success, ``1`` configuration or runtime error,
``2`` usage error (unparseable flags, or ``--async`` combined with an
option the async plane cannot honour: ``--topology``, ``--selection``,
``--quarantine``, ``--churn``), ``3`` injected server kill (resume with
``--checkpoint``/``--resume``),
``4`` the run completed but ended *fully degraded* — every guarded
device finished on its fallback governor, ``5`` the regression gate
failed (``obs-diff --fail-on-regression``),
``6`` the async control plane halted below quorum after writing a
resumable checkpoint (``--async`` with ``--checkpoint``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.errors import (
    ConfigurationError,
    DegradedHaltError,
    ReproError,
    RunKilledError,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    Runner,
    get_experiment,
    list_experiments,
    paper_config,
    smoke_config,
)
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    RoundTracer,
    ScopeProfiler,
    setup_logging,
)
from repro.obs.report import report_from_files
from repro.runspec import BACKEND_NAMES, DEFAULT_BACKEND, RunSpec, ambient


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-power",
        description=(
            "Federated reinforcement learning for power-efficient DVFS "
            "(DATE 2025 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment_id", help="experiment id (see `list`)")
    run_parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full 100-round schedule (slower)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=2025, help="root random seed"
    )
    run_parser.add_argument(
        "--rounds",
        type=int,
        default=0,
        help="override the number of federated rounds (0 keeps the preset)",
    )
    run_parser.add_argument(
        "--steps",
        type=int,
        default=0,
        help="override the steps per round (0 keeps the preset)",
    )
    run_parser.add_argument(
        "--output",
        type=str,
        default="",
        help="also write the experiment output to this file",
    )
    _add_telemetry_flags(run_parser)
    _add_execution_flags(run_parser)
    _add_resilience_flags(run_parser)
    _add_guard_flags(run_parser)
    _add_hier_flags(run_parser)
    _add_controlplane_flags(run_parser)

    report_parser = subparsers.add_parser(
        "report",
        help="run a set of experiments and write one file each to a directory",
    )
    report_parser.add_argument(
        "output_dir", help="directory for the generated artefacts"
    )
    report_parser.add_argument(
        "--experiments",
        nargs="*",
        default=[],
        help="experiment ids to include (default: every paper artefact)",
    )
    report_parser.add_argument(
        "--full", action="store_true", help="use the paper's full schedule"
    )
    report_parser.add_argument(
        "--seed", type=int, default=2025, help="root random seed"
    )
    _add_telemetry_flags(report_parser)
    _add_execution_flags(report_parser)
    _add_resilience_flags(report_parser)
    _add_guard_flags(report_parser)
    _add_hier_flags(report_parser)
    _add_controlplane_flags(report_parser)

    obs_report = subparsers.add_parser(
        "obs-report",
        help="render a Markdown run report from telemetry artefacts",
    )
    obs_report.add_argument(
        "flight_jsonl",
        help="flight-recorder JSONL written by `run --flight-out`",
    )
    obs_report.add_argument(
        "--metrics",
        type=str,
        default="",
        metavar="PATH",
        help="round-span/metrics JSONL written by `run --metrics-out`",
    )
    obs_report.add_argument(
        "--events",
        type=str,
        default="",
        metavar="PATH",
        help=(
            "events JSONL written by `run --events-out`; adds the fired "
            "alerts section to the report"
        ),
    )
    obs_report.add_argument(
        "-o",
        "--output",
        type=str,
        default="",
        metavar="PATH",
        help="write the report here instead of stdout",
    )
    obs_report.add_argument(
        "--power-limit",
        type=float,
        default=None,
        metavar="WATTS",
        help="P_crit to annotate in the report header",
    )
    obs_report.add_argument(
        "--title",
        type=str,
        default="Run report",
        help="report title (default: 'Run report')",
    )

    obs_diff = subparsers.add_parser(
        "obs-diff",
        help=(
            "compare two runs (metrics JSONL files, or --store run ids) "
            "with direction-aware regression detection"
        ),
    )
    obs_diff.add_argument(
        "run_a",
        help="baseline run: metrics JSONL path, or run id with --store",
    )
    obs_diff.add_argument(
        "run_b",
        help="candidate run: metrics JSONL path, or run id with --store",
    )
    obs_diff.add_argument(
        "--store",
        type=str,
        default="",
        metavar="PATH",
        help="RunStore SQLite file; run_a/run_b are then store run ids",
    )
    obs_diff.add_argument(
        "--flight-a",
        type=str,
        default="",
        metavar="PATH",
        help="run A's flight JSONL (adds reward/violation comparison)",
    )
    obs_diff.add_argument(
        "--flight-b",
        type=str,
        default="",
        metavar="PATH",
        help="run B's flight JSONL (adds reward/violation comparison)",
    )
    obs_diff.add_argument(
        "-o",
        "--output",
        type=str,
        default="",
        metavar="PATH",
        help="write the Markdown comparison here instead of stdout",
    )
    obs_diff.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 5 when run B regressed against run A",
    )
    obs_diff.add_argument(
        "--flag-timing",
        action="store_true",
        help=(
            "also flag wall-time/throughput regressions beyond 25%% "
            "(off by default: wall-clock noise is not a finding)"
        ),
    )
    obs_diff.add_argument(
        "--title",
        type=str,
        default="Run diff",
        help="comparison title (default: 'Run diff')",
    )

    obs_history = subparsers.add_parser(
        "obs-history",
        help="tabulate stored runs and flag regressions against history",
    )
    obs_history.add_argument(
        "--store",
        type=str,
        required=True,
        metavar="PATH",
        help="RunStore SQLite file to read run history from",
    )
    obs_history.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="show at most the last N entries (default: 20)",
    )
    obs_history.add_argument(
        "--z-threshold",
        type=float,
        default=3.5,
        metavar="Z",
        help="robust z-score beyond which a metric is flagged (default: 3.5)",
    )
    obs_history.add_argument(
        "-o",
        "--output",
        type=str,
        default="",
        metavar="PATH",
        help="write the Markdown history here instead of stdout",
    )

    obs_watch = subparsers.add_parser(
        "obs-watch",
        help=(
            "live fleet dashboard: tail a run's events JSONL (or poll "
            "a --store run) and re-render the rollup in place"
        ),
    )
    obs_watch.add_argument(
        "events",
        nargs="?",
        default="",
        help="events JSONL being written by `run --events-out`",
    )
    obs_watch.add_argument(
        "--store",
        type=str,
        default="",
        metavar="PATH",
        help="poll a RunStore SQLite file instead of tailing a JSONL",
    )
    obs_watch.add_argument(
        "--run",
        type=int,
        default=None,
        metavar="ID",
        help="store run id to watch (required with --store)",
    )
    obs_watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="poll/re-render interval (default: 1.0)",
    )
    obs_watch.add_argument(
        "--once",
        action="store_true",
        help=(
            "render one snapshot of whatever is available and exit; "
            "wall-clock fields are dropped so the output is identical "
            "across execution backends (the scripting/CI mode)"
        ),
    )
    obs_watch.add_argument(
        "--max-wait",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="stop live watching after SECONDS (0 = until run_summary)",
    )
    obs_watch.add_argument(
        "-o",
        "--output",
        type=str,
        default="",
        metavar="PATH",
        help="write the rendered snapshot here instead of stdout",
    )
    return parser


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        type=str,
        default="",
        metavar="LEVEL",
        help="enable repro.* structured logging at LEVEL (debug, info, ...)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="format log records as JSON lines (implies --log-level info)",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default="",
        metavar="PATH",
        help=(
            "attach a metrics registry and round tracer to the run and "
            "write round spans plus a final metrics snapshot to PATH as JSONL"
        ),
    )
    parser.add_argument(
        "--flight-out",
        type=str,
        default="",
        metavar="PATH",
        help=(
            "attach a device-level flight recorder and write one JSON line "
            "per retained control step to PATH"
        ),
    )
    parser.add_argument(
        "--flight-capacity",
        type=int,
        default=65536,
        metavar="N",
        help="flight-recorder ring-buffer capacity (default: 65536 records)",
    )
    parser.add_argument(
        "--flight-sample",
        type=int,
        default=1,
        metavar="N",
        help="keep every Nth control step per device (default: 1, keep all)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "attach a hot-path scope profiler; prints the self/cumulative "
            "table to stderr and exports it into --metrics-out if given"
        ),
    )
    parser.add_argument(
        "--events-out",
        type=str,
        default="",
        metavar="PATH",
        help=(
            "stream telemetry events (round spans, fault/guard/quarantine "
            "events, run summary) to PATH as JSONL while the run executes"
        ),
    )
    parser.add_argument(
        "--store",
        type=str,
        default="",
        metavar="PATH",
        help=(
            "register this run in a persistent SQLite RunStore at PATH "
            "(config, streamed events, per-round series, final summary) "
            "for later obs-diff/obs-history comparison"
        ),
    )
    parser.add_argument(
        "--run-name",
        type=str,
        default="",
        metavar="NAME",
        help="run name recorded in --store (default: the experiment id)",
    )
    parser.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve /metrics (Prometheus text), /health and /rollup.json "
            "on 127.0.0.1:PORT while the run executes (0 picks a free "
            "port; implies a live events pipeline)"
        ),
    )
    parser.add_argument(
        "--alerts",
        type=str,
        default="",
        metavar="SPEC",
        help=(
            "comma-separated alert rules ('metric>=threshold[@window]') "
            "or a JSON rule file; triggered alerts flow through the "
            "event stream and into obs-report (implies a live events "
            "pipeline)"
        ),
    )


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        type=str,
        default=DEFAULT_BACKEND,
        choices=BACKEND_NAMES,
        help=(
            "execution backend for the training drivers: serial (default), "
            "thread, process (persistent per-device workers) or batched "
            "(the fleet stacked into single numpy calls); results are "
            "bit-identical across backends"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="max concurrent device workers (0 = one per device)",
    )


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        type=str,
        default="",
        metavar="SPEC",
        help=(
            "inject seeded faults into the federated runs: a plan spec "
            "like 'drop=0.1,fail=0.2,seed=3,kill=5' or the path of a "
            "saved FaultPlan JSON (see repro.faults.FaultPlan.from_spec)"
        ),
    )
    parser.add_argument(
        "--aggregator",
        type=str,
        default="",
        metavar="NAME",
        help=(
            "robust aggregation rule: mean (default), median, "
            "trimmed_mean[:FRACTION], or norm_clip[:NORM]"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        type=str,
        default="",
        metavar="PATH",
        help="checkpoint the federated run state to PATH after each due round",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint every N rounds (default: 1, with --checkpoint)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from the --checkpoint snapshot instead of starting "
            "over; the finished run is bit-identical to an uninterrupted one"
        ),
    )
    parser.add_argument(
        "--retry-attempts",
        type=int,
        default=3,
        metavar="N",
        help=(
            "transport retry budget per send when faults are injected "
            "(default: 3; only active with --faults)"
        ),
    )


def _add_guard_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--guard",
        action="store_true",
        help=(
            "arm the device-side safety watchdog: anomalous agents are "
            "swapped onto a power-cap fallback governor and re-admitted "
            "only after a clean probation (see repro.guard.watchdog)"
        ),
    )
    parser.add_argument(
        "--quarantine",
        action="store_true",
        help=(
            "screen incoming federated updates before aggregation and "
            "quarantine repeat offenders for a cooldown "
            "(see repro.guard.quarantine)"
        ),
    )
    parser.add_argument(
        "--churn",
        type=str,
        nargs="?",
        const="default",
        default="",
        metavar="SPEC",
        help=(
            "run under a seeded join/leave/rejoin membership schedule; "
            "SPEC is a plan like 'leave=0.15,rejoin=0.5,seed=11' "
            f"(bare --churn uses that default; see "
            f"repro.guard.ChurnPlan.from_spec)"
        ),
    )


def _add_hier_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        type=str,
        default="",
        metavar="SPEC",
        help=(
            "run the federation over a multi-tier aggregation tree: "
            "'flat', key=value pairs like 'edges=4,regions=2,seed=7' or "
            "the path of a saved topology JSON "
            "(see repro.hier.FleetTopology.from_spec)"
        ),
    )
    parser.add_argument(
        "--selection",
        type=str,
        default="",
        metavar="SPEC",
        help=(
            "client-selection policy for partial participation: "
            "'uniform[:FRACTION]', 'pareto[:FRACTION[:ALPHA]]' or "
            "'stratified[:FRACTION]' (stratified needs --topology; see "
            "repro.hier.build_selection_policy)"
        ),
    )


class _UsageError(Exception):
    """Flags that parse one by one but cannot be combined (exit 2)."""


def _add_controlplane_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--async",
        dest="async_mode",
        action="store_true",
        help=(
            "run federated training through the event-driven async "
            "control plane (device registry, heartbeats, bounded upload "
            "buffer, graceful degradation; see repro.controlplane)"
        ),
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="modelled heartbeat period for the device registry (default 1.0)",
    )
    parser.add_argument(
        "--upload-buffer",
        type=str,
        default="32:drop-oldest",
        metavar="SPEC",
        help=(
            "bounded upload buffer as 'capacity:policy[:deadline_s]'; "
            "policies: reject, drop-oldest, block-with-deadline "
            "(default 32:drop-oldest)"
        ),
    )
    parser.add_argument(
        "--quorum",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help=(
            "live-fraction floor for the degradation ladder's quorum "
            "mode; below it the plane stops merging and may halt with "
            "exit code 6 (default 0.5)"
        ),
    )


def _guard_exit_code(default: int = 0) -> int:
    """``default``, or 4 when the guarded run ended fully degraded."""
    from repro.guard import consume_guard_report

    report = consume_guard_report()
    if report is None:
        return default
    if report.quarantined_devices:
        print(
            "[guard] quarantined devices: "
            + ", ".join(report.quarantined_devices)
            + f" ({report.quarantine_events} exclusion events)",
            file=sys.stderr,
        )
    if report.fully_degraded:
        states = ", ".join(
            f"{name}={state}"
            for name, state in sorted(report.device_states.items())
        )
        print(
            f"run fully degraded: every guarded device ended on its "
            f"fallback governor ({states})",
            file=sys.stderr,
        )
        return 4
    return default


def _run_spec_from_args(args) -> RunSpec:
    """The run description this invocation's flags add up to, sinks apart.

    (The sinks are attached once built — their header records carry this
    spec's fingerprint.) Unset flags stay ``None``, so the spec describes
    — and fingerprints — exactly the options that were given.
    """
    from repro.faults import CheckpointConfig, RetryPolicy
    from repro.guard import DEFAULT_CHURN_SPEC

    checkpoint = None
    if args.checkpoint:
        _require_parent_dir("--checkpoint", args.checkpoint)
        checkpoint = CheckpointConfig(
            path=args.checkpoint, every=args.checkpoint_every, resume=args.resume
        )
    elif args.resume:
        raise ConfigurationError("--resume requires --checkpoint PATH")
    controlplane = None
    if args.async_mode:
        from repro.controlplane import ControlPlaneConfig, parse_buffer_spec

        controlplane = ControlPlaneConfig(
            enabled=True,
            heartbeat_interval_s=args.heartbeat_interval,
            quorum=args.quorum,
            **parse_buffer_spec(args.upload_buffer),
        )
    spec = RunSpec(
        backend=args.backend,
        workers=args.workers or None,
        faults=args.faults or None,
        aggregator=args.aggregator or None,
        retry=(
            RetryPolicy(max_attempts=args.retry_attempts) if args.faults else None
        ),
        checkpoint=checkpoint,
        guard=args.guard or None,
        quarantine=args.quarantine or None,
        churn=(DEFAULT_CHURN_SPEC if args.churn == "default" else args.churn)
        or None,
        topology=args.topology or None,
        selection=args.selection or None,
        controlplane=controlplane,
    )
    if controlplane is not None:
        from repro.controlplane.driver import refuse_unhonoured

        try:
            refuse_unhonoured(spec)
        except ConfigurationError as error:
            raise _UsageError(f"--async: {error}") from None
    return spec


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Piping into `head` and friends closes stdout early; that is
        # not an error worth a traceback.
        return 0
    except RunKilledError as error:
        # An injected mid-run server kill is a scheduled chaos event,
        # not a configuration error — distinct exit code so scripts can
        # follow up with --resume.
        print(f"run killed: {error}", file=sys.stderr)
        return 3
    except DegradedHaltError as error:
        # The async control plane fell below quorum and halted after
        # writing a checkpoint; scripts can acknowledge the dead
        # devices and follow up with --resume.
        print(f"halt-degraded: {error}", file=sys.stderr)
        if error.checkpoint_path:
            print(
                f"resumable checkpoint: {error.checkpoint_path}",
                file=sys.stderr,
            )
        return 6
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "list":
        print(list_experiments())
        return 0
    if args.command == "obs-report":
        return _run_obs_report(args)
    if args.command == "obs-diff":
        return _run_obs_diff(args)
    if args.command == "obs-history":
        return _run_obs_history(args)
    if args.command == "obs-watch":
        return _run_obs_watch(args)
    _setup_logging_from_args(args)
    if args.command == "report":
        return _run_report(args)
    spec = get_experiment(args.experiment_id)
    config = paper_config(args.seed) if args.full else smoke_config(args.seed)
    if args.rounds or args.steps:
        config = config.scaled(
            rounds=args.rounds or config.num_rounds,
            steps_per_round=args.steps or config.steps_per_round,
        )
    options = _run_spec_from_args(args)
    sinks = _build_sinks(args, spec.id, config, options)
    with ambient(options, **sinks.spec_fields()):
        output = Runner(config).text(spec.id)
    print(output)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output + "\n")
    _write_sink_outputs(args, sinks)
    return _guard_exit_code()


def _setup_logging_from_args(args) -> None:
    if args.log_level or args.log_json:
        try:
            setup_logging(
                level=args.log_level or "INFO", json_output=args.log_json
            )
        except ValueError as error:
            raise ConfigurationError(str(error)) from error


class _Sinks:
    """The telemetry sinks one CLI invocation attaches (any may be None)."""

    def __init__(
        self,
        metrics,
        tracer,
        flight,
        profiler,
        events=None,
        store=None,
        run_id=None,
        header=None,
        rollup=None,
        server=None,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.flight = flight
        self.profiler = profiler
        self.events = events
        self.store = store
        self.run_id = run_id
        self.header = header
        self.rollup = rollup
        self.server = server

    def spec_fields(self) -> dict:
        """The five sinks that are :class:`RunSpec` fields, by field name."""
        return {
            name: getattr(self, name)
            for name in ("metrics", "tracer", "flight", "profiler", "events")
        }


def _telemetry_header(args, experiment: str, config, options: RunSpec) -> dict:
    """The provenance record stamped first into every telemetry file.

    The fingerprint hashes what ``options`` describes (faults,
    aggregator, guard, hierarchy, control plane, …) with the experiment,
    its config (seed, rounds, steps) and the backend, so ``obs-history``
    and ``obs-diff`` compare a run only with runs of the same options.
    """
    from repro import __version__
    from repro.obs.sink import TELEMETRY_SCHEMA_VERSION

    return {
        "type": "header",
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "run_fingerprint": options.fingerprint(
            experiment=experiment, config=config, backend=args.backend
        ),
        "repro_version": __version__,
        "seed": args.seed,
        "backend": args.backend,
        "experiment": experiment,
    }


def _build_sinks(args, experiment: str, config, options: RunSpec) -> _Sinks:
    metrics = tracer = flight = profiler = None
    events = store = run_id = rollup = server = None
    events_out = getattr(args, "events_out", "")
    store_path = getattr(args, "store", "")
    serve_port = getattr(args, "serve_metrics", None)
    alerts_spec = getattr(args, "alerts", "")
    # Serving live metrics or evaluating alert rules needs the event
    # stream even when no file/store sink was asked for.
    want_events = bool(
        events_out or store_path or serve_port is not None or alerts_spec
    )
    # Events and the store need round spans (tracer), train-step counts
    # (metrics) and reward curves (flight) to be useful — attach them
    # implicitly, exactly as --metrics-out/--flight-out would.
    if args.metrics_out or want_events:
        if args.metrics_out:
            _require_parent_dir("--metrics-out", args.metrics_out)
        metrics, tracer = MetricsRegistry(), RoundTracer()
    if args.flight_out or store_path:
        if args.flight_out:
            _require_parent_dir("--flight-out", args.flight_out)
        flight = FlightRecorder(
            capacity=args.flight_capacity, sample_every=args.flight_sample
        )
    if args.profile:
        profiler = ScopeProfiler()
    header = None
    if metrics is not None or flight is not None or want_events:
        header = _telemetry_header(args, experiment, config, options)
    if want_events:
        from repro.obs.sink import EventPipeline, JsonlSink, SqliteSink

        event_sinks = []
        if events_out:
            _require_parent_dir("--events-out", events_out)
            jsonl_sink = JsonlSink(events_out)
            jsonl_sink.emit(header)  # header is always the first line
            event_sinks.append(jsonl_sink)
        if store_path:
            from repro.obs.store import RunStore

            _require_parent_dir("--store", store_path)
            store = RunStore(store_path)
            run_id = store.register_run(
                name=getattr(args, "run_name", "") or experiment,
                fingerprint=header["run_fingerprint"],
                seed=args.seed,
                backend=args.backend,
                repro_version=header["repro_version"],
                config={
                    "experiment": experiment,
                    "seed": args.seed,
                    "backend": args.backend,
                    "rounds": config.num_rounds,
                    "steps_per_round": config.steps_per_round,
                    "spec": options.describe(),
                },
            )
            event_sinks.append(SqliteSink(store, run_id))
        from repro.obs.rollup import FleetRollup

        alert_engine = None
        if alerts_spec:
            from repro.obs.alerts import AlertEngine, parse_alert_specs

            alert_engine = AlertEngine(parse_alert_specs(alerts_spec))
        rollup = FleetRollup(alerts=alert_engine)
        rollup.emit(header)  # same first row the JSONL sink sees
        event_sinks.append(rollup)
        events = EventPipeline(sinks=event_sinks)
        rollup.bind(events)
        if serve_port is not None:
            from repro.obs.exposition import MetricsServer

            server = MetricsServer(
                metrics=metrics, rollup=rollup, port=serve_port
            )
            server.start()
            print(f"[obs] serving metrics on {server.url}", file=sys.stderr)
    return _Sinks(
        metrics,
        tracer,
        flight,
        profiler,
        events=events,
        store=store,
        run_id=run_id,
        header=header,
        rollup=rollup,
        server=server,
    )


def _require_parent_dir(flag: str, path: str) -> None:
    # Fail before the run, not after: a bad path discovered only at
    # dump time would discard the entire run's telemetry.
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigurationError(f"{flag} directory does not exist: {parent!r}")


def _write_sink_outputs(args, sinks: _Sinks) -> None:
    if sinks.profiler is not None:
        if sinks.metrics is not None:
            sinks.profiler.export_to(sinks.metrics)
        print(sinks.profiler.format_table(), file=sys.stderr)
    if args.metrics_out:
        _write_metrics_jsonl(
            args.metrics_out, sinks.metrics, sinks.tracer, sinks.header
        )
    if args.flight_out:
        lines = sinks.flight.to_jsonl_lines()
        with open(args.flight_out, "w") as handle:
            if sinks.header is not None:
                handle.write(json.dumps(sinks.header) + "\n")
            if lines:
                handle.write("\n".join(lines) + "\n")
        dropped = sinks.flight.records_dropped
        suffix = f" ({dropped} evicted)" if dropped else ""
        print(
            f"[telemetry] {len(lines)} flight records{suffix}"
            f" -> {args.flight_out}",
            file=sys.stderr,
        )
    if sinks.server is not None:
        sinks.server.stop()
    if sinks.events is not None:
        sinks.events.close()
        if getattr(args, "events_out", ""):
            print(
                f"[telemetry] {sinks.events.events_emitted} events"
                f" -> {args.events_out}",
                file=sys.stderr,
            )
    if sinks.rollup is not None:
        if sinks.flight is not None:
            sinks.rollup.ingest_flight(sinks.flight)
        if sinks.metrics is not None:
            sinks.rollup.ingest_metrics_state(sinks.metrics.dump_state())
        if sinks.store is not None:
            sinks.rollup.persist(sinks.store, sinks.run_id)
        if sinks.rollup.alerts_total:
            print(
                f"[obs] {sinks.rollup.alerts_total} alert(s) fired",
                file=sys.stderr,
            )
    if sinks.store is not None:
        summary = sinks.store.ingest_telemetry(
            sinks.run_id,
            tracer=sinks.tracer,
            flight=sinks.flight,
            metrics=sinks.metrics,
        )
        sinks.store.close()
        print(
            f"[store] run {sinks.run_id} finished in {args.store}"
            f" ({len(summary)} summary metrics)",
            file=sys.stderr,
        )


def _write_metrics_jsonl(
    path: str,
    metrics: MetricsRegistry,
    tracer: RoundTracer,
    header=None,
) -> None:
    """Header, one ``round_span`` line per round, one ``metrics_snapshot``."""
    lines = tracer.to_jsonl_lines()
    lines.append(
        json.dumps({"type": "metrics_snapshot", **metrics.snapshot()})
    )
    if header is not None:
        lines.insert(0, json.dumps(header))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(
        f"[telemetry] {len(lines) - 2} round spans + metrics snapshot -> {path}",
        file=sys.stderr,
    )


def _run_obs_report(args) -> int:
    """Render the offline run report from telemetry artefacts."""
    for path in filter(None, [args.flight_jsonl, args.metrics, args.events]):
        if not os.path.isfile(path):
            raise ConfigurationError(f"telemetry file does not exist: {path!r}")
    text = report_from_files(
        args.flight_jsonl,
        metrics_path=args.metrics or None,
        power_limit_w=args.power_limit,
        title=args.title,
        events_path=args.events or None,
    )
    if args.output:
        _require_parent_dir("--output", args.output)
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"[obs-report] report -> {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _run_obs_watch(args) -> int:
    """Tail an events stream (file or store) and render the fleet rollup."""
    from repro.obs.watch import watch

    if bool(args.events) == bool(args.store):
        raise ConfigurationError(
            "obs-watch needs exactly one source: an events JSONL "
            "or --store PATH --run ID"
        )
    handle = None
    if args.output:
        _require_parent_dir("--output", args.output)
        handle = open(args.output, "w")
    try:
        kwargs = dict(
            once=args.once,
            interval_s=args.interval,
            deterministic=args.once,
            max_wait_s=args.max_wait or None,
            out=handle,
        )
        if args.store:
            if not os.path.isfile(args.store):
                raise ConfigurationError(
                    f"run store does not exist: {args.store!r}"
                )
            if args.run is None:
                raise ConfigurationError("--store requires --run ID")
            from repro.obs.store import RunStore

            with RunStore(args.store) as store:
                watch(store=store, run_id=args.run, **kwargs)
        else:
            if args.once and not os.path.isfile(args.events):
                raise ConfigurationError(
                    f"events file does not exist: {args.events!r}"
                )
            watch(events_path=args.events, **kwargs)
    finally:
        if handle is not None:
            handle.close()
    if args.output:
        print(f"[obs-watch] snapshot -> {args.output}", file=sys.stderr)
    return 0


def _run_obs_diff(args) -> int:
    """Compare two runs and render the Markdown diff; 5 on regression."""
    from repro.obs.diff import (
        diff_runs,
        format_diff_markdown,
        format_reward_curves,
        run_metrics_from_files,
        run_metrics_from_store,
    )

    if args.store:
        from repro.obs.store import RunStore

        if not os.path.isfile(args.store):
            raise ConfigurationError(
                f"run store does not exist: {args.store!r}"
            )
        try:
            id_a, id_b = int(args.run_a), int(args.run_b)
        except ValueError as error:
            raise ConfigurationError(
                "with --store, run_a and run_b must be store run ids"
            ) from error
        with RunStore(args.store) as store:
            a = run_metrics_from_store(store, id_a)
            b = run_metrics_from_store(store, id_b)
    else:
        for path in filter(
            None, [args.run_a, args.run_b, args.flight_a, args.flight_b]
        ):
            if not os.path.isfile(path):
                raise ConfigurationError(
                    f"telemetry file does not exist: {path!r}"
                )
        a = run_metrics_from_files(
            args.run_a, flight_path=args.flight_a or None
        )
        b = run_metrics_from_files(
            args.run_b, flight_path=args.flight_b or None
        )
    diff = diff_runs(a, b, flag_timing=args.flag_timing)
    text = format_diff_markdown(diff, title=args.title)
    curves = format_reward_curves(a, b)
    if curves:
        text += "\n" + curves
    if args.output:
        _require_parent_dir("--output", args.output)
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"[obs-diff] comparison -> {args.output}", file=sys.stderr)
    else:
        print(text)
    for warning in diff.provenance_warnings:
        print(f"[obs-diff] warning: {warning}", file=sys.stderr)
    if args.fail_on_regression and diff.regressions:
        for row in diff.regressions:
            print(
                f"[obs-diff] REGRESSION — {row.metric}: {row.a:.6g}"
                f" -> {row.b:.6g} ({row.direction} is better)",
                file=sys.stderr,
            )
        return 5
    return 0


def _run_obs_history(args) -> int:
    """Tabulate stored runs + regression flags."""
    from repro.obs.diff import format_history_markdown
    from repro.obs.regress import detect_regressions
    from repro.obs.store import RunStore

    if not os.path.isfile(args.store):
        raise ConfigurationError(f"run store does not exist: {args.store!r}")
    with RunStore(args.store) as store:
        runs = store.runs()[-args.limit :]
    finished = [run for run in runs if run.get("summary")]
    flags = []
    if len(finished) >= 2:
        flags = detect_regressions(
            [run["summary"] for run in finished[:-1]],
            finished[-1]["summary"],
            z_threshold=args.z_threshold,
        )
    text = format_history_markdown(
        runs, flags, title=f"Run history ({args.store})"
    )
    if args.output:
        _require_parent_dir("--output", args.output)
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"[obs-history] -> {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _run_report(args) -> int:
    """Run the selected experiments, one output file per artefact."""
    import pathlib

    config = paper_config(args.seed) if args.full else smoke_config(args.seed)
    experiment_ids = args.experiments or [
        spec.id
        for spec in EXPERIMENTS.values()
        if spec.paper_artifact != "extension"
    ]
    output_dir = pathlib.Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    options = _run_spec_from_args(args)
    sinks = _build_sinks(args, "report", config, options)
    with ambient(options, **sinks.spec_fields()):
        # One runner: artefacts needing the same training run share it.
        runner = Runner(config)
        for experiment_id in experiment_ids:
            spec = get_experiment(experiment_id)
            print(f"running {experiment_id} ({spec.paper_artifact}) ...")
            text = runner.text(experiment_id)
            path = output_dir / f"{experiment_id}.txt"
            path.write_text(text + "\n")
            print(f"  -> {path}")
    _write_sink_outputs(args, sinks)
    return _guard_exit_code()


if __name__ == "__main__":
    sys.exit(main())
