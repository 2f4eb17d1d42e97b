"""Command-line interface: ``repro-power``.

Every argument of every subcommand is one :class:`Flag` row of
:data:`COMMANDS`: :func:`build_parser` adds them all, and
:func:`_run_spec_from_args` maps the ``run``/``report`` rows onto
:class:`~repro.runspec.RunSpec` fields. Every exit code is declared in
:mod:`repro.errors` and listed in :data:`EXIT_CODES`. The synopsis, the
flag reference and the exit-code tables of ``docs/api.md`` and
``README.md`` are rendered from these declarations
(``tests/test_cli_docs.py`` checks them and rewrites them when run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import (
    EXIT_FULLY_DEGRADED, EXIT_REGRESSION, ConfigurationError, DegradedHaltError,
    ReproError, RunKilledError, UsageError,
)
from repro.experiments.registry import (
    EXPERIMENTS, Runner, get_experiment, list_experiments, paper_config, smoke_config,
)
from repro.experiments.resolve import check_spec_strings
from repro.guard.context import GuardReport
from repro.obs import (
    FlightRecorder, MetricsRegistry, RoundTracer, ScopeProfiler, setup_logging,
)
from repro.obs.report import report_from_files
from repro.runspec import BACKEND_NAMES, DEFAULT_BACKEND, RunSpec


class Flag(NamedTuple):
    """One argument: what ``add_argument`` takes, plus the ``RunSpec``
    fields it feeds. A ``False`` default makes a ``store_true`` switch;
    a name without a leading dash makes a positional."""

    names: str  # option strings, space-separated
    help: str
    type: Callable = str
    default: Any = None
    metavar: Optional[str] = None
    nargs: Optional[str] = None
    const: Any = None
    choices: Optional[Tuple[str, ...]] = None
    required: bool = False
    dest: Optional[str] = None
    fields: Tuple[str, ...] = ()
    #: Maps the parsed value onto its one field (default: unset -> None).
    to_field: Optional[Callable] = None


def _text(names: str, metavar: str, help: str, **more) -> Flag:
    """A string option that is off while empty."""
    return Flag(names, help, default="", metavar=metavar, **more)


def _switch(names: str, help: str, **more) -> Flag:
    return Flag(names, help, default=False, **more)


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _churn_spec(value: str) -> Optional[str]:
    from repro.guard import DEFAULT_CHURN_SPEC

    return (DEFAULT_CHURN_SPEC if value == "default" else value) or None


_SEED = Flag("--seed", "root random seed", int, 2025)
_EVENTS = ("events", "metrics", "tracer")  # a live event pipeline's sinks

#: The flags ``run`` and ``report`` share, in documentation order; each
#: row names the ``RunSpec`` fields it feeds (for a sink field: the sink
#: it attaches — the store also reads spans, counts and reward curves).
SHARED_FLAGS = (
    # Telemetry.
    _text("--log-level", "LEVEL",
          "enable repro.* structured logging at LEVEL (debug, info, ...)"),
    _switch("--log-json", "format log records as JSON lines (implies --log-level info)"),
    _text("--metrics-out", "PATH",
          "attach a metrics registry and round tracer to the run and write round spans "
          "plus a final metrics snapshot to PATH as JSONL", fields=("metrics", "tracer")),
    _text("--flight-out", "PATH",
          "attach a device-level flight recorder and write one JSON line per retained "
          "control step to PATH", fields=("flight",)),
    Flag("--flight-capacity", "flight-recorder ring-buffer capacity (default: 65536 "
         "records)", int, 65536, metavar="N"),
    Flag("--flight-sample", "keep every Nth control step per device (default: 1, keep "
         "all)", int, 1, metavar="N"),
    _switch("--profile",
            "attach a hot-path scope profiler; prints the self/cumulative table to "
            "stderr and exports it into --metrics-out if given", fields=("profiler",)),
    _text("--events-out", "PATH",
          "stream telemetry events (round spans, fault/guard/quarantine events, run "
          "summary) to PATH as JSONL while the run executes", fields=_EVENTS),
    _text("--store", "PATH",
          "register this run in a persistent SQLite RunStore at PATH (config, streamed "
          "events, per-round series, final summary) for later obs-diff/obs-history "
          "comparison", fields=_EVENTS + ("flight",)),
    _text("--run-name", "NAME", "run name recorded in --store (default: the experiment id)"),
    Flag("--serve-metrics",
         "serve /metrics (Prometheus text), /health and /rollup.json on 127.0.0.1:PORT "
         "while the run executes (0 picks a free port; implies a live events pipeline)",
         int, metavar="PORT", fields=_EVENTS),
    _text("--alerts", "SPEC",
          "comma-separated alert rules ('metric>=threshold[@window]') or a JSON rule "
          "file; triggered alerts flow through the event stream and into obs-report "
          "(implies a live events pipeline)", fields=_EVENTS),
    # Execution.
    Flag("--backend",
         "execution backend for the training drivers: serial (default) or batched "
         "(the fleet stacked into single numpy calls); results are bit-identical "
         "across backends",
         default=DEFAULT_BACKEND, choices=BACKEND_NAMES, fields=("backend",)),
    # Resilience.
    _text("--faults", "SPEC",
          "inject seeded faults into the federated runs: a plan spec like "
          "'drop=0.1,fail=0.2,seed=3,kill=5' or the path of a saved FaultPlan JSON "
          "(see repro.faults.FaultPlan.from_spec)", fields=("faults",)),
    _text("--aggregator", "NAME",
          "robust aggregation rule: mean (default), median, trimmed_mean[:FRACTION], "
          "or norm_clip[:NORM]", fields=("aggregator",)),
    _text("--checkpoint", "PATH",
          "checkpoint the federated run state to PATH after each due round",
          fields=("checkpoint",)),
    Flag("--checkpoint-every", "checkpoint every N rounds (default: 1, with "
         "--checkpoint)", int, 1, metavar="N", fields=("checkpoint",)),
    _switch("--resume",
            "resume from the --checkpoint snapshot instead of starting over; the "
            "finished run is bit-identical to an uninterrupted one",
            fields=("checkpoint",)),
    Flag("--retry-attempts",
         "transport retry budget per send when faults are injected (default: 3; only "
         "active with --faults)", int, 3, metavar="N", fields=("retry",)),
    # Guardrails.
    _switch("--guard",
            "arm the device-side safety watchdog: anomalous agents are swapped onto a "
            "power-cap fallback governor and re-admitted only after a clean probation "
            "(see repro.guard.watchdog)", fields=("guard",)),
    _switch("--quarantine",
            "screen incoming federated updates before aggregation and quarantine "
            "repeat offenders for a cooldown (see repro.guard.quarantine)",
            fields=("quarantine",)),
    _text("--churn", "SPEC",
          "run under a seeded join/leave/rejoin membership schedule; SPEC is a plan "
          "like 'leave=0.15,rejoin=0.5,seed=11' (bare --churn uses that default; see "
          "repro.guard.ChurnPlan.from_spec)",
          nargs="?", const="default", fields=("churn",), to_field=_churn_spec),
    # Hierarchy.
    _text("--topology", "SPEC",
          "run the federation over a multi-tier aggregation tree: 'flat', key=value "
          "pairs like 'edges=4,regions=2,seed=7' or the path of a saved topology JSON "
          "(see repro.hier.FleetTopology.from_spec)", fields=("topology",)),
    _text("--selection", "SPEC",
          "client-selection policy for partial participation: 'uniform[:FRACTION]', "
          "'pareto[:FRACTION[:ALPHA]]' or 'stratified[:FRACTION]' (stratified needs "
          "--topology; see repro.hier.build_selection_policy)", fields=("selection",)),
    # Control plane.
    _switch("--async",
            "run federated training through the event-driven async control plane "
            "(device registry, heartbeats, bounded upload buffer, graceful "
            "degradation; see repro.controlplane)",
            dest="async_mode", fields=("controlplane",)),
    Flag("--heartbeat-interval",
         "modelled heartbeat period for the device registry (default 1.0)",
         float, 1.0, metavar="SECONDS", fields=("controlplane",)),
    Flag("--upload-buffer",
         "bounded upload buffer as 'capacity:policy[:deadline_s]'; policies: reject, "
         "drop-oldest, block-with-deadline (default 32:drop-oldest)",
         default="32:drop-oldest", metavar="SPEC", fields=("controlplane",)),
    Flag("--quorum",
         "live-fraction floor for the degradation ladder's quorum mode; below it the "
         "plane stops merging and may halt with exit code "
         f"{DegradedHaltError.exit_code} (default 0.5)",
         float, 0.5, metavar="FRACTION", fields=("controlplane",)),
)


def _output_flag(what: str) -> Flag:
    return _text("-o --output", "PATH", f"write the {what} here instead of stdout")


#: name -> (help, own flags, whether :data:`SHARED_FLAGS` follow).
COMMANDS = {
    "list": ("list registered experiments", (), False),
    "run": ("run one experiment", (
        Flag("experiment_id", "experiment id (see `list`)"),
        _switch("--full", "use the paper's full 100-round schedule (slower)"),
        _SEED,
        Flag("--rounds", "override the number of federated rounds (0 keeps the "
             "preset)", int, 0),
        Flag("--steps", "override the steps per round (0 keeps the preset)", int, 0),
        Flag("--output", "also write the experiment output to this file", default=""),
    ), True),
    "report": ("run a set of experiments and write one file each to a directory", (
        Flag("output_dir", "directory for the generated artefacts"),
        Flag("--experiments", "experiment ids to include (default: every paper "
             "artefact)", nargs="*", default=[]),
        _switch("--full", "use the paper's full schedule"),
        _SEED,
    ), True),
    "obs-report": ("render a Markdown run report from telemetry artefacts", (
        Flag("flight_jsonl", "flight-recorder JSONL written by `run --flight-out`"),
        _text("--metrics", "PATH",
              "round-span/metrics JSONL written by `run --metrics-out`"),
        _text("--events", "PATH", "events JSONL written by `run --events-out`; adds "
              "the fired alerts section to the report"),
        _output_flag("report"),
        Flag("--power-limit", "P_crit to annotate in the report header", float,
             metavar="WATTS"),
        Flag("--title", "report title (default: 'Run report')", default="Run report"),
    ), False),
    "obs-diff": ("compare two runs (metrics JSONL files, or --store run ids) with "
                 "direction-aware regression detection", (
        Flag("run_a", "baseline run: metrics JSONL path, or run id with --store"),
        Flag("run_b", "candidate run: metrics JSONL path, or run id with --store"),
        _text("--store", "PATH",
              "RunStore SQLite file; run_a/run_b are then store run ids"),
        _text("--flight-a", "PATH",
              "run A's flight JSONL (adds reward/violation comparison)"),
        _text("--flight-b", "PATH",
              "run B's flight JSONL (adds reward/violation comparison)"),
        _output_flag("Markdown comparison"),
        _switch("--fail-on-regression",
                f"exit {EXIT_REGRESSION} when run B regressed against run A"),
        _switch("--flag-timing", "also flag wall-time/throughput regressions beyond "
                "25%% (off by default: wall-clock noise is not a finding)"),
        Flag("--title", "comparison title (default: 'Run diff')", default="Run diff"),
    ), False),
    "obs-history": ("tabulate stored runs and flag regressions against history", (
        Flag("--store", "RunStore SQLite file to read run history from",
             metavar="PATH", required=True),
        Flag("--limit", "show at most the last N entries (default: 20)",
             _at_least_one, 20, metavar="N"),
        Flag("--z-threshold", "robust z-score beyond which a metric is flagged "
             "(default: 3.5)", float, 3.5, metavar="Z"),
        _output_flag("Markdown history"),
    ), False),
    "obs-watch": ("live fleet dashboard: tail a run's events JSONL (or poll a --store "
                  "run) and re-render the rollup in place", (
        Flag("events", "events JSONL being written by `run --events-out`",
             nargs="?", default=""),
        _text("--store", "PATH",
              "poll a RunStore SQLite file instead of tailing a JSONL"),
        Flag("--run", "store run id to watch (required with --store)", int,
             metavar="ID"),
        Flag("--interval", "poll/re-render interval (default: 1.0)", float, 1.0,
             metavar="SECONDS"),
        _switch("--once", "render one snapshot of whatever is available and exit; "
                "wall-clock fields are dropped so the output is identical across "
                "execution backends (the scripting/CI mode)"),
        Flag("--max-wait", "stop live watching after SECONDS (0 = until run_summary)",
             float, 0.0, metavar="SECONDS"),
        _output_flag("rendered snapshot"),
    ), False),
}

#: Every exit code of the command with what it means, in order.
EXIT_CODES = (
    (0, "success"),
    (ReproError.exit_code, "configuration or runtime error (an `error: …` line on "
     "stderr)"),
    (UsageError.exit_code, "usage error: unparseable flags, or `--async` combined with "
     "an option the async plane cannot honour (`--topology`, `--selection`, "
     "`--quarantine`, `--churn`)"),
    (RunKilledError.exit_code, "injected server kill (`--faults kill=R`); rerunning "
     "with `--checkpoint PATH --resume` finishes bit-identical to an uninterrupted run"),
    (EXIT_FULLY_DEGRADED, "the run completed, but every guarded device ended on its "
     "fallback governor"),
    (EXIT_REGRESSION, "regression gate failed (`obs-diff --fail-on-regression`)"),
    (DegradedHaltError.exit_code, "the async control plane halted below quorum; with "
     "`--checkpoint` a resumable checkpoint was written (`--resume` acknowledges the "
     "dead devices and continues on the survivors)"),
)


class _SubcommandParser(argparse.ArgumentParser):
    """Reports unknown arguments itself, under the subcommand's usage
    (its options and their choices), instead of the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _flags(name: str) -> Tuple[Flag, ...]:
    _, own, shared = COMMANDS[name]
    return own + SHARED_FLAGS if shared else own


def _dest(flag: Flag) -> str:
    return flag.dest or flag.names.split()[-1].lstrip("-").replace("-", "_")


#: The :class:`Flag` attributes ``add_argument`` takes as keywords.
_ARGUMENT_KEYS = (
    "type", "default", "metavar", "nargs", "const", "choices", "required", "dest",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-power",
        description=(
            "Federated reinforcement learning for power-efficient DVFS "
            "(DATE 2025 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )
    for name, (help_text, _, _) in COMMANDS.items():
        command = subparsers.add_parser(name, help=help_text)
        for flag in _flags(name):
            switch = flag.default is False
            options = {
                key: getattr(flag, key)
                for key in (("dest",) if switch else _ARGUMENT_KEYS)
                if getattr(flag, key) is not None and getattr(flag, key) is not False
            }
            action = "store_true" if switch else "store"
            command.add_argument(
                *flag.names.split(), help=flag.help, action=action, **options
            )
    return parser


def _checkpoint(args):
    from repro.faults import CheckpointConfig

    if args.checkpoint:
        return CheckpointConfig(
            path=args.checkpoint, every=args.checkpoint_every, resume=args.resume
        )
    if args.resume:
        raise ConfigurationError("--resume requires --checkpoint PATH")
    return None


def _controlplane(args):
    from repro.controlplane import ControlPlaneConfig, parse_buffer_spec

    return ControlPlaneConfig(
        enabled=True,
        heartbeat_interval_s=args.heartbeat_interval,
        quorum=args.quorum,
        **parse_buffer_spec(args.upload_buffer),
    ) if args.async_mode else None


def _retry(args):
    from repro.faults import RetryPolicy

    return RetryPolicy(max_attempts=args.retry_attempts) if args.faults else None


#: The fields several flags add up to; every other field is one flag's.
_COMPOSITE_FIELDS = {
    "checkpoint": _checkpoint, "controlplane": _controlplane, "retry": _retry,
}

#: The ``RunSpec`` fields that hold sinks (built by :func:`_attached`).
_SINK_FIELDS = ("metrics", "tracer", "flight", "profiler", "events")


def _run_spec_from_args(args) -> RunSpec:
    """The run description this invocation's flags add up to, sinks apart.

    (The sinks are attached once built — their header records carry this
    spec's fingerprint.) Unset flags stay ``None``, so the spec describes
    — and fingerprints — exactly the options that were given.
    """
    values = {}
    for flag in SHARED_FLAGS:
        for field in flag.fields:
            if field in values or field in _SINK_FIELDS:
                continue
            if field in _COMPOSITE_FIELDS:
                values[field] = _COMPOSITE_FIELDS[field](args)
            else:
                value = getattr(args, _dest(flag))
                values[field] = flag.to_field(value) if flag.to_field else value or None
    spec = RunSpec(**values)
    check_spec_strings(spec)
    if spec.controlplane is not None:
        from repro.controlplane.driver import refuse_unhonoured

        try:
            refuse_unhonoured(spec)
        except ConfigurationError as error:
            raise UsageError(f"--async: {error}") from None
    return spec


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            print(list_experiments())
            return 0
        return {
            "run": _run_experiment, "report": _run_report,
            "obs-report": _run_obs_report, "obs-diff": _run_obs_diff,
            "obs-history": _run_obs_history, "obs-watch": _run_obs_watch,
        }[args.command](args)
    except BrokenPipeError:
        # Piping into `head` and friends closes stdout early; that is
        # not an error worth a traceback.
        return 0
    except ReproError as error:
        print(f"{error.exit_label}: {error}", file=sys.stderr)
        if getattr(error, "checkpoint_path", ""):
            print(f"resumable checkpoint: {error.checkpoint_path}", file=sys.stderr)
        return error.exit_code


def _require(args, outputs=(), files=(), what: str = "telemetry file") -> None:
    """Fail before any work: the directory of each given output flag's
    path, and each given input file, must exist — a bad path found only
    after the run would discard its output."""
    for flag in outputs:
        path = getattr(args, flag.lstrip("-").replace("-", "_"), "")
        parent = os.path.dirname(os.path.abspath(path))
        if path and not os.path.isdir(parent):
            raise ConfigurationError(f"{flag} directory does not exist: {parent!r}")
    for path in files:
        if path and not os.path.isfile(path):
            raise ConfigurationError(f"{what} does not exist: {path!r}")


def _guard_exit_code(report: Optional[GuardReport]) -> int:
    """0, or :data:`EXIT_FULLY_DEGRADED` when ``report`` (the last
    guarded run's, ``None`` if none ran) ended fully degraded."""
    if report is None:
        return 0
    if report.quarantined_devices:
        print(
            "[guard] quarantined devices: "
            + ", ".join(report.quarantined_devices)
            + f" ({report.quarantine_events} exclusion events)",
            file=sys.stderr,
        )
    if report.fully_degraded:
        states = ", ".join(
            f"{name}={state}" for name, state in sorted(report.device_states.items())
        )
        print(
            f"run fully degraded: every guarded device ended on its "
            f"fallback governor ({states})",
            file=sys.stderr,
        )
        return EXIT_FULLY_DEGRADED
    return 0


def _prepare(args):
    """``run``/``report``: logging, path checks, preset config, run description."""
    if args.log_level or args.log_json:
        try:
            setup_logging(level=args.log_level or "INFO", json_output=args.log_json)
        except ValueError as error:
            raise ConfigurationError(str(error)) from error
    _require(args, ("--output", "--checkpoint", "--metrics-out", "--flight-out",
                    "--events-out", "--store"))
    config = paper_config(args.seed) if args.full else smoke_config(args.seed)
    return config, _run_spec_from_args(args)


def _run_experiment(args) -> int:
    config, options = _prepare(args)
    spec = get_experiment(args.experiment_id)
    if args.rounds or args.steps:
        config = config.scaled(
            rounds=args.rounds or config.num_rounds,
            steps_per_round=args.steps or config.steps_per_round,
        )
    with _attached(args, spec.id, config, options) as base:
        runner = Runner(config, base)
        output = runner.text(spec.id)
    print(output)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output + "\n")
    return _guard_exit_code(runner.guard_report)


def _run_report(args) -> int:
    """Run the selected experiments, one output file per artefact."""
    import pathlib

    config, options = _prepare(args)
    artefacts = [get_experiment(name) for name in args.experiments] or [
        spec for spec in EXPERIMENTS.values() if spec.paper_artifact != "extension"
    ]
    output_dir = pathlib.Path(args.output_dir)
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise ConfigurationError(
            f"cannot create report directory {args.output_dir!r}: {error.strerror}"
        ) from None
    with _attached(args, "report", config, options) as base:
        # One runner: artefacts needing the same training run share it.
        runner = Runner(config, base)
        for spec in artefacts:
            print(f"running {spec.id} ({spec.paper_artifact}) ...")
            path = output_dir / f"{spec.id}.txt"
            path.write_text(runner.text(spec.id) + "\n")
            print(f"  -> {path}")
    return _guard_exit_code(runner.guard_report)


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


@contextmanager
def _attached(
    args, experiment: str, config, options: RunSpec
) -> Iterator[RunSpec]:
    """Build the sinks the flags' rows name; yield ``options`` with them set.

    The yielded spec is the base every run of the block trains under
    (``Runner(config, base)``). The live sinks — event pipeline,
    metrics server, store — are flushed, stopped and closed on every
    exit path, so a killed or halted run keeps the events it emitted. What is written from the
    finished run (``--metrics-out``, ``--flight-out``, the profile
    table, the store's summary) is written only when the block succeeds.
    """
    wanted = {
        field
        for flag in SHARED_FLAGS
        if getattr(args, _dest(flag)) != flag.default
        for field in flag.fields
    }
    alerts = None
    if args.alerts:
        from repro.obs.alerts import AlertEngine, parse_alert_specs

        alerts = AlertEngine(parse_alert_specs(args.alerts))
    build = {
        "metrics": MetricsRegistry,
        "tracer": RoundTracer,
        "profiler": ScopeProfiler,
        "flight": lambda: FlightRecorder(
            capacity=args.flight_capacity, sample_every=args.flight_sample
        ),
    }
    sinks = {name: build[name]() if name in wanted else None for name in build}
    metrics, tracer, flight = sinks["metrics"], sinks["tracer"], sinks["flight"]
    header = None
    if metrics is not None or flight is not None:
        header = _telemetry_header(args, experiment, config, options)
    store = run_id = rollup = None
    with ExitStack() as closing:
        if args.store:
            from repro.obs.store import RunStore

            store = closing.enter_context(RunStore(args.store))
            run_id = store.register_run(
                name=args.run_name or experiment,
                fingerprint=header["run_fingerprint"],
                seed=args.seed,
                backend=args.backend,
                repro_version=header["repro_version"],
                config={
                    "experiment": experiment, "seed": args.seed,
                    "backend": args.backend, "rounds": config.num_rounds,
                    "steps_per_round": config.steps_per_round,
                    "spec": options.describe(),
                },
            )
        with ExitStack() as live:
            if "events" in wanted:
                sinks["events"], rollup = _event_pipeline(
                    args, header, store, run_id, alerts
                )
                live.callback(sinks["events"].close)
            if args.serve_metrics is not None:
                from repro.obs.exposition import MetricsServer

                server = MetricsServer(
                    metrics=metrics, rollup=rollup, port=args.serve_metrics
                )
                server.start()
                live.callback(server.stop)
                print(f"[obs] serving metrics on {server.url}", file=sys.stderr)
            yield replace(options, **sinks)
            if sinks["profiler"] is not None:
                if metrics is not None:
                    sinks["profiler"].export_to(metrics)
                print(sinks["profiler"].format_table(), file=sys.stderr)
            if args.metrics_out:
                spans = tracer.to_jsonl_lines()
                snapshot = {"type": "metrics_snapshot", **metrics.snapshot()}
                _write_jsonl(
                    args.metrics_out, [header, *spans, snapshot],
                    f"{len(spans)} round spans + metrics snapshot",
                )
            if args.flight_out:
                records, dropped = flight.to_jsonl_lines(), flight.records_dropped
                _write_jsonl(
                    args.flight_out, [header, *records],
                    f"{len(records)} flight records"
                    + (f" ({dropped} evicted)" if dropped else ""),
                )
        # The live sinks are flushed and closed; what follows reads them.
        if args.events_out:
            emitted = sinks["events"].events_emitted
            print(f"[telemetry] {emitted} events -> {args.events_out}", file=sys.stderr)
        if rollup is not None:
            if flight is not None:
                rollup.ingest_flight(flight)
            if store is not None:
                rollup.persist(store, run_id)
            if rollup.alerts_total:
                print(f"[obs] {rollup.alerts_total} alert(s) fired", file=sys.stderr)
        if store is not None:
            summary = store.ingest_telemetry(
                run_id, tracer=tracer, flight=flight, metrics=metrics
            )
            print(
                f"[store] run {run_id} finished in {args.store}"
                f" ({len(summary)} summary metrics)",
                file=sys.stderr,
            )


def _event_pipeline(args, header, store, run_id, alerts):
    """The live event pipeline and the fleet rollup bound to it."""
    from repro.obs.rollup import FleetRollup
    from repro.obs.sink import EventPipeline, JsonlSink, SqliteSink

    sinks = []
    if args.events_out:
        sinks.append(JsonlSink(args.events_out))
        sinks[-1].emit(header)  # header is always the first line
    if store is not None:
        sinks.append(SqliteSink(store, run_id))
    rollup = FleetRollup(alerts=alerts)
    rollup.emit(header)  # same first row the JSONL sink sees
    events = EventPipeline(sinks=sinks + [rollup])
    rollup.bind(events)
    return events, rollup


def _write_jsonl(path: str, rows, summary: str) -> None:
    """One line per row (JSON-encoded unless already a line)."""
    lines = [row if isinstance(row, str) else json.dumps(row) for row in rows]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"[telemetry] {summary} -> {path}", file=sys.stderr)


@contextmanager
def _output(args, what: str) -> Iterator[Optional[Any]]:
    """The ``-o`` file (``None``: stdout), announced on stderr once written."""
    if not args.output:
        yield None
        return
    with open(args.output, "w") as handle:
        yield handle
    announce = filter(None, [f"[{args.command}]", what, "->", args.output])
    print(" ".join(announce), file=sys.stderr)


def _emit(args, text: str, what: str) -> None:
    with _output(args, what) as handle:
        if handle is None:
            print(text)
        else:
            handle.write(text)


def _run_obs_report(args) -> int:
    """Render the offline run report from telemetry artefacts."""
    _require(args, ["--output"], [args.flight_jsonl, args.metrics, args.events])
    text = report_from_files(
        args.flight_jsonl,
        metrics_path=args.metrics or None,
        power_limit_w=args.power_limit,
        title=args.title,
        events_path=args.events or None,
    )
    _emit(args, text, "report")
    return 0


def _run_obs_watch(args) -> int:
    """Tail an events stream (file or store) and render the fleet rollup."""
    from repro.obs.store import RunStore
    from repro.obs.watch import watch

    if bool(args.events) == bool(args.store):
        raise ConfigurationError(
            "obs-watch needs exactly one source: an events JSONL "
            "or --store PATH --run ID"
        )
    if args.store:
        _require(args, ["--output"], [args.store], "run store")
        if args.run is None:
            raise ConfigurationError("--store requires --run ID")
    else:
        _require(args, ["--output"], [args.events] if args.once else [], "events file")
    with ExitStack() as stack:
        handle = stack.enter_context(_output(args, "snapshot"))
        source = {"events_path": args.events}
        if args.store:
            source = {"store": stack.enter_context(RunStore(args.store)),
                      "run_id": args.run}
        watch(
            once=args.once,
            interval_s=args.interval,
            deterministic=args.once,
            max_wait_s=args.max_wait or None,
            out=handle,
            **source,
        )
    return 0


def _run_obs_diff(args) -> int:
    """Compare two runs and render the Markdown diff; exits
    :data:`EXIT_REGRESSION` on regression."""
    from repro.obs.diff import (
        diff_runs, format_diff_markdown, format_reward_curves,
        run_metrics_from_files, run_metrics_from_store,
    )
    from repro.obs.store import RunStore

    if args.store:
        _require(args, ["--output"], [args.store], "run store")
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
        inputs = [args.run_a, args.run_b, args.flight_a, args.flight_b]
        _require(args, ["--output"], inputs)
        a = run_metrics_from_files(args.run_a, flight_path=args.flight_a or None)
        b = run_metrics_from_files(args.run_b, flight_path=args.flight_b or None)
    diff = diff_runs(a, b, flag_timing=args.flag_timing)
    text = format_diff_markdown(diff, title=args.title)
    curves = format_reward_curves(a, b)
    if curves:
        text += "\n" + curves
    _emit(args, text, "comparison")
    for warning in diff.provenance_warnings:
        print(f"[obs-diff] warning: {warning}", file=sys.stderr)
    if args.fail_on_regression and diff.regressions:
        for row in diff.regressions:
            print(
                f"[obs-diff] REGRESSION — {row.metric}: {row.a:.6g}"
                f" -> {row.b:.6g} ({row.direction} is better)",
                file=sys.stderr,
            )
        return EXIT_REGRESSION
    return 0


def _run_obs_history(args) -> int:
    """Tabulate stored runs + regression flags."""
    from repro.obs.diff import format_history_markdown
    from repro.obs.regress import detect_regressions
    from repro.obs.store import RunStore

    _require(args, ["--output"], [args.store], "run store")
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
    text = format_history_markdown(runs, flags, title=f"Run history ({args.store})")
    _emit(args, text, "")
    return 0


if __name__ == "__main__":
    sys.exit(main())
