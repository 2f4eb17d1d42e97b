"""Tests for the experiment registry and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.experiments.registry import (
    EXPERIMENTS,
    Runner,
    active_config,
    get_experiment,
    list_experiments,
    paper_config,
    smoke_config,
)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        artifacts = {spec.paper_artifact for spec in EXPERIMENTS.values()}
        for required in ("Table I", "Table II", "Table III", "Fig. 2", "Fig. 3",
                         "Fig. 4", "Fig. 5", "Section IV-C"):
            assert required in artifacts, required

    def test_extensions_registered(self):
        extension_ids = [
            spec.id
            for spec in EXPERIMENTS.values()
            if spec.paper_artifact == "extension"
        ]
        assert len(extension_ids) >= 5

    def test_get_experiment(self):
        assert get_experiment("fig3").id == "fig3"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            get_experiment("fig99")

    def test_list_contains_all_ids(self):
        text = list_experiments()
        for experiment_id in EXPERIMENTS:
            assert experiment_id in text

    def test_table1_runner_output(self):
        text = Runner(smoke_config()).text("table1")
        assert "P_crit" in text and "0.6" in text

    def test_table2_runner_output(self):
        text = Runner(smoke_config()).text("table2")
        assert "water-ns" in text and "ocean, radix" in text

    def test_fig2_runner_output(self):
        text = Runner(smoke_config()).text("fig2")
        assert "Fig. 2" in text


class TestConfigs:
    def test_paper_config_is_table_one(self):
        config = paper_config()
        assert config.num_rounds == 100
        assert config.steps_per_round == 100

    def test_smoke_config_is_shorter(self):
        config = smoke_config()
        assert config.num_rounds < 100
        assert config.temperature_decay > paper_config().temperature_decay

    def test_active_config_defaults_to_smoke(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        assert active_config().num_rounds == smoke_config().num_rounds

    def test_active_config_full_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert active_config().num_rounds == 100


class TestCli:
    def test_parser_list(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_parser_run_flags(self):
        args = build_parser().parse_args(["run", "fig2", "--full", "--seed", "3"])
        assert args.experiment_id == "fig2"
        assert args.full is True
        assert args.seed == 3

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        assert "fig3" in capsys.readouterr().out

    def test_main_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_main_run_fig2(self, capsys):
        assert main(["run", "fig2"]) == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_main_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 1
        assert "error" in capsys.readouterr().err
