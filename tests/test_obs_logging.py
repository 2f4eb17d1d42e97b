"""Tests for structured logging setup and formatters."""

import io
import json
import logging

import pytest

from repro.obs.logging import (
    JsonFormatter,
    KeyValueFormatter,
    get_logger,
    reset_logging,
    setup_logging,
)


@pytest.fixture(autouse=True)
def _clean_logging_state():
    yield
    reset_logging()


class TestGetLogger:
    def test_namespaces_under_repro(self):
        assert get_logger("federated").name == "repro.federated"
        assert get_logger("repro.federated").name == "repro.federated"
        assert get_logger().name == "repro"

    def test_child_inherits_configured_level(self):
        setup_logging(level="DEBUG", stream=io.StringIO())
        assert get_logger("federated").isEnabledFor(logging.DEBUG)


class TestSetupLogging:
    def test_key_value_lines(self):
        stream = io.StringIO()
        setup_logging(level="INFO", stream=stream)
        get_logger("federated").info(
            "round complete", extra={"round": 3, "stragglers": 0}
        )
        line = stream.getvalue().strip()
        assert "level=INFO" in line
        assert "logger=repro.federated" in line
        assert 'msg="round complete"' in line
        assert "round=3" in line
        assert "stragglers=0" in line

    def test_json_lines(self):
        stream = io.StringIO()
        setup_logging(level="INFO", json_output=True, stream=stream)
        get_logger("control").info("step", extra={"device": "device-A"})
        record = json.loads(stream.getvalue())
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.control"
        assert record["msg"] == "step"
        assert record["device"] == "device-A"

    def test_idempotent_no_duplicate_handlers(self):
        stream = io.StringIO()
        setup_logging(level="INFO", stream=stream)
        setup_logging(level="INFO", stream=stream)
        get_logger("experiments").info("once")
        assert stream.getvalue().count("msg=once") == 1

    def test_level_filtering(self):
        stream = io.StringIO()
        setup_logging(level="WARNING", stream=stream)
        get_logger("federated").info("quiet")
        get_logger("federated").warning("loud")
        output = stream.getvalue()
        assert "quiet" not in output
        assert "loud" in output

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            setup_logging(level="shout")

    def test_quiet_by_default_without_setup(self):
        # No handler configured: INFO is below the default WARNING level,
        # so instrumented calls short-circuit without touching a stream.
        reset_logging()
        assert not get_logger("federated").isEnabledFor(logging.INFO)


class TestLibraryWarnings:
    """Warnings stay off stderr until logging is switched on."""

    ARGV = ["run", "fig3", "--rounds", "2", "--steps", "5"]
    ARGV += ["--faults", "drop=0.3,seed=7"]

    def run_cli(self, monkeypatch, argv):
        from repro.cli import main

        # Python's last-resort printer only fires when no handler exists
        # anywhere up the hierarchy, as in a plain command-line run.
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        return main(argv)

    def test_reset_keeps_the_null_handler(self):
        setup_logging(level="INFO", stream=io.StringIO())
        reset_logging()
        assert any(
            isinstance(handler, logging.NullHandler)
            for handler in get_logger().handlers
        )

    def test_faulted_run_writes_nothing_to_stderr(self, capfd, monkeypatch):
        assert self.run_cli(monkeypatch, self.ARGV) == 0
        assert capfd.readouterr().err == ""

    def test_log_level_still_shows_the_warning_fields(self, capfd, monkeypatch):
        argv = self.ARGV + ["--log-level", "warning"]
        assert self.run_cli(monkeypatch, argv) == 0
        err = capfd.readouterr().err
        assert "no broadcast arrived" in err
        assert "client_id=" in err


class TestFormatters:
    def _record(self, **extra):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "hello world", (), None
        )
        for key, value in extra.items():
            setattr(record, key, value)
        return record

    def test_key_value_quotes_values_with_spaces(self):
        line = KeyValueFormatter().format(self._record(note="two words"))
        assert 'note="two words"' in line

    def test_json_formatter_stringifies_unserialisable_extras(self):
        line = JsonFormatter().format(self._record(obj=object()))
        payload = json.loads(line)
        assert isinstance(payload["obj"], str)
