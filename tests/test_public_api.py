"""Public-API surface checks.

Guards the package's contract: every ``__all__`` name resolves, every
public module carries a docstring, and the examples stay syntactically
valid.
"""

import importlib
import pathlib
import pkgutil
import py_compile

import pytest

import repro

#: Every package and module under ``repro``, discovered — a new one is
#: covered without anyone remembering to list it.
_DISCOVERED = list(pkgutil.walk_packages(repro.__path__, prefix="repro."))
PACKAGES = ["repro"] + [info.name for info in _DISCOVERED if info.ispkg]
MODULES = [info.name for info in _DISCOVERED if not info.ispkg]

#: The per-package ambient-context machinery that ``repro.runspec``
#: replaced; no ``__all__`` may bring any of it back.
RETIRED_CONTEXT_NAMES = {
    "ExecutionConfig",
    "GuardConfig",
    "HierConfig",
    "ResilienceConfig",
    "Telemetry",
    "activate",
    "active_events",
    "active_flight",
    "active_metrics",
    "active_profiler",
    "active_tracer",
    "controlplane",
    "deactivate",
    "execution",
    "get_active",
    "get_active_controlplane",
    "get_active_execution",
    "get_active_guard",
    "get_active_resilience",
    "guard",
    "hier",
    "resilience",
    "resolve_execution",
    "resolve_guard",
    "resolve_hier",
    "resolve_resilience",
    "telemetry",
}


class TestPackageSurface:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted(self, package_name):
        package = importlib.import_module(package_name)
        assert list(package.__all__) == sorted(package.__all__), package_name

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_retired_context_names_stay_gone(self, package_name):
        package = importlib.import_module(package_name)
        assert not RETIRED_CONTEXT_NAMES & set(package.__all__), package_name

    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_importable_and_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        assert len(module.__doc__.strip()) > 40, module_name

    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "script",
        sorted(
            (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
        ),
        ids=lambda path: path.name,
    )
    def test_example_compiles(self, script, tmp_path):
        py_compile.compile(
            str(script), cfile=str(tmp_path / (script.name + "c")), doraise=True
        )

    def test_at_least_five_examples(self):
        examples = list(
            (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
        )
        assert len(examples) >= 5
        names = {example.name for example in examples}
        assert "quickstart.py" in names


class TestReportSubcommand:
    def test_report_writes_selected_files(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report"
        assert main(
            ["report", str(out), "--experiments", "table1", "table2"]
        ) == 0
        assert (out / "table1.txt").exists()
        assert (out / "table2.txt").exists()
        assert "running table1" in capsys.readouterr().out

    def test_report_rejects_unknown_experiment(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path), "--experiments", "nope"]) == 1
        assert "error" in capsys.readouterr().err
