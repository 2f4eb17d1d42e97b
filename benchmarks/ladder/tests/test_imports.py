"""Import hygiene: benchmark files use only the program's public names.

A benchmark file may import from ``repro`` only names without a leading
underscore from modules without a leading underscore, so a refactor of
the program's private helpers cannot break a file it may not edit.
"""

import ast
import pathlib

LADDER = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(
    path for path in LADDER.rglob("*.py") if "out" not in path.relative_to(LADDER).parts
)


def _repro_imports(tree):
    """``(module, imported name)`` for every import that touches repro."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def _private(module, name):
    parts = module.split(".") + ([name] if name else [])
    return [part for part in parts if part.startswith("_")]


def test_benchmark_files_were_found():
    names = {path.name for path in FILES}
    assert {"run.py", "child.py", "workloads.py", "drivers.py", "probes.py"} <= names


def test_only_public_names_are_imported_from_the_program():
    offenders = []
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module, name in _repro_imports(tree):
            if _private(module, name):
                offenders.append(f"{path.relative_to(LADDER)}: from {module} import {name}")
    assert offenders == []


def test_the_checker_catches_private_imports():
    source = (
        "from repro.experiments.training import _worker_specs\n"
        "from repro.parallel._internal import thing\n"
        "import repro._hidden\n"
        "from repro.nn.network import MLP\n"
    )
    found = [
        (module, name)
        for module, name in _repro_imports(ast.parse(source))
        if _private(module, name)
    ]
    assert found == [
        ("repro.experiments.training", "_worker_specs"),
        ("repro.parallel._internal", "thing"),
        ("repro._hidden", None),
    ]


def test_the_runner_and_the_pure_tools_do_not_import_the_program():
    for name in ("run.py", "spec.py", "stats.py", "trace.py", "compare.py", "validate.py"):
        tree = ast.parse((LADDER / name).read_text(encoding="utf-8"))
        assert list(_repro_imports(tree)) == [], name
