"""Check ``BENCHMARK.json``, ``spec.py`` and a result set against each other.

    python benchmarks/ladder/validate.py                      # declarations
    python benchmarks/ladder/validate.py --results out/results-2025.json

Checks, in order: ``BENCHMARK.json`` has the shape the builder's
contract prescribes (keys, name and unit alphabets, the 8/16/128 limits,
bounds at most 0.25, a ``setup_s`` metric, at most 64 KiB); it declares
exactly what ``spec.py`` marks as the driver's metrics; ``spec.py`` is
consistent with itself; and, with ``--results``, every metric the run
printed is declared and every declared metric was printed.

Exit code 1 when anything is off.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Import siblings as the ``ladder`` package: with this directory itself on
# sys.path, ladder/trace.py would shadow the standard library's ``trace``.
sys.path[:] = [str(HERE.parent)] + [
    entry
    for entry in sys.path
    if pathlib.Path(entry or ".").resolve() not in (HERE, HERE.parent)
]

from ladder import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_WORKLOADS, MAX_END_TO_END, MAX_PER_LAYER = 8, 16, 128
MAX_BOUND = 0.25
MAX_FILE_BYTES = 64 * 1024


def _check_entries(
    section: str, entries, keys: set, low: int, high: int, problems: List[str]
) -> None:
    if not isinstance(entries, list) or not low <= len(entries) <= high:
        problems.append(f"{section}: need {low} to {high} entries")
        return
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != keys:
            problems.append(f"{section}: entry {entry!r} must have exactly {sorted(keys)}")
            continue
        if not NAME.match(str(entry["name"])):
            problems.append(f"{section}: bad name {entry['name']!r}")
        if "unit" in entry and not UNIT.match(str(entry["unit"])):
            problems.append(f"{section}: bad unit {entry['unit']!r} on {entry['name']}")
        if "better" in entry and entry["better"] not in ("lower", "higher"):
            problems.append(f"{section}: {entry['name']} better must be lower/higher")


def check_benchmark_json(text: str) -> List[str]:
    """Problems with a ``BENCHMARK.json`` document's shape."""
    problems: List[str] = []
    if len(text.encode("utf-8")) > MAX_FILE_BYTES:
        problems.append("file is larger than 64 KiB")
    try:
        document = json.loads(text)
    except ValueError as error:
        return [f"not JSON: {error}"]
    if not isinstance(document, dict) or set(document) != TOP_KEYS:
        return [f"top-level keys must be exactly {sorted(TOP_KEYS)}"]
    command = document["command"]
    if (
        not isinstance(command, list)
        or not 1 <= len(command) <= 32
        or any(not isinstance(part, str) or len(part) > 200 for part in command)
    ):
        problems.append("command: 1 to 32 strings of at most 200 characters")
    elif any(part.startswith("/") or ".." in part.split("/") for part in command):
        problems.append("command: no absolute path and no '..'")
    paths = document["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths: 1 to 16 directories")
    else:
        for path in paths:
            if not isinstance(path, str) or not PATH.match(path) or path.startswith("/"):
                problems.append(f"paths: bad path {path!r}")
            elif ".." in path.split("/"):
                problems.append(f"paths: {path!r} leads out of the repo")
    seconds = document["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) or not 1 <= seconds <= 60:
        problems.append("run_seconds: a whole number from 1 to 60")
    _check_entries(
        "workloads", document["workloads"], {"name", "why"}, 2, MAX_WORKLOADS, problems
    )
    _check_entries(
        "end_to_end", document["end_to_end"], {"name", "unit", "better", "bound"},
        1, MAX_END_TO_END, problems,
    )
    _check_entries(
        "per_layer", document["per_layer"], {"name", "unit", "better"},
        1, MAX_PER_LAYER, problems,
    )
    if problems:
        return problems
    for workload in document["workloads"]:
        why = workload["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            problems.append(f"workloads: {workload['name']} why must be one line <= 200")
    for metric in document["end_to_end"]:
        bound = metric["bound"]
        if not isinstance(bound, (int, float)) or isinstance(bound, bool) or not 0 <= bound <= MAX_BOUND:
            problems.append(f"end_to_end: {metric['name']} bound must be in [0, {MAX_BOUND}]")
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end: needs setup_s with unit s and better lower")
    elif setup[0]["bound"] < max(m["bound"] for m in document["end_to_end"]):
        problems.append("end_to_end: setup_s must carry the largest bound")
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in document[section]
    ]
    for name in sorted({name for name in names if names.count(name) > 1}):
        problems.append(f"name {name!r} is used more than once")
    return problems


def check_against_spec(document: Dict[str, object]) -> List[str]:
    """``BENCHMARK.json`` must declare exactly spec.py's driver metrics."""
    problems: List[str] = []
    declared = {w["name"]: w["why"] for w in document["workloads"]}
    expected = {name: why for name, (_inputs, why) in spec.WORKLOADS.items()}
    if declared != expected:
        problems.append("workloads differ from spec.WORKLOADS (names or why)")
    end_to_end = [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in document["end_to_end"]
    ]
    wanted = [(m.name, m.unit, m.better, m.bound) for m in spec.driver_end_to_end()]
    if end_to_end != wanted:
        problems.append("end_to_end differs from spec.driver_end_to_end()")
    per_layer = [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]]
    wanted_layers = [(m.name, m.unit, m.better) for m in spec.PER_LAYER if m.driver]
    if per_layer != wanted_layers:
        missing = {row[0] for row in wanted_layers} - {row[0] for row in per_layer}
        extra = {row[0] for row in per_layer} - {row[0] for row in wanted_layers}
        problems.append(
            f"per_layer differs from spec.PER_LAYER driver metrics "
            f"(missing {sorted(missing)}, undeclared {sorted(extra)})"
        )
    return problems


def check_spec() -> List[str]:
    """``spec.py`` against its own limits and cross-references."""
    problems: List[str] = []
    if not 2 <= len(spec.WORKLOADS) <= MAX_WORKLOADS:
        problems.append(f"spec: {len(spec.WORKLOADS)} workloads, limit {MAX_WORKLOADS}")
    if len(spec.END_TO_END) > MAX_END_TO_END:
        problems.append(f"spec: {len(spec.END_TO_END)} end-to-end metrics, limit {MAX_END_TO_END}")
    if len(spec.PER_LAYER) > MAX_PER_LAYER:
        problems.append(f"spec: {len(spec.PER_LAYER)} per-layer metrics, limit {MAX_PER_LAYER}")
    names = (
        list(spec.WORKLOADS)
        + [m.name for m in spec.END_TO_END]
        + [m.name for m in spec.PER_LAYER]
    )
    for name in names:
        if not NAME.match(name):
            problems.append(f"spec: bad name {name!r}")
        if names.count(name) > 1:
            problems.append(f"spec: name {name!r} is used more than once")
    for metric in list(spec.END_TO_END) + list(spec.PER_LAYER):
        if not UNIT.match(metric.unit):
            problems.append(f"spec: bad unit {metric.unit!r} on {metric.name}")
    end_to_end = set(spec.end_to_end_names())
    for metric in spec.END_TO_END:
        if metric.kind == "relative" and not 0 < metric.bound <= MAX_BOUND:
            problems.append(f"spec: {metric.name} relative bound must be in (0, {MAX_BOUND}]")
        if metric.driver and (metric.workloads is not None or metric.bound <= 0):
            problems.append(
                f"spec: driver metric {metric.name} needs a value on every "
                f"workload and a positive bound"
            )
        if metric.kind == "calibrated":
            for workload in metric.workloads or spec.WORKLOADS:
                _mean, std = spec.LANDED_QUALITY.get(workload, {}).get(metric.name, (0, 0))
                if std <= 0:
                    problems.append(
                        f"spec: {metric.name} needs a landed mean and std on {workload}"
                    )
    for metric in spec.PER_LAYER:
        for target, workload in metric.moves:
            if target not in end_to_end:
                problems.append(f"spec: {metric.name} moves unknown metric {target!r}")
            if workload != "*" and workload not in spec.WORKLOADS:
                problems.append(f"spec: {metric.name} moves unknown workload {workload!r}")
        for workload in metric.unmoved:
            if workload not in spec.WORKLOADS:
                problems.append(f"spec: {metric.name} unmoved unknown workload {workload!r}")
    return problems


def check_results(document: Dict[str, object]) -> List[str]:
    """Every printed metric is declared, every declared one printed."""
    problems: List[str] = []
    declared = set(spec.end_to_end_names())
    for workload in spec.WORKLOADS:
        entry = document["workloads"].get(workload)
        if entry is None:
            problems.append(f"results: workload {workload} missing")
            continue
        printed = set(entry["metrics"])
        for name in sorted(printed ^ declared):
            side = "printed but not declared" if name in printed else "declared but not printed"
            problems.append(f"results: {workload} {name} {side}")
        for metric in spec.END_TO_END:
            value = entry["metrics"].get(metric.name)
            if metric.applies(workload) and value is None:
                problems.append(f"results: {workload} {metric.name} is null")
            if not metric.applies(workload) and value is not None:
                problems.append(f"results: {workload} {metric.name} should be null")
    for workload in sorted(set(document["workloads"]) - set(spec.WORKLOADS)):
        problems.append(f"results: undeclared workload {workload}")
    layers = document.get("layers")
    if layers is not None:
        for kind, printed_sets in (
            ("probe", [("probes", set(layers["probes"]))]),
            ("trace", [(w, set(m)) for w, m in layers["trace"].items()]),
        ):
            wanted = set(spec.layer_names(kind=kind))
            for where, printed in printed_sets:
                for name in sorted(printed ^ wanted):
                    side = "printed but not declared" if name in printed else "declared but not printed"
                    problems.append(f"results: layer {where} {name} {side}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--benchmark", type=pathlib.Path, default=ROOT / "BENCHMARK.json"
    )
    parser.add_argument("--results", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    text = args.benchmark.read_text(encoding="utf-8")
    problems = check_benchmark_json(text)
    if not problems:
        problems += check_against_spec(json.loads(text))
    problems += check_spec()
    if args.results is not None:
        problems += check_results(json.loads(args.results.read_text(encoding="utf-8")))
    for problem in problems:
        print(problem)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
