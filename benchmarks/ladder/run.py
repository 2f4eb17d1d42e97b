"""Layer-ladder benchmark: five workloads, measured from outside.

    python benchmarks/ladder/run.py --seed 2025            # end-to-end
    python benchmarks/ladder/run.py --seed 2025 --trace    # + per-layer
    python benchmarks/ladder/run.py --smoke                # CI-sized, both

Every workload runs in its own fresh child interpreter, one after
another, never two at once (see ``child.py``); this file never imports
the program. Results are printed by name with units and written to
``benchmarks/ladder/out/``.

The builder's driver calls the same file as

    run.py --workload NAME --seed N --seconds S --trace 0|1

which measures one workload and prints one JSON line (``BENCHMARK.json``
documents that contract; ``driver_run`` implements it). The rep counts
are constants in ``spec.py``, not arguments: two result sets compare
only when they were measured the same way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

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
from ladder.stats import summarize  # noqa: E402

OUT_DIR = HERE / "out"
#: Children run single-threaded BLAS and a fixed str-hash seed, so two
#: runs differ by the machine's noise and not by thread scheduling or by
#: which dict slots this process happened to collide in.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Children a driver run starts: set-up is measured once per child, so
#: more than one gives ``setup_s`` a median. Each child's set-up costs a
#: warm-up rep, so two is what the time cap affords.
DRIVER_CHILDREN = 2
#: A driver run must end within 180 s however its children behave.
RUN_DEADLINE_S = 170


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero or printed no result."""


def run_child(arguments: List[str], timeout: float = RUN_DEADLINE_S) -> Dict[str, object]:
    """Start ``child.py`` with single-threaded BLAS and wait for it."""
    env = dict(os.environ, **CHILD_ENV)
    command = [sys.executable, str(HERE / "child.py"), *arguments]
    if arguments[0] == "rep":
        command += ["--t0", repr(time.time())]
    completed = subprocess.run(
        command,
        env=env,
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise ChildFailed(
            f"child {' '.join(arguments)} exited {completed.returncode}:\n"
            f"{completed.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def environment() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "child_env": dict(CHILD_ENV),
    }


# -- end-to-end --------------------------------------------------------
def aggregate(workload: str, children: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold the children of one workload into its end-to-end metrics.

    Timings are medians over the timed reps; the two quality metrics are
    means over the reps' seeds; everything is ``None`` where the issue
    says the metric does not apply (or when every rep failed).
    """
    reps = [rep for child in children for rep in child["reps"]]
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    # The unit of work: control steps where the workload trains, folded
    # client updates where it only aggregates.
    work = "steps" if workload in spec.TRAINING_WORKLOADS else "updates"
    metrics: Dict[str, Optional[float]] = {
        name: None for name in spec.end_to_end_names()
    }
    metrics["setup_s"] = statistics.median(c["setup_s"] for c in children)
    metrics["peak_rss_mib"] = statistics.median(c["peak_rss_mib"] for c in children)
    metrics["failed_ops_share"] = failed / attempted
    entry: Dict[str, object] = {
        "attempted": attempted,
        "failed": failed,
        "failures": [line for child in children for line in child["failures"]],
        "metrics": metrics,
        "timing": {},
        "samples": {},
    }
    if not reps:
        return entry
    walls = [rep["wall_s"] for rep in reps]
    metrics["run_wall_s"] = statistics.median(walls)
    entry["timing"]["run_wall_s"] = summarize(walls)
    entry["samples"]["run_wall_s"] = walls
    entry["samples"]["seeds"] = [rep["seed"] for rep in reps]
    metrics["comm_bytes_per_round"] = statistics.median(
        rep["bytes"] / rep["rounds"] for rep in reps
    )
    metrics["bytes_per_transfer"] = statistics.median(
        rep["bytes_per_transfer"] for rep in reps
    )
    rates = [rep[work] / rep["wall_s"] for rep in reps]
    metrics["ops_per_s"] = statistics.median(rates)
    entry["samples"]["ops_per_s"] = rates
    if work == "steps":
        for metric, key in (
            ("eval_reward_mean", "reward"),
            ("power_violation_rate", "violation"),
        ):
            values = [rep[key] for rep in reps]
            metrics[metric] = statistics.fmean(values)
            entry["samples"][metric] = values
    if reps[0]["model_p95_s"] is not None:
        metrics["model_time_to_version_p95_s"] = statistics.median(
            rep["model_p95_s"] for rep in reps
        )
    return entry


def rep_child(
    workload: str, seed: int, reps: int, smoke: bool,
    seconds: float = 0.0, timeout: float = RUN_DEADLINE_S,
) -> Dict[str, object]:
    """One child: a warm-up rep, ``reps`` timed reps, more while
    ``seconds`` last."""
    arguments = [
        "rep", "--workload", workload, "--seed", str(seed),
        "--reps", str(reps), "--seconds", repr(seconds),
    ]
    if smoke:
        arguments.append("--smoke")
    return run_child(arguments, timeout=timeout)


def _format(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def print_workload(workload: str, entry: Dict[str, object]) -> None:
    print(f"\n== {workload}  ({spec.WORKLOADS[workload][0]})")
    for metric in spec.END_TO_END:
        value = entry["metrics"][metric.name]
        line = f"  {metric.name:<30} {_format(value):>14} {metric.unit}"
        timing = entry["timing"].get(metric.name)
        if timing:
            line += (
                f"   [median of n={timing['n']}, min {timing['min']:.4g}, "
                f"max {timing['max']:.4g}]"
            )
        print(line)
    for failure in entry["failures"]:
        print(f"  FAILED {failure}")


# -- per-layer ---------------------------------------------------------
def measure_layers(
    seed: int,
    smoke: bool,
    pairs: int,
    batches: int,
    batch_s: float,
    workloads: List[str],
    driver_only: bool = False,
    deadline: Optional[float] = None,
) -> Dict[str, object]:
    """The traced pass: one traced child per workload, then the probes."""

    def remaining() -> float:
        if deadline is None:
            return RUN_DEADLINE_S
        return deadline - time.monotonic()

    layers: Dict[str, object] = {"trace": {}, "fidelity_failures": []}
    for workload in workloads:
        arguments = [
            "trace", "--workload", workload, "--seed", str(seed),
            "--pairs", str(pairs), "--out", str(OUT_DIR),
        ]
        if smoke:
            arguments.append("--smoke")
        traced = run_child(arguments, timeout=remaining())
        layers["trace"][workload] = traced["metrics"]
        layers["fidelity_failures"] += [
            f"{workload}: {line}" for line in traced["fidelity_failures"]
        ]
    arguments = [
        "probes", "--seed", str(seed), "--batches", str(batches),
        "--batch-s", repr(batch_s),
    ]
    if smoke:
        arguments.append("--smoke")
    if driver_only:
        arguments.append("--driver-only")
    probes = run_child(arguments, timeout=remaining())
    layers["probes"] = probes["metrics"]
    layers["layer_probe_errors"] = probes["errors"]
    return layers


def print_layers(layers: Dict[str, object]) -> None:
    print("\n== per-layer probes")
    for metric in spec.PER_LAYER:
        if metric.kind == "probe" and metric.name in layers["probes"]:
            value = layers["probes"][metric.name]
            print(f"  {metric.name:<40} {_format(value):>14} {metric.unit}")
    print("\n== per-layer, from each workload's traced rep")
    names = spec.layer_names(kind="trace")
    workloads = list(layers["trace"])
    print("  " + " " * 34 + "".join(f"{w[:16]:>18}" for w in workloads))
    for name in names:
        cells = "".join(
            f"{_format(layers['trace'][w].get(name)):>18}" for w in workloads
        )
        print(f"  {name:<34}{cells}")
    for line in layers["layer_probe_errors"]:
        print(f"  PROBE ERROR {line}")
    for line in layers["fidelity_failures"]:
        print(f"  FIDELITY FAILURE {line}")


# -- modes -------------------------------------------------------------
def run_full(seed: int, smoke: bool, trace: bool) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    reps = spec.SMOKE_REPS if smoke else spec.FULL_REPS
    document: Dict[str, object] = {
        "schema": 2,
        "seed": seed,
        "mode": "smoke" if smoke else "full",
        "environment": environment(),
        "workloads": {},
    }
    for workload in spec.WORKLOADS:
        entry = aggregate(workload, [rep_child(workload, seed, reps, smoke)])
        document["workloads"][workload] = entry
        print_workload(workload, entry)
    if trace:
        document["layers"] = measure_layers(
            seed,
            smoke,
            pairs=1 if smoke else 3,
            batches=1 if smoke else 5,
            batch_s=0.01 if smoke else 0.04,
            workloads=list(spec.WORKLOADS),
        )
        print_layers(document["layers"])
    suffix = "-smoke" if smoke else ""
    path = OUT_DIR / f"results-{seed}{suffix}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {path.relative_to(ROOT)}")
    failed = sum(entry["failed"] for entry in document["workloads"].values())
    fidelity = document.get("layers", {}).get("fidelity_failures", [])
    if failed or fidelity:
        print(f"FAILED: {failed} failed rep(s), {len(fidelity)} fidelity failure(s)")
        return 1
    return 0


def driver_end_to_end(
    workload: str, seed: int, seconds: float, smoke: bool, deadline: float
) -> Dict[str, object]:
    """The result line of ``--trace 0``: every driver end-to-end metric.

    DRIVER_CHILDREN children share ``seconds`` and the
    ``spec.DRIVER_MIN_REPS`` timed reps a run never goes below; each
    child takes its own block of seeds.
    """
    owed = 1 if smoke else spec.DRIVER_MIN_REPS
    children = []
    for index in range(DRIVER_CHILDREN):
        left = DRIVER_CHILDREN - index
        child = rep_child(
            workload, seed + 100 * index, math.ceil(owed / left), smoke,
            seconds=seconds / DRIVER_CHILDREN,
            timeout=deadline - time.monotonic(),
        )
        owed = max(0, owed - len(child["reps"]))
        children.append(child)
    entry = aggregate(workload, children)
    values = entry["metrics"]
    problems = list(entry["failures"])
    timed = len(entry["samples"].get("seeds", ()))
    if timed and not smoke:  # the landed quality is the full-size workload's
        problems += spec.quality_problems(
            workload,
            values["eval_reward_mean"],
            values["power_violation_rate"],
            timed,
        )
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in spec.driver_end_to_end()
        },
    }


def driver_per_layer(
    workload: str, seed: int, smoke: bool, deadline: float
) -> Dict[str, object]:
    """The result line of ``--trace 1``: every driver per-layer metric."""
    layers = measure_layers(
        seed, smoke, pairs=1, batches=1 if smoke else 3,
        batch_s=0.01 if smoke else 0.02,
        workloads=[workload], driver_only=True, deadline=deadline,
    )
    values = dict(layers["probes"])
    values.update(layers["trace"][workload])
    problems = layers["fidelity_failures"] + layers["layer_probe_errors"]
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": 1,
        "failed": len(layers["fidelity_failures"]),
        "metrics": {
            metric.name: {"value": values.get(metric.name), "unit": metric.unit}
            for metric in spec.PER_LAYER
            if metric.driver
        },
    }


def driver_run(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Dict[str, object]:
    """One workload, one JSON line: the builder's driver contract."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        result = driver_per_layer(workload, seed, smoke, deadline)
    else:
        result = driver_end_to_end(workload, seed, seconds, smoke, deadline)
    print(json.dumps(result))
    return result


#: The workload whose driver run ``--smoke`` also exercises.
SMOKE_DRIVER_WORKLOAD = "hardened_sync_8"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="also run the traced pass and the per-layer probes",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload at ~1/10 size, N=2, probes at one batch, with "
        "--trace, then one driver run of each kind at that size",
    )
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload is not None:
            if args.seconds is None or args.seconds <= 0:
                parser.error("--workload needs a positive --seconds")
            driver_run(args.workload, args.seed, args.seconds, bool(args.trace))
            return 0  # a wrong result is the line's ``correct``, not the exit code
        if not args.smoke:
            return run_full(args.seed, False, bool(args.trace))
        code = run_full(args.seed, True, True)
        for trace in (False, True):
            print(f"\n== driver run: --workload {SMOKE_DRIVER_WORKLOAD} --trace {int(trace)}")
            result = driver_run(SMOKE_DRIVER_WORKLOAD, args.seed, 1.0, trace, smoke=True)
            code = code or int(not result["correct"])
        return code
    except (ChildFailed, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
