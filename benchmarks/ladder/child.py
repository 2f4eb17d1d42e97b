"""One fresh interpreter's worth of benchmark work.

``run.py`` never imports ``repro``: it starts this file once per
workload (and once for the traced rep, once for the layer probes), so
set-up time and peak memory are per workload and nothing one workload
cached can speed up the next. The result is one JSON object on the last
line of standard output.

Modes
-----
``rep``     warm-up rep, then timed reps of one workload (end-to-end).
``trace``   untraced/traced rep pairs of one workload (spans, fidelity).
``probes``  the per-layer probes.
"""

from __future__ import annotations

import argparse
import json
import logging
import pathlib
import resource
import sys
import time
from typing import Callable, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
# Import siblings as the ``ladder`` package (with this directory itself on
# sys.path, ladder/trace.py would shadow the standard library's ``trace``)
# and the program from this checkout's source tree.
sys.path[:] = [str(HERE.parent), str(SRC)] + [
    entry
    for entry in sys.path
    if pathlib.Path(entry or ".").resolve() not in (HERE, HERE.parent, SRC)
]


def run_reps(
    rep: Callable[[int], Dict[str, object]],
    seed: int,
    t0: float,
    reps: int,
    seconds: float = 0.0,
) -> Dict[str, object]:
    """Warm-up rep with ``seed``, then timed reps with ``seed, seed+1, …``.

    ``rep(seed)`` runs one rep and returns its stats. Closed loop, one
    client: the next rep starts when the previous one returns. ``reps``
    timed reps always run; after those, reps continue while another one
    is expected to fit what is left of ``seconds``.
    """
    from ladder.stats import RepLog

    log = RepLog()
    warmup = log.run(f"warm-up seed {seed}", lambda: rep(seed))
    setup_s = time.time() - t0

    timed: List[Dict[str, object]] = []
    measuring_since = time.perf_counter()
    index = 0
    while True:
        stats = log.run(f"rep {index} seed {seed + index}", lambda: rep(seed + index))
        if index == 0:
            log.require_same_checksum(f"rep 0 seed {seed}", warmup, stats)
        if stats is not None:
            timed.append(stats)
        index += 1
        elapsed = time.perf_counter() - measuring_since
        if index >= reps and elapsed + 0.5 * (elapsed / index) > seconds:
            break
    return {
        "mode": "rep",
        "seed": seed,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": log.failures,
        "reps": timed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("rep", "trace", "probes"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--batches", type=int, default=5)
    parser.add_argument("--batch-s", type=float, default=0.04)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--driver-only", action="store_true")
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out")
    args = parser.parse_args(argv)

    # The program's own log records are not what is being measured.
    logging.disable(logging.CRITICAL)

    if args.mode == "rep":
        from ladder.workloads import WORKLOADS, timed_rep

        workload = WORKLOADS[args.workload]
        result = run_reps(
            lambda seed: timed_rep(workload, seed, args.smoke),
            args.seed,
            args.t0 if args.t0 is not None else time.time(),
            args.reps,
            args.seconds,
        )
    elif args.mode == "trace":
        from ladder.drivers import traced_pairs

        result = traced_pairs(
            args.workload, args.seed, args.pairs, args.smoke, args.out
        )
    else:
        from ladder.probes import run_all

        result = run_all(
            args.seed, args.batches, args.batch_s, args.smoke, args.driver_only
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
