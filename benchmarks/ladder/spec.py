"""Declarations: every workload and metric the ladder benchmark prints.

Pure data, no ``repro`` import. ``run.py`` prints exactly what is
declared here, ``validate.py`` checks that (and that ``BENCHMARK.json``
agrees), and ``compare.py`` reads the bounds.

Written *before* measuring: each per-layer metric names the end-to-end
metric and workload it should move, and the workloads it should not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Timed reps per workload in a full run (each rep is also one seed).
FULL_REPS = 7
SMOKE_REPS = 2
#: Timed reps a driver run (``run.py --workload``) never goes below,
#: however short ``--seconds`` is: fewer than 5 samples give no median
#: worth comparing.
DRIVER_MIN_REPS = 5

TRAINING_WORKLOADS = (
    "paper_2dev",
    "fleet_batched_64",
    "hardened_sync_8",
    "async_degraded_8",
)

#: name -> (inputs, why). ``why`` is what BENCHMARK.json carries.
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "paper_2dev": (
        "train_federated(scenario_applications(1), "
        "FederatedPowerControlConfig(seed=s)): 2 devices, R=100 x T=100, "
        "12-app evaluation every round, serial, every option off",
        "The paper's own experiment (fig3/fig4/table3): control/rl/nn, sim "
        "and the evaluator do ~99% of the work, federated <1%.",
    ),
    "fleet_batched_64": (
        "train_federated(64 devices DEV_000.., cfg.scaled(10, 100), "
        "eval_applications=('fft',), backend='batched')",
        "Fleet simulation: parallel.batched/nn.batched vectorise agent "
        "math, per-device sim stepping dominates, the single-device nn/rl "
        "path does almost nothing.",
    ),
    "agg_10k": (
        "simulate_fleet_round(10000, rounds=1, seed=s, include_flat=True)",
        "10k synthetic updates through transport/codec, streamed through "
        "the sqrt(D)-edge hierarchy and buffered by one flat server: no "
        "training, no simulator, only federated + hier.",
    ),
    "hardened_sync_8": (
        "train_federated(8 devices, cfg.scaled(40, 100), fft eval, "
        "participation 0.75, faults drop/crash/byzantine, median, guard, "
        "quarantine, churn, metrics+tracer+flight+events/rollup)",
        "The sync driver with faults, guard and obs all on: prices the "
        "optional subsystems and uses federated the other way (robust "
        "aggregator, partial participation).",
    ),
    "async_degraded_8": (
        "train_async_federated(8 devices, cfg.scaled(45, 100), fft eval, "
        "faults dead=0.25,hb_loss=0.05, metrics, events/rollup), 4x skew",
        "The fourth aggregation loop (controlplane registry/buffer/ladder "
        "over the async server); the sync orchestrator does nothing here.",
    ),
}


class Metric:
    """One end-to-end metric (the README's glossary says what each measures).

    There is one table and one bound per metric: ``run.py``'s report,
    ``compare.py``, the README and ``BENCHMARK.json`` all read it.

    ``bound`` is the share of the reference value by which the metric
    may worsen. ``kind`` says what else is known about it:

    ``"relative"``    nothing: ``bound`` is all there is.
    ``"exact"``       a count that repeats exactly for the same seeds, so
                      two sets run with the same seeds must be *equal*;
                      ``bound`` only judges sets whose seeds differ.
    ``"calibrated"``  a seed mean; the bound is absolute, per workload,
                      from :data:`LANDED_QUALITY` (``bound`` is unused).

    ``driver`` marks the metrics ``BENCHMARK.json`` lists for the
    builder's driver, which needs a non-zero number on every workload.
    """

    def __init__(
        self,
        name: str,
        unit: str,
        better: str,
        bound: float,
        kind: str = "relative",
        workloads: Optional[Tuple[str, ...]] = None,
        driver: bool = True,
    ) -> None:
        self.name = name
        self.unit = unit
        self.better = better
        self.bound = bound
        self.kind = kind
        #: Workloads that report it; ``None`` = all (null elsewhere).
        self.workloads = workloads
        self.driver = driver

    def applies(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


#: Bounds of the three timings, from ten-run sets of one commit on the
#: 2-core reference box (README, "Noise"): twice the worst quartile
#: spread measured (10.1 %), three times the usual worst (6 %).
#: ``setup_s`` rests on two samples a run where the others have five,
#: and its spread reached 21 %.
TIMING_BOUND = 0.20
SETUP_BOUND = 0.25

END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", SETUP_BOUND),
    Metric("run_wall_s", "s", "lower", TIMING_BOUND),
    # Work per second. The unit of work is one training control step on
    # the training workloads and one client update folded into a global
    # model on agg_10k (the issue's device_steps_per_s / updates_per_s:
    # one name, because no workload has both).
    Metric("ops_per_s", "1/s", "higher", TIMING_BOUND),
    Metric("peak_rss_mib", "MiB", "lower", 0.05),
    # Seed-dependent where participation, faults or churn are drawn
    # (hardened_sync_8: 1% quartile spread over ten seeds).
    Metric("comm_bytes_per_round", "B", "lower", 0.05, kind="exact"),
    Metric("bytes_per_transfer", "B", "lower", 0.001, kind="exact"),
    Metric(
        "eval_reward_mean", "reward", "higher", 0.0, kind="calibrated",
        workloads=TRAINING_WORKLOADS, driver=False,
    ),
    Metric(
        "power_violation_rate", "fraction", "lower", 0.0, kind="calibrated",
        workloads=TRAINING_WORKLOADS, driver=False,
    ),
    Metric(
        "model_time_to_version_p95_s", "s", "lower", 0.0, kind="exact",
        workloads=("async_degraded_8",), driver=False,
    ),
    # Always 0 on a healthy run, which the driver's metrics may not be;
    # it reads failed reps from its result line's ``failed`` count.
    Metric("failed_ops_share", "fraction", "lower", 0.0, kind="exact", driver=False),
]


def driver_end_to_end() -> List[Metric]:
    """The ``end_to_end`` list of ``BENCHMARK.json``."""
    return [metric for metric in END_TO_END if metric.driver]


#: Per workload and quality metric, the (mean, standard deviation) of
#: single-seed values, as measured over 46 seeds (0..9, 1000+17i,
#: 2025..2034 and 16 scattered up to 2**40) when the benchmark landed.
#: Single-seed rewards span 0.46-0.63 on paper_2dev, hence seed means
#: and bounds that shrink with sqrt(n). fleet_batched_64 trains for ten
#: rounds only and its reward is that noisy: there the band catches a
#: policy that stopped learning and little else.
LANDED_QUALITY: Dict[str, Dict[str, Tuple[float, float]]] = {
    "paper_2dev": {
        "eval_reward_mean": (0.5711, 0.0474),
        "power_violation_rate": (0.0735, 0.0045),
    },
    "fleet_batched_64": {
        "eval_reward_mean": (0.3970, 0.1318),
        "power_violation_rate": (0.1054, 0.0348),
    },
    "hardened_sync_8": {
        "eval_reward_mean": (0.5549, 0.0057),
        "power_violation_rate": (0.1038, 0.0088),
    },
    "async_degraded_8": {
        "eval_reward_mean": (0.5578, 0.0030),
        "power_violation_rate": (0.0655, 0.0101),
    },
}

#: A calibrated bound is this many standard errors of a seed mean.
COMPARE_SIGMAS = 2.0
#: A driver run is ``correct`` only while its seed means stay within
#: this many standard errors of the landed means, on the bad side. The
#: driver's seeds change from run to run and one false alarm in its
#: ~100 runs rejects a PR: resampling five of the 46 seeds 200 000
#: times put the worst mean 4.7 standard errors out. At 5 a run at 0.8x
#: the landed reward is still caught on three of the four workloads.
DRIVER_SIGMAS = 5.0


def calibrated_bound(metric: str, workload: str, n: int = FULL_REPS) -> float:
    """Absolute bound on a mean over ``n`` seeds: 2 * std / sqrt(n)."""
    _mean, std = LANDED_QUALITY[workload][metric]
    return COMPARE_SIGMAS * std / n ** 0.5


def quality_problems(
    workload: str, reward: Optional[float], violation: Optional[float], n: int
) -> List[str]:
    """Why a run's seed means (over ``n`` seeds) are not the landed policy's.

    One-sided: a reward below, or a violation rate above, the landed
    mean by more than DRIVER_SIGMAS standard errors. Empty when fine or
    when the workload trains nothing.
    """
    if workload not in LANDED_QUALITY:
        return []
    problems = []
    for metric, value, sign in (
        ("eval_reward_mean", reward, -1.0),
        ("power_violation_rate", violation, +1.0),
    ):
        mean, std = LANDED_QUALITY[workload][metric]
        limit = mean + sign * DRIVER_SIGMAS * std / n ** 0.5
        if value is None or sign * (value - limit) > 0:
            problems.append(
                f"{metric} {value!r} is beyond {limit:.4f} "
                f"(landed {mean:.4f}, seed std {std:.4f}, n={n})"
            )
    return problems


class LayerMetric:
    """One per-layer metric.

    ``kind`` ``"probe"``: one value per run, from timing calls into
    public constructors and methods. ``"trace"``: one value per
    workload, from the spans of that workload's traced rep.

    ``moves`` pairs an end-to-end metric with the workload on which this
    layer metric should move it (``"*"`` = every workload); ``unmoved``
    names workloads on which a change here predicts *no* end-to-end
    change. Both were written down before anything was measured.
    """

    def __init__(
        self,
        name: str,
        unit: str,
        better: str,
        kind: str,
        moves: Tuple[Tuple[str, str], ...] = (),
        unmoved: Tuple[str, ...] = (),
        driver: bool = True,
    ) -> None:
        self.name = name
        self.unit = unit
        self.better = better
        self.kind = kind
        self.moves = moves
        self.unmoved = unmoved
        #: Listed in BENCHMARK.json and measured in a driver run
        #: (``--workload … --trace 1``); the others are too slow for it.
        self.driver = driver


def _probe(name, unit, better="lower", moves=(), unmoved=(), driver=True):
    return LayerMetric(name, unit, better, "probe", moves, unmoved, driver)


def _trace(name, unit, moves=()):
    return LayerMetric(name, unit, "lower", "trace", moves)


_PAPER = (("run_wall_s", "paper_2dev"),)
_SERIAL_AGENT = (
    ("run_wall_s", "paper_2dev"),
    ("run_wall_s", "hardened_sync_8"),
    ("run_wall_s", "async_degraded_8"),
)
_FLEET = (("ops_per_s", "fleet_batched_64"),)
_AGG = (("ops_per_s", "agg_10k"),)
_AGG_AND_FLEET = _AGG + _FLEET
_HARDENED = (("run_wall_s", "hardened_sync_8"),)
_GUARD = _HARDENED + (("power_violation_rate", "hardened_sync_8"),)
_OBS = _HARDENED + (("run_wall_s", "async_degraded_8"),)
_ASYNC = (("run_wall_s", "async_degraded_8"),)
_ASYNC_MODEL = (("model_time_to_version_p95_s", "async_degraded_8"),)

PER_LAYER: List[LayerMetric] = [
    # nn
    _probe("nn.predict_single_us", "us", moves=_PAPER,
           unmoved=("fleet_batched_64", "agg_10k")),
    _probe("nn.train_step_b128_us", "us", moves=_PAPER),
    _probe("nn.stacked_train_step_d64_us", "us", moves=_FLEET,
           unmoved=("paper_2dev",)),
    _probe("nn.param_count", "count", moves=(("bytes_per_transfer", "*"),)),
    # rl
    _probe("rl.act_us", "us", moves=_SERIAL_AGENT),
    _probe("rl.act_greedy_us", "us", moves=_SERIAL_AGENT),
    _probe("rl.observe_us", "us", moves=_SERIAL_AGENT),
    _probe("rl.update_us", "us", moves=_SERIAL_AGENT),
    _probe("rl.replay_sample_us", "us", moves=_SERIAL_AGENT),
    # sim
    _probe("sim.step_us", "us", moves=_FLEET + _SERIAL_AGENT, unmoved=("agg_10k",)),
    _probe("sim.reset_us", "us", moves=_FLEET + _SERIAL_AGENT, unmoved=("agg_10k",)),
    # control
    _probe("control.train_step_us", "us", moves=_PAPER),
    _probe("control.greedy_step_us", "us", moves=_PAPER),
    _probe("control.decision_latency_us", "us"),  # paper IV-C; informational
    # federated
    _probe("federated.encode_us", "us", moves=_AGG, unmoved=("paper_2dev",)),
    _probe("federated.decode_us", "us", moves=_AGG, unmoved=("paper_2dev",)),
    _probe("federated.encode_int8_us", "us", moves=_AGG, unmoved=("paper_2dev",)),
    _probe("federated.broadcast_d64_us", "us", moves=_AGG_AND_FLEET),
    _probe("federated.send_local_us", "us", moves=_AGG_AND_FLEET),
    _probe("federated.receive_global_us", "us", moves=_AGG_AND_FLEET),
    _probe("federated.aggregate_d2_us", "us", moves=_AGG_AND_FLEET),
    _probe("federated.aggregate_d64_us", "us", moves=_AGG_AND_FLEET),
    _probe("federated.average_d64_us", "us", moves=_AGG_AND_FLEET),
    _probe("federated.flat_round_10k_s", "s", driver=False,
           moves=(("run_wall_s", "agg_10k"), ("peak_rss_mib", "agg_10k"))),
    _probe("federated.flat_peak_resident", "count", driver=False,
           moves=(("peak_rss_mib", "agg_10k"),)),
    _trace("federated.round_share", "ratio"),  # context: <1% on paper_2dev
    # parallel
    _probe("parallel.fleet_build_d64_s", "s", moves=(
        ("setup_s", "fleet_batched_64"), ("run_wall_s", "fleet_batched_64"))),
    _probe("parallel.run_round_serial_d64_s", "s", moves=_FLEET),
    _probe("parallel.run_round_batched_d64_s", "s", moves=_FLEET),
    _probe("parallel.batched_speedup_d64", "ratio", "higher", moves=_FLEET),
    # Agent math only: an upper bound, no end-to-end move until sim moves.
    _probe("parallel.frozen_train_steps_per_s_d64", "1/s", "higher",
           unmoved=("fleet_batched_64",)),
    _probe("parallel.evaluate_round_d64_s", "s", moves=_FLEET),
    # hier
    _probe("hier.topology_build_10k_s", "s", moves=(("run_wall_s", "agg_10k"),)),
    _probe("hier.round_10k_s", "s", moves=_AGG),
    _probe("hier.bytes_per_round", "B", moves=(("comm_bytes_per_round", "agg_10k"),)),
    _probe("hier.root_fan_in", "count", moves=(("comm_bytes_per_round", "agg_10k"),)),
    _probe("hier.ps_traffic_cut", "ratio", "higher",
           moves=(("comm_bytes_per_round", "agg_10k"),)),
    _probe("hier.peak_resident", "count", moves=(("peak_rss_mib", "agg_10k"),)),
    _probe("hier.stream_fold_us", "us", moves=_AGG),
    _probe("hier.select_pareto_10k_ms", "ms", moves=_AGG),
    # controlplane
    _probe("controlplane.loop_host_s", "s", moves=_ASYNC),
    _probe("controlplane.ticks", "count", moves=_ASYNC),
    _probe("controlplane.versions", "count", "higher", moves=_ASYNC),
    _probe("controlplane.late_merges", "count", moves=_ASYNC),
    _probe("controlplane.mode_changes", "count", moves=_ASYNC),
    _probe("controlplane.model_p50_s", "s", moves=_ASYNC_MODEL),
    _probe("controlplane.model_p99_s", "s", moves=_ASYNC_MODEL),
    _trace("controlplane.self_share", "ratio", moves=_ASYNC),
    # faults
    _probe("faults.on_ratio", "ratio", moves=_HARDENED, unmoved=("paper_2dev",)),
    _probe("faults.median_aggregate_d64_us", "us", moves=_HARDENED,
           unmoved=("paper_2dev",)),
    _probe("faults.snapshot_save_ms", "ms"),
    _probe("faults.snapshot_load_ms", "ms"),
    _probe("faults.stragglers", "count", moves=_HARDENED),
    _probe("faults.retries", "count", moves=_HARDENED),
    # guard
    _probe("guard.watchdog_on_ratio", "ratio", moves=_GUARD),
    _probe("guard.quarantine_on_ratio", "ratio", moves=_GUARD),
    _probe("guard.churn_on_ratio", "ratio", moves=_GUARD),
    _probe("guard.filter_round_d64_us", "us", moves=_GUARD),
    _probe("guard.fallback_steps", "count", moves=_GUARD),
    _probe("guard.quarantined_devices", "count", moves=_GUARD),
    # obs
    _probe("obs.metrics_tracer_on_ratio", "ratio", moves=_OBS, unmoved=("paper_2dev",)),
    _probe("obs.flight_on_ratio", "ratio", moves=_OBS, unmoved=("paper_2dev",)),
    _probe("obs.events_rollup_on_ratio", "ratio", moves=_OBS, unmoved=("paper_2dev",)),
    _probe("obs.full_on_ratio", "ratio", moves=_OBS, unmoved=("paper_2dev",)),
    _probe("obs.event_emit_us", "us", moves=_OBS, unmoved=("paper_2dev",)),
    _probe("obs.events_emitted", "count", moves=_OBS),
    # experiments
    _trace("experiments.build_s", "s", moves=_PAPER),
    _trace("experiments.evaluate_round_s", "s", moves=_PAPER),
    _trace("experiments.eval_share", "ratio", moves=_PAPER),
    _trace("experiments.local_train_share", "ratio", moves=_PAPER),
    _trace("experiments.driver_gap_share", "ratio", moves=_PAPER),
    # The paper's two baselines; informational.
    _probe("experiments.local_only_run_s", "s", driver=False),
    _probe("experiments.collab_profit_run_s", "s", driver=False),
    # cli
    _probe("cli.import_s", "s", moves=(("setup_s", "*"),), driver=False),
    _probe("cli.run_fig3_smoke_s", "s", moves=(("setup_s", "*"),), driver=False),
    # validity of the table
    _trace("trace_overhead_ratio", "ratio"),
]


def end_to_end_names() -> List[str]:
    return [metric.name for metric in END_TO_END]


def layer_names(kind: Optional[str] = None, driver_only: bool = False) -> List[str]:
    return [
        metric.name
        for metric in PER_LAYER
        if (kind is None or metric.kind == kind)
        and (metric.driver or not driver_only)
    ]
