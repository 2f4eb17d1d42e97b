"""Resilience sweep — training outcome versus injected fault intensity.

The paper assumes a perfectly reliable federation: every device trains
every round and every model exchange arrives. This extension measures
how gracefully the learned policy degrades when that assumption breaks.
For a sweep of fault intensities ``p`` the harness injects seeded
device crashes, message drops and transient send failures (each with
per-(round, device) probability ``p``), lets the straggler-tolerant
protocol ride them out with retries, and reports the final evaluation
reward, the power-violation rate and the fraction of participation
slots lost to stragglers.

The headline: moderate fault rates cost rounds, not convergence — the
federated average keeps pooling whatever uploads survive, so the final
policy stays close to the fault-free one until the fault rate starves
entire rounds of updates.

The ``guard`` artefact extends the sweep with the
:mod:`repro.guard` story: the same byzantine-poisoned, crash-ridden,
churning fleet trained twice — once bare, once with the device-side
watchdog and the server-side quarantine — so the table shows what the
guardrails buy in power-constraint compliance.
"""

from __future__ import annotations

from repro.experiments.artefact import Artefact, federated, flatten, table_rows
from repro.experiments.scenarios import scenario_applications
from repro.faults.retry import RetryPolicy
from repro.sim.workload import SPLASH2_APPLICATION_NAMES
from repro.utils.tables import format_table

#: Seed of the injected fault schedules (independent of the model seed).
FAULT_SEED = 7

#: Chaos and churn specs of the guard comparison (byzantine rate uses
#: its own RNG stream, so the crash schedule matches the plain sweep's).
GUARD_CHAOS_SPEC = f"byzantine=0.3,crash=0.1,seed={FAULT_SEED}"
GUARD_CHURN_SPEC = "leave=0.1,rejoin=0.6,seed=11"

_INTENSITIES = (0.0, 0.1, 0.2, 0.4)


def _outcome(result) -> dict:
    """One run's converged reward (last three evaluation rounds) and
    federation accounting."""
    run = result.federated_result
    return {
        "final_reward": result.mean_metric("reward_mean", last_rounds=3),
        "violation_rate": run.power_violation_rate(),
        "straggler_rate": run.straggler_rate,
        "fallback_rate": run.fallback_rate(),
        "quarantined": list(run.quarantined_devices),
        "quarantined_count": len(run.quarantined_devices),
        "rounds_completed": run.rounds_completed,
        "communication_bytes": result.communication_bytes,
    }


def _resilience_runs(config):
    """Scenario 2 once per fault intensity: seeded crash/drop/fail
    faults with retry and skip-straggler aggregation."""
    return {
        f"rate={intensity:.2f}": federated(
            scenario_applications(2),
            config,
            faults=(
                f"crash={intensity},drop={intensity},fail={intensity},"
                f"seed={FAULT_SEED}"
            ),
            retry=RetryPolicy(max_attempts=4),
            straggler_policy="skip",
        )
        for intensity in _INTENSITIES
    }


def _resilience_reduce(results, config, base):
    rows = {name: _outcome(result) for name, result in results.items()}
    for row in rows.values():
        # Reward lost versus the fault-free baseline.
        row["vs_fault_free"] = rows["rate=0.00"]["final_reward"] - row["final_reward"]
    return {"rates": list(rows), **flatten(rows)}


def _resilience_render(numbers) -> str:
    table = format_table(
        ["fault rate", "final reward", "vs fault-free", "violations",
         "stragglers", "bytes"],
        table_rows(
            numbers,
            numbers["rates"],
            ("final_reward", "vs_fault_free", "violation_rate",
             "straggler_rate", "communication_bytes"),
            label=lambda name: name.split("=")[1],
        ),
        title=(
            "Resilience sweep — scenario 2, seeded "
            "crash/drop/fail faults with retry and skip-straggler "
            "aggregation"
        ),
    )
    worst = numbers["rates"][-1]
    verdict = (
        f"At fault rate {worst.split('=')[1]} the final reward moves by "
        f"{numbers[f'{worst}.vs_fault_free']:+.3f} while "
        f"{100.0 * numbers[f'{worst}.straggler_rate']:.0f} % of participation slots "
        f"are lost to stragglers."
    )
    return f"{table}\n{verdict}"


RESILIENCE = Artefact(
    "resilience",
    "Training outcome vs injected fault intensity (crash/drop/fail)",
    "extension",
    _resilience_reduce,
    _resilience_render,
    _resilience_runs,
)


def guard_fleet() -> dict:
    """Four devices × two disjunct SPLASH-2 applications each.

    The quarantine's fleet statistics need at least three finite
    contributors per round (``min_updates``), so the guard comparison
    runs on a larger fleet than the two-device Table-II scenarios.
    """
    names = list(SPLASH2_APPLICATION_NAMES[:8])
    return {
        f"device-{index}": (names[2 * index], names[2 * index + 1])
        for index in range(4)
    }


def _guard_runs(config):
    """The same chaotic fleet twice — bare, then guarded.

    Both runs see identical byzantine/crash fault schedules and the
    identical churn plan; only the watchdog + quarantine differ. The
    guarded run should post a strictly lower power-violation rate.
    """
    chaos = dict(
        faults=GUARD_CHAOS_SPEC,
        retry=RetryPolicy(max_attempts=4),
        straggler_policy="skip",
        churn=GUARD_CHURN_SPEC,
    )
    return {
        "unguarded": federated(guard_fleet(), config, **chaos),
        "guarded": federated(
            guard_fleet(), config, guard=True, quarantine=True, **chaos
        ),
    }


def _guard_reduce(results, config, base):
    numbers = flatten({name: _outcome(result) for name, result in results.items()})
    # Drop in power-violation rate the guardrails deliver.
    numbers["violation_improvement"] = (
        numbers["unguarded.violation_rate"] - numbers["guarded.violation_rate"]
    )
    return numbers


def _guard_render(numbers) -> str:
    table = format_table(
        ["run", "final reward", "violations", "fallback", "quarantined",
         "rounds", "bytes"],
        table_rows(
            numbers,
            ("unguarded", "guarded"),
            ("final_reward", "violation_rate", "fallback_rate", "quarantined_count",
             "rounds_completed", "communication_bytes"),
        ),
        title=(
            f"Guardrail comparison — {len(guard_fleet())} devices, "
            f"faults '{GUARD_CHAOS_SPEC}', churn '{GUARD_CHURN_SPEC}'"
        ),
    )
    verdict = (
        f"Guardrails cut the power-violation rate by "
        f"{numbers['violation_improvement']:+.3f} "
        f"({numbers['unguarded.violation_rate']:.3f} -> "
        f"{numbers['guarded.violation_rate']:.3f}) while quarantining "
        f"{numbers['guarded.quarantined_count']} device(s) "
        f"[{', '.join(numbers['guarded.quarantined']) or 'none'}] and "
        f"covering {100.0 * numbers['guarded.fallback_rate']:.1f} % of "
        f"control steps with the fallback governor."
    )
    return f"{table}\n{verdict}"


GUARD = Artefact(
    "guard",
    "Guarded vs unguarded training under byzantine faults and churn",
    "extension",
    _guard_reduce,
    _guard_render,
    _guard_runs,
)
