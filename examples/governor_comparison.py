"""Learned DVFS vs OS governors on a power-constrained edge device.

The paper's motivation (Section I): OS frequency governors ignore
application characteristics and power budgets. This example trains the
federated policy, then pits it against `performance`, `powersave`,
`ondemand` and a reactive power-capping governor across all twelve
SPLASH-2 applications under the 0.6 W budget.

Expected shape: `performance`/`ondemand` blow through the budget on
compute-bound apps; `powersave` is safe but slow; the reactive capper
is safe and reasonably fast but purely reactive; the learned policy
matches or beats it by anticipating per-application behaviour.

Run:  python examples/governor_comparison.py
"""

from repro import FederatedPowerControlConfig
from repro.experiments.registry import get_experiment, run_artefacts


def main() -> None:
    config = FederatedPowerControlConfig(seed=2025).scaled(
        rounds=30, steps_per_round=100
    )
    numbers = run_artefacts(["ablation_governors"], config)["ablation_governors"]
    print(get_experiment("ablation_governors").render(numbers))
    best_governor = max(
        (name for name in numbers["controllers"] if name != "federated (ours)"),
        key=lambda name: numbers[f"{name}.reward"],
    )
    print(
        f"\nBest governor: {best_governor} "
        f"(reward {numbers[f'{best_governor}.reward']:.3f} vs "
        f"{numbers['federated (ours).reward']:.3f} learned)."
    )
    print(
        "\nReward is the paper's Eq. 4 signal (normalised frequency under "
        "the budget, negative beyond it); violations is the fraction of "
        "control intervals above P_crit."
    )


if __name__ == "__main__":
    main()
