"""Deployment workflow: train federated, checkpoint, deploy, audit.

A realistic lifecycle for the paper's system:

1. a fleet trains a federated policy (scenario 2),
2. the converged global policy is checkpointed to disk (no raw samples
   in the file — same privacy boundary as the federated payloads),
3. a *new* device restores the checkpoint and controls an application
   it has never executed,
4. the deployment is audited against the exact model-based oracle to
   quantify remaining regret.

Run:  python examples/deploy_and_resume.py
"""

import tempfile
from pathlib import Path

from repro import (
    ControlSession,
    DeviceEnvironment,
    FederatedPowerControlConfig,
    JETSON_NANO_OPP_TABLE,
    build_default_device,
    build_neural_controller,
    scenario_applications,
    train_federated,
)
from repro.analysis.oracle import build_default_oracle
from repro.sim.workload import splash2_application
from repro.utils.checkpoint import load_agent, save_agent
from repro.utils.tables import format_table


def main() -> None:
    config = FederatedPowerControlConfig(seed=2025).scaled(
        rounds=30, steps_per_round=100
    )

    # 1. Fleet training.
    print("Training federated policy on scenario 2 ...")
    result = train_federated(scenario_applications(2), config)
    trained_agent = result.controllers["device-A"].agent

    # 2. Checkpoint.
    checkpoint = Path(tempfile.mkdtemp()) / "global_policy.npz"
    save_agent(trained_agent, checkpoint)
    print(f"Checkpointed policy to {checkpoint} "
          f"({checkpoint.stat().st_size} bytes, no replay samples inside).\n")

    # 3. Deploy onto a brand-new device running an app the fleet's
    #    device-B never saw locally.
    new_device = build_default_device("field-unit-7", ["cholesky"], seed=777)
    environment = DeviceEnvironment(
        new_device, control_interval_s=config.control_interval_s,
        schedule_switching=False,
    )
    controller = build_neural_controller(
        JETSON_NANO_OPP_TABLE,
        power_limit_w=config.power_limit_w,
        offset_w=config.power_offset_w,
        seed=778,
    )
    load_agent(controller.agent, checkpoint)

    session = ControlSession(environment, controller)
    session.start("cholesky")
    block = session.run_steps(40, train=False)  # greedy, no updates

    mean_reward, mean_power, mean_freq = (
        float(block[column].mean()) for column in ("reward", "power_w", "frequency_hz")
    )

    # 4. Audit against the exact oracle.
    oracle = build_default_oracle(config.power_limit_w, config.power_offset_w)
    app = splash2_application("cholesky")
    static = oracle.static_oracle(app)
    regret = oracle.regret(app, mean_reward)

    rows = [
        ["achieved reward", mean_reward],
        ["achieved power [W]", mean_power],
        ["achieved mean freq [MHz]", mean_freq / 1e6],
        ["oracle level / freq [MHz]", f"{static.level} / {static.frequency_hz / 1e6:.0f}"],
        ["oracle reward (per-phase)", oracle.phase_oracle_reward(app)],
        ["regret", regret],
    ]
    print(format_table(
        ["quantity", "value"], rows,
        title="Deployment audit: restored policy on an unseen device (cholesky)",
    ))
    print("\nA regret near zero means the federated policy transfers to new "
          "devices at close to the achievable optimum, without retraining.")


if __name__ == "__main__":
    main()
