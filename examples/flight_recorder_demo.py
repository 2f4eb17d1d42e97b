"""Device telemetry end to end: flight recorder -> offline run report.

A two-device federated run with the full :mod:`repro.obs` bundle
attached — flight recorder (one structured record per control step),
metrics registry, round tracer and hot-path profiler — followed by the
offline Markdown report the ``repro-power obs-report`` subcommand
builds from the same artefacts. It demonstrates:

* attaching telemetry sinks as run options — each sink is a
  :class:`repro.runspec.RunSpec` field the driver takes by keyword,
* interrogating the flight recorder in-process: OPP dwell histograms,
  per-device ``P > P_crit`` violation rates, exploration fraction,
* cross-checking the recorder against the run's own
  ``FederatedRunResult.power_violation_rate`` accounting,
* dumping the artefacts and rendering the Markdown report.

Run:  python examples/flight_recorder_demo.py
"""

import os
import tempfile

from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.scenarios import scenario_applications
from repro.experiments.training import train_federated
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    RoundTracer,
    ScopeProfiler,
    generate_report,
)


def main() -> None:
    config = FederatedPowerControlConfig(seed=2025).scaled(
        rounds=10, steps_per_round=50
    )
    assignments = scenario_applications(2)  # device-A: fft+lu, device-B: ocean+radix

    flight = FlightRecorder(capacity=65536)
    metrics, tracer, profiler = MetricsRegistry(), RoundTracer(), ScopeProfiler()

    print("training 2 federated devices with telemetry attached ...")
    result = train_federated(
        assignments,
        config,
        metrics=metrics,
        tracer=tracer,
        flight=flight,
        profiler=profiler,
    )

    # --- interrogate the recorder directly ---------------------------
    print(f"\nflight records retained: {len(flight)}")
    for device in flight.devices():
        dwell = flight.dwell_counts(device)
        favourite = max(dwell, key=dwell.get)
        greedy = [r.greedy for r in flight.device_records(device)]
        explored = sum(1 for g in greedy if g is False) / len(greedy)
        print(
            f"  {device}: favourite OPP index {favourite} "
            f"({dwell[favourite]} steps), exploration fraction {explored:.0%}, "
            f"P>P_crit rate {flight.violation_rate(device):.2%}"
        )

    # --- the run result carries the same accounting -------------------
    fed = result.federated_result
    assert fed is not None
    for device in flight.devices():
        assert fed.power_violation_rate(device) == flight.violation_rate(device)
    print(f"fleet violation rate (cross-checked): {fed.power_violation_rate():.2%}")

    # --- render the offline report ------------------------------------
    profiler.export_to(metrics)
    report = generate_report(
        flight,
        spans=[span.as_dict() for span in tracer.rounds],
        snapshot=metrics.snapshot(),
        power_limit_w=config.power_limit_w,
        title="Flight recorder demo",
    )
    out_dir = tempfile.mkdtemp(prefix="flight-demo-")
    report_path = os.path.join(out_dir, "report.md")
    with open(report_path, "w") as handle:
        handle.write(report)
    flight.dump_jsonl(os.path.join(out_dir, "trace.jsonl"))

    print(f"\nreport written to {report_path}")
    print("first lines:\n")
    print("\n".join(report.splitlines()[:14]))
    print(
        "\n(the CLI equivalent: repro-power run fig3 --flight-out trace.jsonl"
        " --metrics-out metrics.jsonl, then repro-power obs-report"
        " trace.jsonl --metrics metrics.jsonl -o report.md)"
    )


if __name__ == "__main__":
    main()
