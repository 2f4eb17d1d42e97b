"""One 10k-device aggregation round, tiered and flat, under a memory ceiling.

Run from anywhere, with no install step::

    python scripts/ci/fleet_smoke.py

The round's 10k device updates are synthesised and encoded once, then
the tiered arm and the flat arm send the same payloads, in that order.
The report times synthesis (``synthesis: wall_s=``) apart from each
arm's server work. It prints the report and the process's peak RSS,
and exits 1 naming every check that failed:

* the round runs over 8 regions;
* both arms hold one decoded update at a time (peak resident == 1);
* the tiered and flat global models agree (``max_drift < 1e-5``);
* peak RSS stays under 512 MiB — every server folds one decoded update
  at a time, so aggregator memory stays O(model); what the round holds
  beyond that is the 10k encoded payloads, which the flat root holds
  until their fold.
"""

import pathlib
import resource
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.hier.scale import simulate_fleet_round  # noqa: E402

DEVICES = 10_000
REGIONS = 8
SEED = 7
MAX_DRIFT = 1e-5
PEAK_RSS_MIB = 512


def main() -> int:
    report = simulate_fleet_round(
        DEVICES, regions=REGIONS, include_flat=True, seed=SEED
    )
    for line in report.summary_lines():
        print(line)
    # ru_maxrss is in KiB on Linux.
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak_mib:.0f} MiB")
    checks = [
        (report.num_regions == REGIONS, f"regions {report.num_regions} != {REGIONS}"),
        (report.hier_peak_resident_updates == 1,
         f"hier_peak_resident_updates {report.hier_peak_resident_updates} != 1"),
        (report.flat_peak_resident_updates == 1,
         f"flat_peak_resident_updates {report.flat_peak_resident_updates} != 1"),
        (report.max_drift < MAX_DRIFT,
         f"max_drift {report.max_drift!r} >= {MAX_DRIFT}"),
        (peak_mib < PEAK_RSS_MIB, f"peak RSS {peak_mib:.0f} MiB >= {PEAK_RSS_MIB}"),
    ]
    failures = [message for passed, message in checks if not passed]
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
