"""One 10k-device aggregation round, tiered and flat, under a memory ceiling.

Run from anywhere, with no install step::

    python scripts/ci/fleet_smoke.py

The round's 10k device updates are synthesised and encoded once (each
one draw from its device's seeded stream, encoded as drawn), then
the tiered arm and the flat arm send the same payloads, in that order.
The report times synthesis (``synthesis: wall_s=``) apart from each
arm's server work. It prints the report and the process's peak RSS,
and exits 1 naming every check that failed:

* the tiered global model's checksum is the one pinned below, so a
  numpy whose PCG64 seeding or normal sampling moved the streams fails
  here instead of silently changing every synthetic update;
* the round's device streams, derived in one vectorised pass
  (``repro.utils.rng.generators_from_root``), equal numpy's own
  ``SeedSequence`` construction (``generator_from_root``) on a sample
  of devices, so a numpy whose seed mixing changed fails too;
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

from repro.hier.scale import _UPDATE_PATH, simulate_fleet_round  # noqa: E402
from repro.utils.rng import generator_from_root, generators_from_root  # noqa: E402

DEVICES = 10_000
REGIONS = 8
SEED = 7
#: The tiered global model's CRC-32 after the seed-7, 8-region round.
CHECKSUM = "c6d08494"
MAX_DRIFT = 1e-5
PEAK_RSS_MIB = 512
#: Devices whose round-0 stream is checked against SeedSequence.
SAMPLE = (0, 1, 4_999, DEVICES - 1)


def drifted_streams() -> list:
    """Sampled devices whose batch-derived stream differs from numpy's."""
    batch = generators_from_root(SEED, (_UPDATE_PATH, 0), SAMPLE)
    return [
        index
        for index, rng in zip(SAMPLE, batch)
        if rng.bit_generator.state
        != generator_from_root(SEED, _UPDATE_PATH, 0, index).bit_generator.state
    ]


def main() -> int:
    report = simulate_fleet_round(
        DEVICES, regions=REGIONS, include_flat=True, seed=SEED
    )
    for line in report.summary_lines():
        print(line)
    # ru_maxrss is in KiB on Linux.
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak_mib:.0f} MiB")
    drifted = drifted_streams()
    checks = [
        (report.checksum == CHECKSUM,
         f"checksum {report.checksum} != {CHECKSUM}"),
        (not drifted,
         f"device streams {drifted} differ from numpy's SeedSequence"),
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
