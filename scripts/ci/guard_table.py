"""Check the guarded-vs-unguarded table that ``run guard`` writes.

Run on the file that ``--output`` wrote::

    python -m repro.cli run guard --rounds 12 --steps 40 --output guard.txt
    python scripts/ci/guard_table.py guard.txt

It prints the quarantine count and the two violation rates, and exits 1
naming every check that failed:

* the table has an ``unguarded`` and a ``guarded`` row;
* the guarded run quarantined at least one device;
* the guarded run's power-violation rate is below the unguarded one's.
"""

import sys

RUNS = ("unguarded", "guarded")


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: guard_table.py GUARD_TXT", file=sys.stderr)
        return 2
    rows = {}
    with open(argv[0]) as handle:
        for line in handle:
            cells = [cell.strip() for cell in line.split("|")]
            if cells[0] in RUNS:
                rows[cells[0]] = cells
    missing = [run for run in RUNS if run not in rows]
    if missing:
        print(f"FAIL: no {missing} row(s) in {argv[0]}: {rows}", file=sys.stderr)
        return 1
    violations = {run: float(cells[2]) for run, cells in rows.items()}
    quarantined = int(rows["guarded"][4])
    print(
        f"quarantined={quarantined}, "
        f"violations {violations['unguarded']} -> {violations['guarded']}"
    )
    checks = [
        (quarantined >= 1, f"quarantined {quarantined} < 1: {rows}"),
        (violations["guarded"] < violations["unguarded"],
         f"guarded violations not below unguarded: {violations}"),
    ]
    failures = [message for passed, message in checks if not passed]
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
