"""Run every benchmark case once and check its report against its digest.

Run from the repository root:

    PYTHONPATH=src python3 tools/check_digests.py

Every case any benchmark seed can draw, plus the harness self-test case
(``perfbench/cases.py``: ``universe()``), runs through ``campaign.call`` and
is checked by ``campaign.check`` against ``perfbench/digests.json``.  A case
recorded without a digest (its reference verdict was wrong) may fail its
verdict and nothing else.  Prints each failing case and exits 1 if there is
one, else 0.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import campaign  # noqa: E402
import cases  # noqa: E402


def main():
    with open(campaign.DIGESTS) as fh:
        digests = json.load(fh)
    t0 = time.perf_counter()
    universe = cases.universe()
    failed = 0
    for case in universe:
        expected = campaign.recorded_digest(digests, case)
        _, code, report = campaign.run_case(case)
        reasons = campaign.check(case, code, report, expected)
        if expected is None:
            reasons = [r for r in reasons if r != "verdict FAIL"]
        if reasons:
            failed += 1
            print(f"FAIL {cases.key(case)}: {'; '.join(reasons)}", flush=True)
    print(f"{len(universe) - failed}/{len(universe)} cases match their recorded reports "
          f"({time.perf_counter() - t0:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
