"""Record the reference digest of every case any seed can draw.

Run from the repository root at the reference commit:

    PYTHONPATH=src python3 perfbench/record.py

It writes ``perfbench/digests.json``: for each case key, the SHA-256 of the
case's report minus ``runtime_ms``, or null when that commit's verdict for
the case is wrong (then only the verdict is checked).
"""

from __future__ import annotations

import json
import sys

import campaign
import cases


def main():
    digests = {}
    for case in cases.universe():
        seconds, code, report = campaign.run_case(case)
        reasons = campaign.check(case, code, report, None)
        key = cases.key(case)
        digests[key] = None if reasons else campaign.digest(report)
        print(f"{seconds:8.3f}s {'ok ' if not reasons else 'BAD'} {key} {reasons}",
              file=sys.stderr, flush=True)
    with open(campaign.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
