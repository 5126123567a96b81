"""One campaign: every case of a workload, one after another, in this process.

Run by ``run.py`` in a fresh interpreter with ``src`` on the path, so the
engine's caches start empty, as in every ``qbailey`` invocation:

    python3 perfbench/campaign.py --workload classical --seed 1 [--trace FILE]

Each case is timed around the call into the program alone; its output is
checked afterwards, outside the timed region.  The campaign prints one JSON
object with per-case times and verdicts, the campaign's peak resident set
and, with ``--trace``, the per-layer metrics (the spans go to FILE).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import cases
import tracing

DIGESTS = Path(__file__).with_name("digests.json")
# Case times are scaled to a machine on which reference_seconds() takes
# REFERENCE_S; see reference_seconds().
REFERENCE_S = 0.010


def _qparams(text):
    from qbailey.qparams import parse_qparam
    return [parse_qparam(t) for t in text.split(",")]


def call(case):
    """Run one case through the program; returns (exit code, report)."""
    import qbailey.cli
    import qbailey.corollaries
    import qbailey.pairs
    kind, *args = case
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qbailey.cli.main(["--format", "json", *args])
        text = buf.getvalue()
        return code, json.loads(text) if text.strip() else None
    if kind == "corollary_sum":
        m, r, i, cutoff = map(int, args)
        pair = qbailey.pairs.make_pair("shifted", m=m)
        lhs, rhs = qbailey.corollaries.corollary_sum(pair, r, i, "plain", cutoff)
        below = lambda s: {e: c for e, c in s.terms.items() if e < cutoff}
        passed = below(lhs) == below(rhs)
        return (0 if passed else 1), {
            "passed": passed, "lhs_terms": lhs.to_json(), "rhs_terms": rhs.to_json(),
            "compared_halves": min(lhs.cutoff, rhs.cutoff, cutoff)}
    if kind == "finite_n":
        m, r, i, n = map(int, args[:4])
        rhos, sigmas, cutoff = _qparams(args[4]), _qparams(args[5]), int(args[6])
        pair = qbailey.pairs.make_pair("shifted", m=m)
        rep = qbailey.corollaries.finite_n_check("Thm2_1", pair, r, i, n, rhos, sigmas,
                                                 cutoff)
        return (0 if rep.passed else 1), rep.to_json()
    raise ValueError(f"unknown case kind {kind!r}")


def digest(report):
    body = {k: v for k, v in report.items() if k != "runtime_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _terms(series_json):
    return {e: Fraction(c) for e, c in series_json["terms"]}


def _cutoff(case):
    kind, *args = case
    if kind == "cli":
        return int(args[args.index("--cutoff") + 1])
    return int(args[-1])


def check(case, code, report, expected):
    """Reasons the case is not a fully checked PASS; [] when it is one.

    ``expected`` is the digest recorded for the case, or None when the
    reference commit got the verdict wrong and so recorded none.

    A case passes when the program reports PASS (every case is a true
    identity), compared every coefficient below the cutoff, reproduces the
    report recorded at the reference commit (where that commit's verdict was
    right), and, for ``rr``, equals the partition count of its product side.
    """
    if isinstance(report, str):
        return ["exception: " + report.strip().splitlines()[-1]]
    if report is None or code not in (0, 1):
        return [f"error exit {code}"]
    reasons = []
    if code != 0 or report.get("passed") is not True:
        reasons.append("verdict FAIL")
    compared = report.get("compared_halves")
    if compared is not None and compared != "inf" and compared < _cutoff(case):
        reasons.append(f"compared only below x^{compared}")
    if expected is not None and digest(report) != expected:
        reasons.append("report differs from the recorded reference")
    if report.get("identity") == "rr":
        from qbailey.oracle import CongruenceSpec, partition_gf
        i = int(report["params"]["i"])
        dp = partition_gf(CongruenceSpec(5, frozenset({0, 1 + i, 4 - i})),
                          _cutoff(case)).to_terms()
        for side in ("lhs_terms", "rhs_terms"):
            if _terms(report[side]) != dp:
                reasons.append(f"{side} differs from the partition count")
    return reasons


def recorded_digest(digests, case):
    key = cases.key(case)
    if key not in digests:
        raise KeyError(f"no reference recorded for case {key!r}; run record.py")
    return digests[key]


def reference_seconds():
    """Time of a fixed pure-Python workload: Fraction arithmetic and dict updates.

    A machine shared with other work can change speed by a third within
    minutes, and the engine's times change with it.  This
    workload shares no code with the engine, so no change to the engine
    moves it.  It runs before every case and after the last one, on the same
    processor, and each case's time is multiplied by REFERENCE_S over the
    mean of the two reference times around it.
    """
    t0 = time.perf_counter()
    total, step = Fraction(0), Fraction(3, 7)
    for k in range(1, 1200):
        total += step * k / (k + 1)
    for _ in range(10):
        counts = {}
        for k in range(2000):
            counts[k] = counts.get(k - 1, 0) + k
    return time.perf_counter() - t0


def run_case(case):
    """(seconds, exit code, report) for one case; the time covers the call only.

    An exception escaping the program is a failed case, not a failed
    campaign: its exit code is None and the report is the traceback.
    """
    t0 = time.perf_counter()
    try:
        code, report = call(case)
    except Exception:
        code, report = None, traceback.format_exc()
    return time.perf_counter() - t0, code, report


def coeff_bits(report):
    bits = 0
    for side in ("lhs_terms", "rhs_terms"):
        if not isinstance(report, dict) or side not in report:
            continue
        for c in _terms(report[side]).values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def self_test(digests):
    """The injected-fault case must fail the same checks as a workload case."""
    case = cases.SELF_TEST + cases.SELF_TEST_FAULT
    _, code, report = run_case(case)
    reasons = check(cases.SELF_TEST, code, report, recorded_digest(digests, cases.SELF_TEST))
    return "verdict FAIL" in reasons and \
        "report differs from the recorded reference" in reasons


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None, metavar="FILE",
                    help="trace the campaign and write its spans to FILE")
    args = ap.parse_args(argv)

    with open(DIGESTS) as fh:
        digests = json.load(fh)
    campaign = cases.draw(args.workload, args.seed)

    import qbailey.cli
    from qbailey import qfunctions
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    caches = {"factor_cache": qfunctions._factors_series,
              "poch_cache": qfunctions._poch_cached}
    cache_deltas = {name: [0, 0] for name in caches}

    results = []
    reference_times = []
    bits = 0
    for idx, case in enumerate(campaign):
        reference_times.append(reference_seconds())
        before = {name: fn.cache_info() for name, fn in caches.items()}
        if tracer is not None:
            tracer.case_id = idx
        seconds, code, report = run_case(case)
        for name, fn in caches.items():
            info = fn.cache_info()
            cache_deltas[name][0] += info.hits - before[name].hits
            cache_deltas[name][1] += info.misses - before[name].misses
        reasons = check(case, code, report, recorded_digest(digests, case))
        if tracer is not None:
            bits = max(bits, coeff_bits(report))
        results.append({"case": cases.key(case), "raw_seconds": seconds,
                        "reported_pass": code == 0, "reasons": reasons})
    reference_times.append(reference_seconds())
    for i, r in enumerate(results):
        around = (reference_times[i] + reference_times[i + 1]) / 2
        r["seconds"] = r["raw_seconds"] * REFERENCE_S / around
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = sum(r["raw_seconds"] for r in results)

    out = {"workload": args.workload, "seed": args.seed, "cases": results,
           "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "speed": REFERENCE_S / statistics.median(reference_times)}
    if tracer is not None:
        tracer.case_id = -1
        out["layers"] = tracing.layer_metrics(tracer, wall_s, cache_deltas, bits)
        tracer.dump(args.trace, [cases.key(c) for c in campaign])
    else:
        out["self_test_ok"] = self_test(digests)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
