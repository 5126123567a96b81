"""Benchmark of the qbailey engine: classical, parametric and pairs workloads.

Run from the repository root:

    python3 perfbench/run.py --workload classical --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --seed 1 --trace 1        # every workload in turn

A run measures set-up time (a fresh interpreter importing ``qbailey.cli`` and
building its parser, repeated, median), then runs campaigns of the workload
(every case once, one after another, one client, each campaign in a fresh
interpreter) for up to ``--seconds``, at least one.  Each case's time is its
least over the campaigns, scaled to a reference machine speed (see
``campaign.reference_seconds``).  With ``--trace 1`` one more campaign runs
traced and the per-layer metrics, and the tracing overhead against the
untraced campaigns, are reported too; its spans are written under
``.perfbench/``.

Every case's output is checked (see ``campaign.check``).  ``failed`` counts
cases that are not a fully checked PASS; ``correct`` is false when the
program reported PASS on a case whose output is wrong, or when the harness
self-test (an injected fault) was not caught.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_PROBE = "import qbailey.cli; qbailey.cli.build_parser(); print('ready', flush=True)"
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env.pop("QBAILEY_WORKERS", None)
    # Users run from compiled bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                               else "")
    return env


def _remaining(deadline):
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


def setup_seconds(env, deadline, repeats):
    """Times from interpreter start until the CLI parser is built."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = p.communicate(timeout=_remaining(deadline))
        except (subprocess.TimeoutExpired, BenchError):
            p.kill()
            p.communicate()
            raise BenchError("set-up probe did not finish within the run limit")
        if p.returncode != 0 or line.strip() != b"ready":
            raise BenchError("cannot import qbailey.cli: " + err.decode().strip())
        times.append(elapsed)
    return times


def run_campaign(workload, seed, env, deadline, trace_file=None):
    cmd = [sys.executable, str(BENCH / "campaign.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} campaign did not finish within the run limit")
    if p.returncode != 0:
        raise BenchError(f"{workload} campaign exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def bench(workload, seed, seconds, trace, env):
    """(correct, attempted, failed, end-to-end metrics, per-layer metrics or None)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    # The first probe compiles the sources to bytecode, which users pay once,
    # so it is not counted.  Probes run before every campaign, so that the
    # median spans the whole run.
    setup_seconds(env, deadline, 1)
    setup = []
    runs = []
    measured = 0.0
    while True:
        setup += setup_seconds(env, deadline, SETUP_REPEATS)
        t0 = time.perf_counter()
        runs.append(run_campaign(workload, seed, env, deadline))
        last = time.perf_counter() - t0
        measured += last
        if measured + last > seconds:
            break
    attempted = sum(len(r["cases"]) for r in runs)
    bad = [c for r in runs for c in r["cases"] if c["reasons"]]
    silent = [c for c in bad if c["reported_pass"]]
    correct = not silent and all(r["self_test_ok"] for r in runs)
    # Campaigns of one seed run the same cases in the same order, so each
    # case has one time per campaign; its least time is the one least
    # disturbed by other load on the machine.
    def least(key):
        return [min(times) for times in zip(*([c[key] for c in r["cases"]]
                                              for r in runs))]

    best, raw_best = least("seconds"), least("raw_seconds")
    speed = statistics.median(r["speed"] for r in runs)
    e2e = {
        "wall_s": metric(sum(best), "s"),
        "case_max_s": metric(max(best), "s"),
        "setup_s": metric(statistics.median(setup) * speed, "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "pass_ratio": metric((attempted - len(bad)) / attempted, "ratio"),
    }
    for r in runs:
        if not r["self_test_ok"]:
            print(f"{workload}: the injected fault was not caught by the checks")
    for case, reasons in {c["case"]: c["reasons"] for c in bad}.items():
        print(f"{workload}: FAIL {case}: {'; '.join(reasons)}")
    print(f"{workload}: seed {seed}, {len(runs)} campaign(s) of "
          f"{attempted // len(runs)} cases, fail_ratio {len(bad)}/{attempted}")
    print(f"{workload}: unscaled wall_s {sum(raw_best):.6g} s, case_max_s {max(raw_best):.6g} s, "
          f"setup_s {statistics.median(setup):.6g} s; speed factor {speed:.6g}")
    layers = None
    if trace:
        OUT.mkdir(exist_ok=True)
        traced = run_campaign(workload, seed, env, deadline,
                              OUT / f"spans-{workload}-{seed}.json")
        layers = traced["layers"]
        traced_s = traced["wall_s"] * traced["speed"]
        layers["trace.wall_s"] = metric(traced_s, "s")
        layers["trace.overhead_s"] = metric(
            traced_s - statistics.median(r["wall_s"] * r["speed"] for r in runs), "s")
    return correct, attempted, len(bad), e2e, layers


def main(argv=None):
    ap = argparse.ArgumentParser(description="qbailey engine benchmark")
    ap.add_argument("--workload", default="all", choices=[*cases.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qbailey" / "cli.py").is_file():
        print(f"no qbailey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _env()
    workloads = list(cases.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            correct, attempted, failed, e2e, layers = bench(
                workload, args.seed, args.seconds, args.trace, env)
        except BenchError as e:
            print(f"benchmark error: {e}", file=sys.stderr)
            return 1
        for name, m in e2e.items():
            print(f"{workload}: {name:12s} {m['value']:.6g} {m['unit']}")
        for name, m in sorted((layers or {}).items()):
            print(f"{workload}: {name:36s} {m['value']:.6g} {m['unit']}")
        result["correct"] = result["correct"] and correct
        result["attempted"] += attempted
        result["failed"] += failed
        chosen = layers if args.trace else e2e
        prefix = f"{workload}." if len(workloads) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in chosen.items()})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
