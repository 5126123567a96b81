"""Command-line front end: verification runs, batch campaigns, JSON reports.

Exit codes: 0 pass, 1 coefficient mismatch, 2 usage/parameter error,
3 internal/truncation error.  Cutoffs are given in halves (lattice units of
q^(1/2)) everywhere.  Parameter syntax: 'c*q^(h/2)' with c a rational
literal, plus the shortcuts 'q', 'q^2', '-q^(1/2)', plain rationals, '0'
and 'inf'.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .errors import BadParam, PoleError, QBaileyError, TruncationUnreachable, UnknownIdentity
from .qparams import parse_qparam
from .catalog import CATALOG, evaluate_identity, identity_names
from .series import Series
from .transforms import REGISTRY
from .checks import transform_check

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _parse_params(pairs):
    out = {}
    for raw in pairs or []:
        if "=" not in raw:
            raise BadParam(f"parameter must look like name=value, got {raw!r}")
        name, val = raw.split("=", 1)
        out[name.strip()] = val.strip()
    return out


def _int(value, what):
    """An int, or a string that spells one, as an int; BadParam otherwise."""
    if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise BadParam(f"{what} must be an integer, got {value!r}")


def _coerce_identity_params(name, raw):
    if not isinstance(name, str) or name not in CATALOG:
        raise UnknownIdentity(f"unknown identity {name!r}")
    desc = CATALOG[name]
    params = {}
    for key in desc.int_params:
        if key not in raw:
            raise BadParam(f"{name} needs --param {key}=<int>")
        params[key] = _int(raw.pop(key), f"{name} parameter {key}")
    for key in desc.qparam_params:
        if key not in raw:
            raise BadParam(f"{name} needs --param {key}=<qparam>")
        params[key] = parse_qparam(raw.pop(key))
    for key in desc.list_params:
        vals = []
        idx = 1
        while f"{key[:-1]}{idx}" in raw or f"{key}{idx}" in raw:
            k = f"{key[:-1]}{idx}" if f"{key[:-1]}{idx}" in raw else f"{key}{idx}"
            vals.append(parse_qparam(raw.pop(k)))
            idx += 1
        params[key] = vals
    if raw:
        spelled = "".join(f"; {key} are given in order as {key}1, {key}2, ..."
                          for key in desc.list_params)
        raise BadParam(f"unknown parameters for {name}: {sorted(raw)}{spelled}")
    return params


def _make_report_dir(report_dir):
    """Create the report directory before computing, so an unusable one costs no run."""
    try:
        Path(report_dir).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise BadParam(f"cannot use --report-dir {report_dir}: {e}") from e


def _write_report(report_dir, stem, payload):
    if not report_dir:
        return
    out = Path(report_dir) / f"{stem}.json"
    try:
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise BadParam(f"cannot write report {out}: {e}") from e


def _inject_fault(report, halves):
    """Self-test hook: bump the LHS coefficient at x^halves and compare again."""
    lhs = Series(dict(report.lhs.terms), report.lhs.cutoff)
    lhs.terms[halves] = lhs.terms.get(halves, 0) + 1
    report.lhs = lhs
    report.compare()


def cmd_verify(args) -> int:
    raw = _parse_params(args.param)
    for short in ("m", "r", "i", "k"):
        val = getattr(args, short, None)
        if val is not None:
            raw[short] = str(val)
    name = args.identity
    if name not in CATALOG:
        print(f"unknown identity {name!r}; try: {', '.join(identity_names())}",
              file=sys.stderr)
        return EXIT_USAGE
    params = _coerce_identity_params(name, raw)
    t0 = time.perf_counter()
    report = evaluate_identity(name, params, args.cutoff)
    if args.inject_fault is not None:
        _inject_fault(report, args.inject_fault)
    report.runtime_ms = (time.perf_counter() - t0) * 1000.0
    payload = report.to_json()
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        n_matched = len(set(report.lhs.terms) | set(report.rhs.terms))
        verdict = "PASS" if report.passed else "FAIL"
        shown = " ".join(f"{k}={','.join(v) if isinstance(v, list) else v}"
                         for k, v in payload["params"].items())
        print(f"{verdict} {name} {shown} cutoff=x^{args.cutoff} "
              f"({n_matched} coefficients, {report.runtime_ms:.0f} ms)")
        if report.first_divergence is not None:
            print(f"  first divergence: {report.first_divergence}", file=sys.stderr)
        elif not report.passed:
            print(f"  compared only below x^{report.compared}", file=sys.stderr)
    _write_report(args.report_dir, f"verify_{name}_{int(time.time() * 1000)}", payload)
    return EXIT_PASS if report.passed else EXIT_MISMATCH


def cmd_transform_check(args) -> int:
    name = args.transform
    if name not in REGISTRY:
        print(f"unknown transform {name!r}; try: {', '.join(sorted(REGISTRY))}",
              file=sys.stderr)
        return EXIT_USAGE
    payload = transform_check(name, trials=args.trials, seed=args.seed,
                              cutoff=args.cutoff, n_min=args.n_min, n_max=args.n_max)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in payload["soundness"]:
            print(f"{'PASS' if r['passed'] else 'FAIL'} soundness {name} "
                  f"pair={r['pair']} params={r['params']}")
        for c in payload["compositions"]:
            print(f"{'PASS' if c['passed'] else 'FAIL'} composition {c['label']}")
    _write_report(args.report_dir, f"transform_{name}_{args.seed}", payload)
    return EXIT_PASS if payload["passed"] else EXIT_MISMATCH


def _entry_int(entry, key, default=None):
    """The batch entry's integer ``key``; ``default`` when it is absent."""
    if key not in entry and default is not None:
        return default
    return _int(entry.get(key), f"the entry's {key!r}")


def run_entry(entry: dict) -> dict:
    """Execute one batch entry (a verify or transform-check config)."""
    t0 = time.perf_counter()
    try:
        if not isinstance(entry, dict):
            raise BadParam(f"a batch entry must be a JSON object, got {entry!r}")
        cmd = entry.get("command")
        if cmd == "verify":
            name, params = entry.get("identity"), entry.get("params", {})
            if not isinstance(params, dict):
                raise BadParam(f"the entry's 'params' must be an object, got {params!r}")
            params = _coerce_identity_params(name, {k: str(v) for k, v in params.items()})
            rep = evaluate_identity(name, params, _entry_int(entry, "cutoff"))
            if entry.get("inject_fault") is not None:
                _inject_fault(rep, _entry_int(entry, "inject_fault"))
            out = rep.to_json()
        elif cmd == "transform-check":
            name = entry.get("transform")
            if not isinstance(name, str) or name not in REGISTRY:
                raise BadParam(f"unknown transform {name!r}")
            out = transform_check(name, trials=_entry_int(entry, "trials", 3),
                                  seed=_entry_int(entry, "seed", 0),
                                  cutoff=_entry_int(entry, "cutoff", 40))
        else:
            raise BadParam(f"unknown command {cmd!r}")
    except (BadParam, UnknownIdentity) as e:
        return {"entry": entry, "passed": False, "error": str(e), "usage_error": True}
    except QBaileyError as e:
        return {"entry": entry, "passed": False, "error": str(e), "internal_error": True}
    out["entry"] = entry
    out["runtime_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    return out


def cmd_batch(args) -> int:
    try:
        with open(args.file) as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise ValueError("batch file must hold a JSON array")
    except (OSError, ValueError) as e:
        print(f"cannot read batch file: {e}", file=sys.stderr)
        return EXIT_USAGE
    workers = min(_int(os.environ.get("QBAILEY_WORKERS", "1"), "QBAILEY_WORKERS"),
                  len(entries))
    if workers > 1:
        # imported here, not at the top: multiprocessing would slow every start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_entry, entries))
    else:
        results = [run_entry(e) for e in entries]
    n_pass = sum(1 for r in results if r.get("passed"))
    usage = any(r.get("usage_error") for r in results)
    internal = any(r.get("internal_error") for r in results)
    summary = {
        "total": len(entries),
        "passed": n_pass,
        "failed": len(entries) - n_pass,
        "results": results,
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    else:
        print(f"batch: {n_pass}/{len(entries)} passed")
        for r in results:
            if not r.get("passed"):
                print(f"  FAIL {r.get('entry')}: {r.get('error', 'mismatch')}")
    _write_report(args.report_dir, "batch_summary", summary)
    if usage:
        return EXIT_USAGE
    if internal:
        return EXIT_INTERNAL
    return EXIT_PASS if n_pass == len(entries) else EXIT_MISMATCH


def cmd_list(args) -> int:
    identities = [CATALOG[n].to_json() for n in identity_names()]
    transforms = [REGISTRY[n].to_json() for n in sorted(REGISTRY)]
    if args.format == "json":
        print(json.dumps({"identities": identities, "transforms": transforms},
                         indent=2, sort_keys=True))
    else:
        print("identities:")
        for d in identities:
            print(f"  {d['name']:16s} {d['summary']}  [{d['domain']}]")
        print("transforms:")
        for d in transforms:
            print(f"  {d['id']:16s} {d['summary']}  (a -> {d['relative_parameter']})")
    return EXIT_PASS


def build_parser():
    p = argparse.ArgumentParser(prog="qbailey",
                                description="exact q-series identity verifier")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--report-dir", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify one identity at given parameters")
    v.add_argument("--identity", required=True)
    v.add_argument("--cutoff", type=int, required=True,
                   help="truncation order in halves (x = q^(1/2))")
    v.add_argument("--m", type=int, default=None)
    v.add_argument("--r", type=int, default=None)
    v.add_argument("--i", type=int, default=None)
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--param", action="append",
                   help="extra parameter name=value (repeatable)")
    v.add_argument("--inject-fault", type=int, default=None, metavar="HALVES",
                   help="self-test: bump the LHS coefficient at this exponent")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("transform-check", help="run the transform soundness suite")
    t.add_argument("--transform", required=True)
    t.add_argument("--trials", type=int, default=5)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--cutoff", type=int, default=60,
                   help="soundness truncation order in halves; the composition "
                        "checks compare below min(cutoff, 40)")
    t.add_argument("--n-min", type=int, default=-6)
    t.add_argument("--n-max", type=int, default=6)
    t.set_defaults(func=cmd_transform_check)

    b = sub.add_parser("batch", help="run a JSON array of configs")
    b.add_argument("--file", required=True)
    b.set_defaults(func=cmd_batch)

    l = sub.add_parser("list", help="list identities and transforms")
    l.set_defaults(func=cmd_list)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_PASS
    try:
        if args.report_dir:
            _make_report_dir(args.report_dir)
        return args.func(args)
    except (BadParam, UnknownIdentity) as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (TruncationUnreachable, PoleError) as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except QBaileyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
