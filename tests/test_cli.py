"""CLI exit codes, JSON reports, and batch execution."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "qbailey.cli"]


def run(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=full_env)


def test_verify_pass_exit_zero():
    r = run("verify", "--identity", "rr", "--i", "1", "--cutoff", "80")
    assert r.returncode == 0, r.stderr
    assert "PASS" in r.stdout


def test_verify_json_output():
    r = run("--format", "json", "verify", "--identity", "ag",
            "--r", "2", "--i", "1", "--cutoff", "40")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["passed"] is True
    assert payload["identity"] == "ag"
    assert payload["lhs_terms"]["terms"][0] == [0, "1"]


def test_verify_domain_violation_exit_two():
    r = run("verify", "--identity", "mag", "--m", "-1", "--r", "2", "--i", "0",
            "--cutoff", "20")
    assert r.returncode == 2
    r = run("verify", "--identity", "nope", "--cutoff", "20")
    assert r.returncode == 2


def test_injected_fault_exit_one_with_divergence():
    r = run("--format", "json", "verify", "--identity", "ag", "--r", "2",
            "--i", "1", "--cutoff", "40", "--inject-fault", "10")
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["passed"] is False
    assert payload["first_divergence"]["exponent_halves"] == 10


def test_qparam_cli_round_trip():
    r = run("--format", "json", "verify", "--identity", "lambda1",
            "--r", "2", "--i", "1", "--cutoff", "30",
            "--param", "a=q", "--param", "b1=2*q^(2/2)",
            "--param", "c1=inf", "--param", "c2=inf")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["params"]["b1"] == "2*q^(2/2)"


def test_transform_check_and_unknown_transform():
    r = run("transform-check", "--transform", "key1", "--trials", "2",
            "--seed", "7", "--cutoff", "40")
    assert r.returncode == 0, r.stdout + r.stderr
    r = run("transform-check", "--transform", "nope")
    assert r.returncode == 2


def test_reports_are_deterministic_modulo_timing(tmp_path):
    out1 = run("--format", "json", "--report-dir", str(tmp_path / "a"),
               "verify", "--identity", "rr", "--i", "0", "--cutoff", "60")
    out2 = run("--format", "json", "--report-dir", str(tmp_path / "b"),
               "verify", "--identity", "rr", "--i", "0", "--cutoff", "60")
    p1 = json.loads(out1.stdout)
    p2 = json.loads(out2.stdout)
    p1.pop("runtime_ms")
    p2.pop("runtime_ms")
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    reports = list((tmp_path / "a").glob("*.json"))
    assert len(reports) == 1


def test_batch_all_pass_and_fault(tmp_path):
    batch = [
        {"command": "verify", "identity": "rr", "params": {"i": 0}, "cutoff": 60},
        {"command": "verify", "identity": "gg", "params": {"i": 1}, "cutoff": 60},
        {"command": "transform-check", "transform": "key2", "trials": 1,
         "seed": 3, "cutoff": 36},
    ]
    f = tmp_path / "batch.json"
    f.write_text(json.dumps(batch))
    r = run("--format", "json", "batch", "--file", str(f))
    assert r.returncode == 0, r.stdout + r.stderr
    summary = json.loads(r.stdout)
    assert summary["passed"] == 3

    batch.append({"command": "verify", "identity": "ag",
                  "params": {"r": 2, "i": 1}, "cutoff": 40, "inject_fault": 10})
    f.write_text(json.dumps(batch))
    r = run("--format", "json", "batch", "--file", str(f))
    assert r.returncode == 1
    summary = json.loads(r.stdout)
    assert summary["failed"] == 1
    failing = [x for x in summary["results"] if not x["passed"]]
    assert failing[0]["entry"]["identity"] == "ag"
    assert failing[0]["first_divergence"]["exponent_halves"] == 10
    # a batch fault reports exactly what verify --inject-fault reports
    single = json.loads(run("--format", "json", "verify", "--identity", "ag",
                            "--r", "2", "--i", "1", "--cutoff", "40",
                            "--inject-fault", "10").stdout)
    for key in ("lhs_terms", "first_divergence", "compared_halves"):
        assert failing[0][key] == single[key]


def _without_runtimes(summary):
    for result in summary["results"]:
        result.pop("runtime_ms")
    return summary


def test_batch_parallel_workers(tmp_path):
    batch = [{"command": "verify", "identity": "rr", "params": {"i": i % 2},
              "cutoff": 40} for i in range(4)]
    f = tmp_path / "batch.json"
    f.write_text(json.dumps(batch))
    # the pool changes where entries run, never what they report
    parallel, serial = (
        run("--format", "json", "batch", "--file", str(f), env={"QBAILEY_WORKERS": n})
        for n in ("2", "1"))
    assert parallel.returncode == serial.returncode == 0, parallel.stderr + serial.stderr
    assert (_without_runtimes(json.loads(parallel.stdout))
            == _without_runtimes(json.loads(serial.stdout)))


@pytest.mark.parametrize("workers", ["two", ""], ids=["text", "empty"])
def test_bad_worker_count_exits_two(tmp_path, workers):
    f = tmp_path / "batch.json"
    f.write_text(json.dumps([{"command": "verify", "identity": "rr",
                              "params": {"i": 0}, "cutoff": 10}] * 2))
    r = run("batch", "--file", str(f), env={"QBAILEY_WORKERS": workers})
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr and "QBAILEY_WORKERS" in r.stderr


def test_unusable_report_dir_exits_two(tmp_path):
    parent = tmp_path / "a-file"
    parent.write_text("")
    r = run("--report-dir", str(parent / "sub"),
            "verify", "--identity", "rr", "--i", "0", "--cutoff", "20")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr and "--report-dir" in r.stderr
    assert r.stdout == ""
    # a report that cannot be written is a usage error too, not a mismatch
    (tmp_path / "reports" / "batch_summary.json").mkdir(parents=True)
    f = tmp_path / "empty.json"
    f.write_text("[]")
    r = run("--report-dir", str(tmp_path / "reports"), "batch", "--file", str(f))
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr and "cannot write report" in r.stderr


@pytest.mark.parametrize("code", [
    "import qbailey.cli; qbailey.cli.build_parser()",
    "import qbailey",
], ids=["cli", "package"])
def test_start_up_loads_no_worker_pool(code):
    # only a batch on more than one worker needs multiprocessing
    probe = (code + "; import sys; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_batch_malformed_exit_two(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{\"not\": \"a list\"}")
    assert run("batch", "--file", str(f)).returncode == 2
    f.write_text("[{\"command\": \"frobnicate\"}]")
    assert run("batch", "--file", str(f)).returncode == 2


def test_empty_batch(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text("[]")
    r = run("--format", "json", "batch", "--file", str(f))
    assert r.returncode == 0
    assert json.loads(r.stdout)["total"] == 0


def test_list_machine_readable():
    r = run("--format", "json", "list")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert len(payload["transforms"]) == 18
    names = {d["name"] for d in payload["identities"]}
    assert {"rr", "ag", "mag", "bressoud_master"} <= names


def test_verify_human_output_prints_params_as_monomials():
    r = run("verify", "--identity", "lambda1", "--r", "2", "--i", "1",
            "--cutoff", "30", "--param", "a=q", "--param", "b1=2*q^(2/2)",
            "--param", "c1=inf", "--param", "c2=inf")
    assert r.returncode == 0, r.stderr
    assert "QParam(" not in r.stdout
    assert "b1=2*q^(2/2)" in r.stdout


def test_short_compare_is_not_a_pass(tmp_path, monkeypatch, capsys):
    import dataclasses
    from qbailey import catalog, cli

    desc = catalog.CATALOG["rr"]
    short = dataclasses.replace(desc, rhs=lambda p, c: desc.rhs(p, c).truncate(c - 10))
    monkeypatch.setitem(catalog.CATALOG, "rr", short)
    assert cli.main(["verify", "--identity", "rr", "--i", "0", "--cutoff", "60"]) == 1
    out = capsys.readouterr()
    assert out.out.startswith("FAIL")
    assert "compared only below x^50" in out.err

    f = tmp_path / "batch.json"
    f.write_text(json.dumps([{"command": "verify", "identity": "rr",
                              "params": {"i": 0}, "cutoff": 60}]))
    assert cli.main(["--format", "json", "batch", "--file", str(f)]) == 1
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert result["passed"] is False
    assert result["compared_halves"] == 50


def test_batch_transform_check_reports_what_the_command_reports(tmp_path):
    # one transform-check path: batch entries run the composition checks too
    r = run("--format", "json", "transform-check", "--transform", "key1",
            "--seed", "3", "--trials", "2", "--cutoff", "30")
    assert r.returncode == 0, r.stderr
    command = json.loads(r.stdout)
    assert command["compositions"]
    f = tmp_path / "batch.json"
    f.write_text(json.dumps([{"command": "transform-check", "transform": "key1",
                              "seed": 3, "trials": 2, "cutoff": 30}]))
    r = run("--format", "json", "batch", "--file", str(f))
    assert r.returncode == 0, r.stderr
    entry = json.loads(r.stdout)["results"][0]
    for key in ("soundness", "compositions", "passed"):
        assert entry[key] == command[key], key


def test_deep_lambda1_report_digest():
    # r=3 i=2 at a = 3*q^(-40/2): a deep lambda1 case outside the benchmark,
    # pinned to its report (less runtime_ms) from before lambda1 was a
    # parameter map onto the master identity
    r = run("--format", "json", "verify", "--identity", "lambda1", "--r", "3",
            "--i", "2", "--cutoff", "40", "--param", "a=3*q^(-40/2)",
            "--param", "b1=2*q", "--param", "c1=inf", "--param", "c2=inf")
    assert r.returncode == 0, r.stderr
    body = {k: v for k, v in json.loads(r.stdout).items() if k != "runtime_ms"}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == "b848c2dbed138c7a08105118eabf813e45b1a56970de89de7de9a3a6dd7938d6"


def test_lattice_inner_parameter_spellings():
    args = ["--format", "json", "verify", "--identity", "lattice3", "--r", "3", "--i", "2",
            "--cutoff", "20", "--param", "a=2*q^(2/2)", "--param", "rho1=3*q^(1/2)",
            "--param", "rho=5/2*q^(2/2)", "--param", "sigma=3/2*q^(1/2)"]
    reports = []
    for inner in (["rhos1=-2*q^(1/2)", "sigmas1=5*q^(2/2)"],
                  ["rhos1=-2*q^(1/2)", "sigma1=5*q^(2/2)"]):
        r = run(*args, *(x for p in inner for x in ("--param", p)))
        assert r.returncode == 0, r.stderr
        reports.append({k: v for k, v in json.loads(r.stdout).items() if k != "runtime_ms"})
    assert reports[0] == reports[1]
    r = run(*args, "--param", "rho2=-2*q^(1/2)", "--param", "sigma2=5*q^(2/2)")
    assert r.returncode == 2
    assert "rhos1, rhos2" in r.stderr and "sigmas1, sigmas2" in r.stderr


@pytest.mark.parametrize("args", [
    ("--trials", "1", "--n-min", "3", "--n-max", "-3", "--cutoff", "10"),
    ("--trials", "0"),
], ids=["empty-window", "zero-trials"])
def test_transform_check_that_compares_nothing_exits_two(args):
    # a PASS must mean compared: no window and no trial both used to pass
    r = run("--format", "json", "transform-check", "--transform", "key2", *args)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""


_ZERO_DENOMINATOR = {"r": 2, "i": 1, "a": "1/0", "b1": "inf", "c1": "inf", "c2": "inf"}


def test_zero_denominator_parameter_exits_two():
    r = run("verify", "--identity", "lambda1", "--r", "2", "--i", "1", "--cutoff", "10",
            *(x for k in ("a", "b1", "c1", "c2")
              for x in ("--param", f"{k}={_ZERO_DENOMINATOR[k]}")))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr and "1/0" in r.stderr


@pytest.mark.parametrize("entry", [
    {"command": "verify", "identity": "lambda1", "params": _ZERO_DENOMINATOR, "cutoff": 10},
    {"command": "verify", "identity": "rr", "params": {"i": 0}},
    {"command": "verify", "identity": "rr", "params": {"i": 0}, "cutoff": "abc"},
    {"command": "verify", "identity": "rr", "params": {"i": "abc"}, "cutoff": 10},
    {"command": "verify", "identity": "rr", "params": [0], "cutoff": 10},
    {"command": "verify", "identity": "nope", "cutoff": 10},
    {"command": "transform-check", "transform": "key2", "trials": "abc"},
    {"command": "transform-check", "transform": "nope"},
    {"command": "transform-check", "transform": "key2", "trials": 0, "cutoff": 10},
    [3],
], ids=["zero-denominator", "no-cutoff", "text-cutoff", "text-int-param",
        "params-not-object", "unknown-identity", "text-trials", "unknown-transform",
        "zero-trials", "not-an-object"])
def test_malformed_batch_entry_exits_two(tmp_path, entry):
    f = tmp_path / "batch.json"
    f.write_text(json.dumps([entry]))
    r = run("--format", "json", "batch", "--file", str(f))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    result, = json.loads(r.stdout)["results"]
    assert result["usage_error"] and result["entry"] == entry
