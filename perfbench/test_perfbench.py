"""Tests of the benchmark itself, on tiny grids.

    python3 -m pytest -q perfbench/test_perfbench.py

They show that every output check can flip an op to failed (or wrong), that
every named metric is printed with its unit, that the traced run's span self
times add up to its wall time, and that the benchmark refuses to run without
the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import neelwall  # noqa: E402
from neelwall import cli  # noqa: E402

N = 257
HW = 20.0
NAMED_METRICS = ("setup_s", "refine_s", "solves_per_s", "verify_s", "certify_s", "oracle_s",
                 "fail_frac", "peak_rss_mb")


def _cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def _solve(out, nu=1.0, h=0.25, init="template", *extra) -> int:
    return _cli("solve", "--nu", nu, "--h", h, "--n", N, "--half-width", HW, "--init", init,
                "--out-dir", out, *extra)[0]


def _bench(*argv, cwd=ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    res = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *map(str, argv)],
                         cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = res.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return res, last


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- each output check can fail ------------------------------------------

def test_solve_check_passes_then_flips_on_perturbed_reference(tmp_path):
    out = str(tmp_path / "a")
    assert _solve(out) == 0
    key = checks.solve_key(1.0, 0.25, N, HW, "template", 0)
    energy = json.load(open(os.path.join(out, "energy.json")))["total"]
    exact = checks.Reference({key: {"E": energy, "converged": True}})
    assert checks.check_solve(neelwall, out, 0, key, exact).status == "ok"
    assert exact.checked == 1
    perturbed = checks.Reference({key: {"E": energy * (1 + 1e-9), "converged": True}})
    outcome = checks.check_solve(neelwall, out, 0, key, perturbed)
    assert outcome.status == "wrong" and "reference" in outcome.reason


def test_solve_check_fails_when_not_converged(tmp_path):
    out = str(tmp_path / "a")
    rc = _solve(out, 1.0, 0.25, "template", "--max-iter", "3")
    assert rc == 2
    outcome = checks.check_solve(neelwall, out, rc, "k", checks.Reference())
    assert outcome.status == "failed" and "not converged" in outcome.reason
    # an exit code that disagrees with report.json is a wrong output
    assert checks.check_solve(neelwall, out, 0, "k", checks.Reference()).status == "wrong"


def test_solve_check_catches_energy_file_disagreeing_with_profile(tmp_path):
    out = str(tmp_path / "a")
    assert _solve(out) == 0
    path = os.path.join(out, "energy.json")
    doc = json.load(open(path))
    doc["total"] *= 1 + 1e-8
    json.dump(doc, open(path, "w"))
    outcome = checks.check_solve(neelwall, out, 0, "k", checks.Reference())
    assert outcome.status == "wrong" and "saved profile" in outcome.reason


def _kink(path, nu=1.0, h=0.25):
    grid = neelwall.make_grid(N, HW)
    p = neelwall.make_initial_profile(grid, neelwall.make_params(nu, h), kind="kink")
    neelwall.save_profile(path, p)
    return neelwall.energy(p, neelwall.make_operator(grid)).total


def test_path_check_fails_between_solution_and_kink(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert _solve(a) == 0 and _solve(b, 1.0, 0.25, "perturbed", "--seed", "3") == 0
    e_a = json.load(open(os.path.join(a, "energy.json")))["total"]
    e_b = json.load(open(os.path.join(b, "energy.json")))["total"]
    pa, pb = os.path.join(a, "profile.txt"), os.path.join(b, "profile.txt")
    rc, _ = _cli("path", pa, pb, "--out-dir", tmp_path / "ok")
    assert checks.check_path(str(tmp_path / "ok"), rc, e_a, e_b).status == "ok"

    kink = str(tmp_path / "kink.txt")
    e_k = _kink(kink)
    rc, _ = _cli("path", pa, kink, "--out-dir", tmp_path / "bad")
    outcome = checks.check_path(str(tmp_path / "bad"), rc, e_a, e_k)
    assert outcome.status == "failed" and "NOT_BOTH_SOLUTIONS" in outcome.reason
    # the path must end on the energies of its inputs
    assert checks.check_path(str(tmp_path / "bad"), rc, e_a, e_b).status == "wrong"


def test_verify_check_fails_on_a_kink(tmp_path):
    a = str(tmp_path / "a")
    assert _solve(a) == 0
    rc, _ = _cli("verify", os.path.join(a, "profile.txt"), "--out-dir", tmp_path / "ok")
    good = checks.check_verify(str(tmp_path / "ok"), rc)
    kink = str(tmp_path / "kink.txt")
    _kink(kink)
    rc, _ = _cli("verify", kink, "--out-dir", tmp_path / "bad")
    outcome = checks.check_verify(str(tmp_path / "bad"), rc)
    assert rc == 3 and outcome.status == "failed" and "el_residual" in outcome.reason
    # a verify.json that contradicts its exit code is a wrong output
    assert checks.check_verify(str(tmp_path / "bad"), 0).status == "wrong"
    assert good.status in ("ok", "failed")


def test_oracle_check():
    lines = "operator equivalence [a]: 1.000e-05\nseminorm identity [b]: {}\noracle: {}\n"
    assert checks.check_oracle(lines.format("2.0e-05", "PASS"), 0).status == "ok"
    failing = checks.check_oracle(lines.format("1.047e-04", "FAIL"), 3)
    assert failing.status == "failed" and "seminorm identity [b] 0.0001047" in failing.reason
    assert checks.check_oracle(lines.format("1.047e-04", "FAIL"), 0).status == "wrong"


def test_sweep_check(tmp_path):
    nus, hs = [0.5, 2.0], [0.0, 0.5]
    argv = ["sweep", "--nu-list", "0.5,2.0", "--h-list", "0.0,0.5", "--n", N, "--half-width", HW]
    rc, _ = _cli(*argv, "--out-dir", tmp_path / "ok")
    outcomes = checks.check_sweep(str(tmp_path / "ok"), rc, nus, hs, N, HW, checks.Reference())
    assert rc == 0 and [o.status for o in outcomes] == ["ok"] * 4
    ref = checks.Reference({o.key: {"E": o.values["E"] * (1 - 1e-9), "converged": True} for o in outcomes})
    assert [o.status for o in checks.check_sweep(str(tmp_path / "ok"), rc, nus, hs, N, HW, ref)] == ["wrong"] * 4

    rc, _ = _cli(*argv, "--max-iter", "3", "--out-dir", tmp_path / "short")
    outcomes = checks.check_sweep(str(tmp_path / "short"), rc, nus, hs, N, HW, checks.Reference())
    assert rc == 2 and all(o.status == "failed" for o in outcomes)


# -- the command line of the benchmark -----------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(workload, benchmark_json):
    res, last = _bench("--workload", workload, "--seed", 101, "--seconds", 0.5, "--trace", 0, "--smoke")
    assert res.returncode == 0, res.stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in last["metrics"].values())
    metric_lines = {ln.split()[1]: ln for ln in res.stdout.splitlines() if ln.startswith("metric ")}
    assert set(metric_lines) >= set(NAMED_METRICS)
    for name, line in metric_lines.items():
        assert "n/a" in line or "(n=" in line, line


def test_known_failure_is_counted_with_its_reason():
    res, last = _bench("--workload", "certify", "--seed", 102, "--seconds", 0.5, "--trace", 0, "--smoke")
    assert res.returncode == 0, res.stderr
    assert last["failed"] >= 1
    assert any("oracle FAIL" in ln for ln in res.stdout.splitlines() if ln.startswith("timed oracle"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, benchmark_json):
    res, last = _bench("--workload", workload, "--seed", 103, "--seconds", 0.5, "--trace", 1, "--smoke")
    assert res.returncode == 0, res.stderr
    expected = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert list(expected) == tracer.RESULT_LAYER
    for name, v in last["metrics"].items():
        if v["unit"] in ("s", "us"):
            assert v["value"] > 0, name
        elif name != "trace.overhead_frac":  # a difference of two timings
            assert v["value"] >= 0, name
    layer_lines = {ln.split()[1]: ln.split()[3] for ln in res.stdout.splitlines() if ln.startswith("layer ")}
    assert layer_lines == tracer.PER_LAYER
    m = {ln.split()[1]: float(ln.split()[2]) for ln in res.stdout.splitlines() if ln.startswith("layer ")}
    if workload == "certify":
        assert m["solver.iterations"] == 0 and m["halflap.seminorm.self_s"] > 0
    else:
        assert m["solver.iterations"] > 0 and m["solver.lbfgs.self_s"] > 0
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS + ("bench",))
    assert layer_self == pytest.approx(m["trace.attributed_s"], rel=1e-6)
    assert m["trace.attributed_s"] + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    assert 0 <= m["trace.unattributed_s"] < 0.05 * m["trace.wall_s"]


def test_reference_file_round_trip(tmp_path):
    res, last = _bench("--workload", "refine", "--seed", 104, "--seconds", 0.5, "--trace", 0, "--smoke")
    assert res.returncode == 0 and last["correct"]
    results = json.load(open(os.path.join(ROOT, ".perfbench", "refine-seed104-trace0", "results.json")))
    entries = {op["key"]: {"E": op["E"], "converged": op["converged"]} for op in results["ops"]}
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"entries": entries}))
    res, last = _bench("--workload", "refine", "--seed", 104, "--seconds", 0.5, "--trace", 0, "--smoke",
                       "--reference", ref)
    assert last["correct"] is True and last["failed"] == 0
    checked = re.search(r"^reference: (\d+) energies checked", res.stdout, re.M)
    assert int(checked.group(1)) >= len(entries)
    key = next(iter(entries))
    entries[key]["E"] *= 1 + 1e-9
    ref.write_text(json.dumps({"entries": entries}))
    res, last = _bench("--workload", "refine", "--seed", 104, "--seconds", 0.5, "--trace", 0, "--smoke",
                       "--reference", ref)
    assert last["correct"] is False and last["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res, last = _bench("--workload", "refine", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert res.returncode != 0 and last is None
