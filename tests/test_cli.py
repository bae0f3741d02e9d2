import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from neelwall import (
    far_field_constant,
    fit_decay,
    load_profile,
    make_grid,
    make_initial_profile,
    make_params,
    minimize,
    save_profile,
    uniqueness_certificate,
    verify,
)
import neelwall.cli as cli
import neelwall.solver as solver
from neelwall.cli import main
from neelwall.energy import GRAD_TOL
from neelwall.path import PathPoint

# verify gates el_residual at the solver's default grad_tol, so a profile it
# must pass is solved at that tolerance, not at FAST's looser one
SOLUTION = ["--n", "257", "--half-width", "20"]
FAST = [*SOLUTION, "--grad-tol", "1e-5"]


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    code = run(["solve", "--nu", "1", "--h", "0.3", "--out-dir", str(out)] + SOLUTION)
    assert code == 0
    return out


def test_solve_outputs(solved_dir):
    for name in ("profile.txt", "energy.json", "report.json"):
        assert (solved_dir / name).exists()
    report = json.loads((solved_dir / "report.json").read_text())
    assert report["converged"] is True
    assert report["final_grad_norm"] <= 1e-5
    energy = json.loads((solved_dir / "energy.json").read_text())
    assert energy["total"] > 0.0


def test_solve_report_counts_evaluations(solved_dir):
    report = json.loads((solved_dir / "report.json").read_text())
    assert report["evaluations"] >= report["iterations"] >= 1
    assert "restarts" not in report


def test_solve_not_converged(tmp_path):
    code = run(
        ["solve", "--nu", "1", "--out-dir", str(tmp_path), "--max-iter", "3"]
        + ["--n", "257", "--half-width", "20", "--grad-tol", "1e-12"]
    )
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False
    assert report["stop"] == "max_iter"


def test_default_solve_stops_on_the_gradient_tolerance(tmp_path):
    assert run(["solve", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["stop"] == "grad_tol" and report["converged"] is True


def test_perturbed_default_solve_converges_without_restarts(tmp_path):
    # runs that stop on the free-node gradient leave the center residual
    # above the tolerance here: 289 evaluations and exit 2
    assert run(["solve", "--nu", "1", "--h", "0", "--n", "4097", "--init", "perturbed",
                "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["stop"] == "grad_tol"


@pytest.mark.parametrize("half_width", ["1e308", "1e200", "1e-300"])
def test_solve_on_a_half_width_the_grid_cannot_space_exits_1(half_width, tmp_path, capsys):
    code = run(["solve", "--n", "257", "--half-width", half_width, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: half_width") and "Traceback" not in err
    assert not (tmp_path / "profile.txt").exists()


def test_report_verify_and_certificate_read_the_same_gradient_norm(tmp_path, capsys):
    grid = ["--n", "257", "--half-width", "20"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["solve", *grid, "--out-dir", str(a)]) == 0
    assert run(["solve", *grid, "--init", "perturbed", "--seed", "3", "--out-dir", str(b)]) == 0
    assert run(["verify", str(a / "profile.txt"), "--out-dir", str(tmp_path / "v")]) == 0
    capsys.readouterr()
    assert run(["path", str(a / "profile.txt"), str(b / "profile.txt"), "--out-dir", str(tmp_path / "ab")]) == 0
    assert capsys.readouterr().out.startswith("certificate: COINCIDE ")
    report = json.loads((a / "report.json").read_text())
    checks = json.loads((tmp_path / "v" / "verify.json").read_text())["checks"]
    cert = json.loads((tmp_path / "ab" / "certificate.json").read_text())
    assert report["final_grad_norm"] == checks["el_residual"]["max"] == cert["max_grad_1"]


def test_every_solution_test_reads_the_one_tolerance(solved_dir):
    # solve takes grad_tol as an option; verify and path test a profile at
    # GRAD_TOL and read no grad_tol
    el_residual = verify(load_profile(solved_dir / "profile.txt"))["checks"]["el_residual"]
    assert cli.FLAGS["grad_tol"][1] == solver.SolveOptions().grad_tol == GRAD_TOL
    assert el_residual["tol"] == GRAD_TOL
    assert "grad_tol" not in cli.COMMANDS["verify"] and "grad_tol" not in cli.COMMANDS["path"]
    assert cli.FLAGS["max_iter"][1] == solver.SolveOptions().max_iter


def test_verify_and_path_refuse_a_profile_solved_short_of_the_tolerance(tmp_path, capsys):
    # a solution plus 2e-6 times an odd bump, zero at both ends: sup|g|/dx
    # reads 2.92e-6, a factor 3 from the 1e-6 gate and from 1e-5, so the
    # profile misses the tolerance by construction, not by where a solve stops
    a = tmp_path / "a"
    assert run(["solve", *SOLUTION, "--out-dir", str(a)]) == 0
    p = load_profile(a / "profile.txt")
    x = p.grid.nodes
    bump = x * np.exp(-x * x / 2.0)
    bump[[0, -1]] = 0.0
    short = tmp_path / "short.txt"
    save_profile(short, p.with_theta(p.theta + 2e-6 * bump))
    capsys.readouterr()
    assert run(["verify", str(short), "--out-dir", str(tmp_path / "v")]) == 3
    assert [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("PASS")] == ["FAIL el_residual"]
    el_residual = json.loads((tmp_path / "v" / "verify.json").read_text())["checks"]["el_residual"]
    assert 2e-6 <= el_residual["max"] <= 5e-6
    assert run(["path", str(a / "profile.txt"), str(short), "--out-dir", str(tmp_path / "ab")]) == 0
    cert = json.loads((tmp_path / "ab" / "certificate.json").read_text())
    assert cert["verdict"] == "NOT_BOTH_SOLUTIONS"
    assert cert["max_grad_1"] <= GRAD_TOL < cert["max_grad_2"]


def test_verify_pass(solved_dir, tmp_path):
    code = run(["verify", str(solved_dir / "profile.txt"), "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is True
    assert report["checks"]["el_residual"]["passed"]


def test_verify_fail_on_corrupted(solved_dir, tmp_path):
    lines = (solved_dir / "profile.txt").read_text().splitlines(keepends=True)
    broken = tmp_path / "broken.txt"
    # bump a handful of interior samples to break stationarity
    out = []
    for i, line in enumerate(lines):
        if line.startswith("#") or not (60 <= i <= 64):
            out.append(line)
        else:
            out.append(f"{float(line) + 0.05}\n")
    broken.write_text("".join(out))
    code = run(["verify", str(broken), "--out-dir", str(tmp_path)])
    assert code == 3
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is False
    # the profile passes every gate unbumped (test_verify_pass); a one-sided
    # bump breaks stationarity, monotonicity and symmetry, not the end values
    failed = {name for name, c in report["checks"].items() if not c["passed"]}
    assert {"el_residual", "monotone", "symmetry"} <= failed and "boundary" not in failed


def test_verify_fails_tail_decay_on_a_grid_too_coarse_for_its_window(tmp_path, capsys):
    # at odd n <= 39 the window [0.9 L, 0.99 L] holds no node of the
    # central differences; the check fails instead of reducing an empty array
    assert run(["solve", "--n", "17", "--out-dir", str(tmp_path)]) == 0
    assert run(["verify", str(tmp_path / "profile.txt"), "--out-dir", str(tmp_path)]) == 3
    assert "FAIL tail_decay" in capsys.readouterr().out
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    assert checks["tail_decay"] == {"passed": False}


def test_verify_fails_on_drifted_dirichlet_data(tmp_path):
    # a solve from an end value 7.6e-5 off its limit keeps that value and is
    # stationary for it; only the boundary gate sees the drift
    grid = make_grid(1025, 40.0)
    p0 = make_initial_profile(grid, make_params(1.0, 0.25))
    theta = p0.theta.copy()
    theta[0] -= 7.6e-5
    p, report = minimize(p0.with_theta(theta))
    assert report.converged
    prof = tmp_path / "drifted.txt"
    save_profile(prof, p)
    assert run(["verify", str(prof), "--out-dir", str(tmp_path)]) == 3
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    assert checks["boundary"]["max_defect"] == pytest.approx(7.6e-5)
    assert [name for name, c in checks.items() if not c["passed"]] == ["boundary"]


def test_verify_fails_the_boundary_gate_on_an_end_value_the_stray_field_rejects(capsys, tmp_path):
    # an end value 0.05 off theta_h leaves u 0.024 > TAIL_TOL at the grid
    # end: verify exits 3 with the boundary gate failed, and every check
    # that needs the stray field fails with the tail message
    p, report = minimize(make_initial_profile(make_grid(1025, 40.0), make_params(1.0, 0.25)))
    assert report.converged
    theta = p.theta.copy()
    theta[-1] += 0.05
    prof = tmp_path / "off_end.txt"
    save_profile(prof, p.with_theta(theta))
    assert run(["verify", str(prof), "--out-dir", str(tmp_path)]) == 3
    assert "FAIL boundary" in capsys.readouterr().out.splitlines()
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    assert checks.keys() == verify(p)["checks"].keys()
    assert checks["boundary"]["max_defect"] == pytest.approx(0.05)
    field_checks = ("el_residual", "bounds", "stray_crosscheck", "far_field")
    for name in field_checks:
        assert checks[name]["passed"] is False
        assert checks[name]["error"].startswith("|input| at the grid ends is 0.024 > 0.01"), name
    # the end jump also breaks monotonicity and the reflection symmetry
    failed = {name for name, c in checks.items() if not c["passed"]}
    assert failed == {"boundary", "monotone", "symmetry", *field_checks}


def test_path_rejects_a_flat_topped_profile(tmp_path):
    grid = make_grid(257, 40.0)
    params = make_params(1.0, 0.5)
    p1 = make_initial_profile(grid, params, kind="kink")
    theta = p1.theta.copy()
    theta[grid.center_index - 1] = math.pi / 2 + 1e-8
    save_profile(tmp_path / "flat.txt", p1.with_theta(theta))
    save_profile(tmp_path / "kink.txt", make_initial_profile(grid, params, kind="kink", width=2.0))
    assert run(["path", str(tmp_path / "flat.txt"), str(tmp_path / "kink.txt"), "--out-dir", str(tmp_path)]) == 1


def test_verify_missing_file(solved_dir, tmp_path):
    # the profiles are read before the output directory is made
    out, nope = tmp_path / "out", str(tmp_path / "nope.txt")
    assert run(["verify", nope, "--out-dir", str(out)]) == 1
    assert run(["path", nope, str(solved_dir / "profile.txt"), "--out-dir", str(out)]) == 1
    assert not out.exists()


def test_profile_header_missing_a_key_exits_1(solved_dir, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# nu=1 h=0 n=17\n")
    assert run(["verify", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert run(["path", str(bad), str(solved_dir / "profile.txt"), "--out-dir", str(tmp_path)]) == 1


def test_profile_header_bad_token_exits_1(solved_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# nu=1 h=0 n=17 L\n")
    assert run(["verify", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert run(["path", str(bad), str(solved_dir / "profile.txt"), "--out-dir", str(tmp_path)]) == 1
    assert "token 'L'" in capsys.readouterr().err
    # a key outside nu, h, n, L is refused, not ignored
    header, rest = (solved_dir / "profile.txt").read_text().split("\n", 1)
    bad.write_text(f"{header} H=0.9\n{rest}")
    assert run(["verify", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert run(["path", str(bad), str(solved_dir / "profile.txt"), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("unknown key 'H'") == 2


def test_profile_header_repeating_a_key_exits_1(solved_dir, tmp_path, capsys):
    header, rest = (solved_dir / "profile.txt").read_text().split("\n", 1)
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{header} nu=2\n{rest}")
    assert run(["verify", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert run(["path", str(bad), str(solved_dir / "profile.txt"), "--out-dir", str(tmp_path)]) == 1
    assert "sets nu twice" in capsys.readouterr().err


def test_profile_with_a_non_finite_node_exits_1(solved_dir, tmp_path, capsys):
    # a NaN node would reach every figure that verify and path report
    lines = (solved_dir / "profile.txt").read_text().splitlines(keepends=True)
    lines[100] = "nan\n"
    bad = tmp_path / "nan.txt"
    bad.write_text("".join(lines))
    assert run(["verify", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert run(["path", str(solved_dir / "profile.txt"), str(bad), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("data row 100,") == 2


def test_a_profile_listing_x_next_to_theta_exits_1(solved_dir, tmp_path, capsys):
    p = load_profile(solved_dir / "profile.txt")
    header = (solved_dir / "profile.txt").read_text().split("\n", 1)[0]
    rows = "".join(f"{x:.17g} {theta:.17g}\n" for x, theta in zip(p.grid.nodes, p.theta))
    bad = tmp_path / "two_columns.txt"
    bad.write_text(f"{header}\n{rows}")
    assert run(["verify", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert run(["path", str(solved_dir / "profile.txt"), str(bad), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("lines of one theta each") == 2


def test_verify_json_far_field_is_the_law_and_the_fit(solved_dir, tmp_path):
    # the JSON round trip keeps both constants to the bit
    assert run(["verify", str(solved_dir / "profile.txt"), "--out-dir", str(tmp_path)]) == 0
    far_field = json.loads((tmp_path / "verify.json").read_text())["checks"]["far_field"]
    p = load_profile(solved_dir / "profile.txt")
    assert far_field["predicted"] == far_field_constant(p)
    assert far_field["fitted"] == fit_decay(p).c_plus
    assert far_field["relative_gap"] <= far_field["tol"] == 0.2 and far_field["passed"]


@pytest.mark.parametrize("nu", ["1", "0"])
def test_verify_json_matches_library(tmp_path, nu):
    solve_dir = tmp_path / "solve"
    assert run(["solve", "--nu", nu, "--h", "0.3", "--out-dir", str(solve_dir)] + SOLUTION) == 0
    prof = solve_dir / "profile.txt"
    assert run(["verify", str(prof), "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["checks"] == verify(load_profile(prof))["checks"]
    assert report["profile"] == str(prof)


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_every_json_file_is_strict_json(tmp_path):
    # RFC 8259 has no Infinity or NaN; at nu = 0 there is no stray field to bound
    for nu in ("1", "0"):
        out = tmp_path / f"nu{nu}"
        assert run(["solve", "--nu", nu, "--h", "0.3", "--out-dir", str(out / "solve")] + SOLUTION) == 0
        prof = str(out / "solve" / "profile.txt")
        assert run(["verify", prof, "--out-dir", str(out / "verify")]) == 0
        assert run(["path", prof, prof, "--out-dir", str(out / "path")]) == 0
    files = sorted(tmp_path.rglob("*.json"))
    assert [f.name for f in files].count("verify.json") == 2 and len(files) == 8
    for f in files:
        _strict_json(f)
    bounds = _strict_json(tmp_path / "nu0" / "verify" / "verify.json")["checks"]["bounds"]
    assert bounds["bound_v"] is None and bounds["sup_v"] == 0.0 and bounds["passed"]


def test_path_same_profile_coincides(solved_dir, tmp_path):
    prof = str(solved_dir / "profile.txt")
    code = run(["path", prof, prof, "--out-dir", str(tmp_path)])
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "COINCIDE"
    header = (tmp_path / "path.csv").read_text().splitlines()[0]
    assert header == "t,f,f_prime,f_second_analytic"


def test_path_outputs_match_one_scan(solved_dir, tmp_path):
    # path.csv comes from the certificate's own scan; its cells and the
    # certificate's keys must be a separate scan's and certificate's fields
    prof = load_profile(solved_dir / "profile.txt")
    kink = make_initial_profile(prof.grid, prof.params, kind="kink", width=2.0)
    save_profile(tmp_path / "kink.txt", kink)
    code = run(["path", str(solved_dir / "profile.txt"), str(tmp_path / "kink.txt"),
                "--out-dir", str(tmp_path)])
    assert code == 0
    verdict = uniqueness_certificate(prof, kink)
    names = [f.name for f in fields(PathPoint)]
    rows = [[f"{getattr(pt, name):.12g}" for name in names] for pt in verdict.points]
    lines = (tmp_path / "path.csv").read_text().splitlines()
    assert lines[0] == "t,f,f_prime,f_second_analytic"
    assert lines[0].split(",") == names
    assert [line.split(",") for line in lines[1:]] == rows
    expected = {f.name: getattr(verdict, f.name) for f in fields(verdict) if f.name != "points"}
    assert json.loads((tmp_path / "certificate.json").read_text()) == expected
    assert expected["verdict"] == "NOT_BOTH_SOLUTIONS"


def test_path_distinct_minimizers_coincide(solved_dir, tmp_path):
    out2 = tmp_path / "other"
    code = run(
        ["solve", "--nu", "1", "--h", "0.3", "--init", "perturbed", "--seed", "7"]
        + ["--out-dir", str(out2)]
        + SOLUTION
    )
    assert code == 0
    code = run(["path", str(solved_dir / "profile.txt"), str(out2 / "profile.txt"), "--out-dir", str(tmp_path)])
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "COINCIDE"


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_solve_with_a_grad_tol_that_is_not_positive_and_finite_exits_1(tol, tmp_path, capsys):
    # the options are checked before the output directory is made
    out = tmp_path / "out"
    assert run(["solve", *SOLUTION, "--grad-tol", tol, "--out-dir", str(out)]) == 1
    assert "grad_tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_a_max_iter_of_0_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["sweep", *SOLUTION, "--max-iter", "0", "--out-dir", str(out)]) == 1
    assert "max_iter must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_path_rejects_a_profile_outside_the_branch_box(solved_dir, tmp_path, capsys):
    # theta below 0 on x > 0: the arcsin path and the radius are not defined there
    p = load_profile(solved_dir / "profile.txt")
    theta = p.theta.copy()
    theta[-2] = -1e-3
    save_profile(tmp_path / "under.txt", p.with_theta(theta))
    prof = str(solved_dir / "profile.txt")
    assert run(["path", prof, str(tmp_path / "under.txt"), "--out-dir", str(tmp_path)]) == 1
    assert f"node {p.grid.n - 2}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lists",
    [["--nu-list", ""], ["--nu-list", ","], ["--h-list", " , "], ["--nu-list", "1,x"], ["--h-list", "0,abc"]],
)
def test_sweep_with_an_empty_list_exits_1(lists, tmp_path, capsys):
    assert run(["sweep", *lists, "--out-dir", str(tmp_path / "out")] + FAST) == 1
    flag, text = lists
    bad = re.findall("[a-z]+", text)
    # the message names the flag, and the token that is not a number
    expected = f"invalid {flag} value {bad[0]!r}" if bad else f"{flag} names no value"
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_csv(tmp_path):
    argv = (
        ["sweep", "--nu-list", "0,1", "--h-list", "0,0.5", "--out-dir", str(tmp_path)]
        + FAST
    )
    assert run(argv) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "nu,h,exchange,potential,stray,total,decay_c,max_grad,converged"
    assert len(lines) == 5
    first = (tmp_path / "sweep.csv").read_bytes()
    assert run(argv) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_sweep_csv_prints_a_failed_row_as_nan(tmp_path, monkeypatch):
    minimize = solver.minimize

    def fail_one(p0, *args, **kwargs):
        if (p0.params.nu, p0.params.h) == (1.0, 0.5):
            raise RuntimeError("injected")
        return minimize(p0, *args, **kwargs)

    monkeypatch.setattr(solver, "minimize", fail_one)
    argv = ["sweep", "--nu-list", "1", "--h-list", "0,0.5", "--out-dir", str(tmp_path)] + FAST
    assert run(argv) == 2
    ok, failed = (line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:])
    assert ok[-1] == "true" and "nan" not in ok[2:6]
    assert failed[:2] == ["1", "0.5"]
    assert failed[2:6] == ["nan"] * 4
    assert failed[-1] == "false"


@pytest.mark.parametrize("n, half_width", [("2049", "40"), ("4097", "80")])
def test_oracle(n, half_width, capsys):
    assert run(["oracle", "--n", n, "--half-width", half_width]) == 0
    assert "oracle: PASS" in capsys.readouterr().out


def test_oracle_fails_the_lorentzian_at_n_1025(capsys):
    # checked at every interior node, the Lorentzian's operator gap peaks at
    # x = 0 at 1.23e-4, over the 1e-4 gate; a sample of nodes had read 7.3e-5
    assert run(["oracle", "--n", "1025", "--half-width", "40"]) == 3
    lines = capsys.readouterr().out.splitlines()
    over = [name for name, _, gap in (ln.rpartition(": ") for ln in lines[:-1]) if float(gap) > 1e-4]
    assert over == ["operator equivalence [lorentzian]"] and lines[-1] == "oracle: FAIL"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--nu", "0"],
        ["oracle", "--out-dir", "d"],
        ["sweep", "--seed", "3"],
        ["sweep", "--nu", "2"],
        ["verify", "profile.txt", "--nu", "2"],
        ["path", "a.txt", "b.txt", "--n", "257"],
        # a profile is a solution at energy.GRAD_TOL, the one tolerance verify gates
        ["path", "a.txt", "b.txt", "--grad-tol", "1e-5"],
        # the oracle checks every interior node of a fixed corpus: it draws nothing
        ["oracle", "--seed", "0"],
        # every sweep row starts from the template
        ["sweep", "--init", "kink"],
    ],
)
def test_flag_the_command_does_not_read_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # a prefix of a flag the command does read (--nu of --nu-list) is not taken for it
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_oracle_grid_too_small(capsys):
    # every check runs on so coarse a grid, and its gaps fail the gates
    assert run(["oracle", "--n", "17", "--half-width", "1"]) == 3
    assert capsys.readouterr().out.endswith("oracle: FAIL\n")


def test_config_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 257\nhalf_width = 20  # trailing comment\nnu = 2.0\ngrad_tol = 1e-5\n")
    out = tmp_path / "out"
    code = run(["solve", "--config", str(cfg), "--nu", "1", "--h", "0.3", "--out-dir", str(out)])
    assert code == 0
    prof = (out / "profile.txt").read_text()
    # flag overrides the config nu; config n shapes the output
    assert len([ln for ln in prof.splitlines() if not ln.startswith("#")]) == 257


def test_config_unknown_key(solved_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text in ("bogus = 1\n", "method = quasi_newton\n"):
        cfg.write_text(text)
        assert run(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    # a key of another command: verify reads nu from the profile header
    cfg.write_text("nu = 2\n")
    assert run(["verify", str(solved_dir / "profile.txt"), "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    # path tests both profiles at energy.GRAD_TOL and reads no grad_tol
    cfg.write_text("grad_tol = 1e-5\n")
    prof = str(solved_dir / "profile.txt")
    assert run(["path", prof, prof, "--config", str(cfg), "--out-dir", str(tmp_path / "p")]) == 1
    assert not (tmp_path / "p").exists()
    # every sweep row starts from the template, so sweep reads no init
    cfg.write_text("init = template\n")
    capsys.readouterr()
    assert run(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == 1
    assert "unknown key 'init' for sweep" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_oracle_config_seed_key_is_unknown(tmp_path, capsys):
    # the oracle checks every interior node of a fixed corpus: it reads no seed
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 0\n")
    assert run(["oracle", "--n", "257", "--config", str(cfg)]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text", [(["solve"], "max_iter = 1e5"), (["sweep"], "n = 2.5"), (["solve"], "nu = 1\nnu = 2")]
)
def test_config_bad_value_names_file_and_line(command, text, tmp_path, capsys):
    # the error names the text's last line: a key set twice is refused at
    # its second line, not resolved to either value
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# a comment\n{text}\n")
    line = 2 + text.count("\n")
    assert run(command + ["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{cfg}:{line}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_sets_the_keys_of_verify(solved_dir, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"seed = 3\nout_dir = {tmp_path / 'out'}\n")
    prof = solved_dir / "profile.txt"
    assert run(["verify", str(prof), "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["checks"] == verify(load_profile(prof))["checks"]


def test_readme_lists_each_commands_flags_and_config_keys():
    # the README's table is the documented flag set; it must be the parser's
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [ln.strip().strip("|").split("|") for ln in text.splitlines() if ln.startswith("| `")]
    documented = {
        cells[0].strip().strip("`"): (set(re.findall(r"`(--[a-z-]+)`", cells[1])), re.findall(r"`([a-z_]+)`", cells[2]))
        for cells in rows
    }
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(documented) == set(sub.choices)
    for name, sp in sub.choices.items():
        flags = {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
        assert documented[name] == (flags, list(cli.COMMANDS[name])), name


def test_readme_lists_the_keys_of_the_solve_report(solved_dir):
    # the README's solve entry documents report.json; it must be what is written
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"^neelwall solve .*?report\.json\s*\(([^)]*)\)", text, re.S | re.M).group(1)
    report = json.loads((solved_dir / "report.json").read_text())
    assert sorted(key.strip() for key in listed.split(",")) == sorted(report)


def test_invalid_parameter(tmp_path):
    assert run(["solve", "--h", "1.5", "--out-dir", str(tmp_path)] + FAST) == 1
    assert run(["solve", "--nu", "nan", "--out-dir", str(tmp_path)] + FAST) == 1


@pytest.fixture(scope="module")
def start_profiles(tmp_path_factory):
    out = tmp_path_factory.mktemp("starts")
    grid = make_grid(257, 20.0)
    for nu in (0.0, 1.0):
        save_profile(out / f"nu{nu:g}.txt", make_initial_profile(grid, make_params(nu, 0.3)))
    return out


# every command that reads seed, at each way it uses it: drawn or not
SEED_READERS = {
    "solve_template": ["solve", *SOLUTION, "--init", "template"],
    "solve_perturbed": ["solve", *SOLUTION, "--init", "perturbed"],
    "verify_nu0": ["verify", "nu0.txt"],
    "verify_nu1": ["verify", "nu1.txt"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("case", list(SEED_READERS))
def test_a_negative_seed_exits_1_naming_seed(case, source, start_profiles, tmp_path, capsys):
    argv = [str(start_profiles / a) if a.endswith(".txt") else a for a in SEED_READERS[case]]
    argv += ["--out-dir", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        (tmp_path / "seed.cfg").write_text("seed = -1\n")
        argv += ["--config", str(tmp_path / "seed.cfg")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be non-negative") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(["solve", "--nu", "abc", "--out-dir", str(tmp_path)]) == 1
    assert run(["solve", "--init", "bogus", "--out-dir", str(tmp_path)]) == 1
    assert run(["solve", "--help"]) == 0


def _header(out):
    return (out / "profile.txt").read_text().splitlines()[0]


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    # flags and config values of one call must not reach the next
    assert run(["solve", "--nu", "2", "--out-dir", str(tmp_path / "a")] + FAST) == 0
    assert run(["solve", "--out-dir", str(tmp_path / "b")] + FAST) == 0
    assert _header(tmp_path / "a").startswith("# nu=2 ")
    assert _header(tmp_path / "b").startswith("# nu=1 ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 0.3\n")
    assert run(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "c")] + FAST) == 0
    assert run(["solve", "--out-dir", str(tmp_path / "d")] + FAST) == 0
    assert " h=0.29999999999999999 " in _header(tmp_path / "c")
    assert " h=0 " in _header(tmp_path / "d")
    assert run(["solve", "--nu", "abc"]) == 1
    assert run(["solve", "--help"]) == 0
    assert run(["bogus"]) == 1
    assert cli.build_parser() is cli.build_parser()


def test_main_dispatches_through_the_module_attribute(tmp_path, monkeypatch):
    # a wrapper bound to cli.cmd_solve after the parser exists is the one
    # main calls, which is how an outside-in tracer sees each command
    assert run(["solve", "--out-dir", str(tmp_path)] + FAST) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.nu) or 0)
    assert run(["solve", "--nu", "3", "--out-dir", str(tmp_path)] + FAST) == 0
    assert seen == [3.0]


def _run_script(script: str) -> str:
    """Standard output of a fresh interpreter running script with this
    package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_no_command_imports_scipy(tmp_path):
    # a command's start-up is the import of numpy and the package; importing
    # scipy's optimize, fft and linalg would cost ~0.45 s more
    d = str(tmp_path)
    script = f"""
import json, sys
from neelwall.cli import main
tiny = ["--n", "65", "--half-width", "10"]
prof = {d!r} + "/a/profile.txt"
codes = [
    main(["solve", *tiny, "--out-dir", {d!r} + "/a"]),
    main(["verify", prof, "--out-dir", {d!r} + "/v"]),
    main(["path", prof, prof, "--out-dir", {d!r} + "/p"]),
    main(["sweep", "--nu-list", "1", "--h-list", "0", *tiny, "--out-dir", {d!r} + "/s"]),
    main(["oracle", "--n", "65"]),
]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), "numpy.ma" in sys.modules]))
"""
    codes, scipy_modules, imported_ma = json.loads(_run_script(script).splitlines()[-1])
    # verify and oracle may fail a gate (exit 3) on so coarse a grid, after
    # every check has run
    assert codes[0] == codes[2] == codes[3] == 0 and codes[1] in (0, 3) and codes[4] in (0, 3)
    assert scipy_modules == []
    # np.median imports numpy.ma on its first call, ~15 ms of start-up
    assert not imported_ma


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes the glibc allocator")
def test_repeated_solves_keep_the_lattice_arrays_resident(tmp_path):
    # without the allocator thresholds main sets, each later n = 4097 solve
    # of a fresh process takes ~1600-2700 minor page faults, as the arrays
    # freed after one evaluation are trimmed and faulted back in by the next
    script = f"""
import contextlib, io, resource
from neelwall.cli import main
faults = []
for k in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--n", "4097", "--out-dir", {str(tmp_path)!r}]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults[1:]))
"""
    assert int(_run_script(script).splitlines()[-1]) < 300
