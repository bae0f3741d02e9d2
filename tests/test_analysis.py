import importlib
import json
import math

import numpy as np
import pytest

from neelwall import (
    SolveOptions,
    WallProfile,
    WindowTooNoisyError,
    apply_spectral,
    check_bounds,
    check_monotone,
    energy,
    energy_and_gradient,
    fit_decay,
    grad_norm,
    make_grid,
    make_initial_profile,
    make_operator,
    make_params,
    minimize,
    oracle,
    recenter,
    spectrum,
    symmetry_defect,
    tail_decay_check,
    uniqueness_certificate,
    verify,
)
from neelwall import analysis
from neelwall.analysis import _median, derivative_sup

# the package root exports a function named energy, which hides the module
MODULES = [importlib.import_module(f"neelwall.{m}") for m in ("analysis", "energy", "greenfn", "halflap", "path")]


def _kink(grid, params):
    return make_initial_profile(grid, params, kind="kink")


def test_monotone_flags():
    params = make_params(1.0, 0.0)
    grid = make_grid(257, 40.0)
    p = _kink(grid, params)
    ok, viol = check_monotone(p)
    assert ok and viol <= 0.0
    gap = p.theta[100] - p.theta[101]
    theta = p.theta.copy()
    theta[100], theta[101] = theta[101], theta[100]
    ok, viol = check_monotone(p.with_theta(theta))
    assert not ok
    assert viol == pytest.approx(gap)
    flat = p.with_theta(np.full(grid.n, 1.0))
    assert check_monotone(flat)[0]


def test_symmetry_defect_exact_kink():
    params = make_params(0.0, 0.0)
    grid = make_grid(513, 40.0)
    theta = 2.0 * np.arctan(np.exp(-grid.nodes))
    p = _kink(grid, params).with_theta(theta)
    assert symmetry_defect(p) <= 1e-12


def test_symmetry_defect_of_shift():
    # first-order: shifting by s costs about 2 s |theta'(0)|
    params = make_params(0.0, 0.0)
    grid = make_grid(4097, 40.0)
    s = 0.01
    theta = 2.0 * np.arctan(np.exp(-(grid.nodes - s)))
    p = _kink(grid, params).with_theta(theta)
    slope = 1.0  # |theta'(0)| of the kink
    assert symmetry_defect(p) == pytest.approx(2.0 * s * slope, rel=0.05)


def test_symmetry_defect_reflection_invariant():
    params = make_params(1.0, 0.3)
    grid = make_grid(257, 40.0)
    p = make_initial_profile(grid, params, kind="perturbed", seed=7)
    assert symmetry_defect(p.with_theta(math.pi - p.theta[::-1])) == symmetry_defect(p)


def test_fit_decay_synthetic_tail():
    params = make_params(1.0, 0.3)
    grid = make_grid(4097, 40.0)
    c0 = 0.7
    th = params.theta_h
    x = grid.nodes
    theta = np.where(x >= 0, th + c0 / (1.0 + x**2), math.pi - th - c0 / (1.0 + x**2))
    p = _kink(grid, params).with_theta(theta)
    fit = fit_decay(p)
    assert fit.c_plus == pytest.approx(c0, rel=0.02)
    assert fit.c_minus == pytest.approx(c0, rel=0.02)
    assert fit.plateau_spread < 0.05


@pytest.mark.parametrize("n", [1, 2, 409, 410])
def test_median_is_numpys_bit_for_bit(n, rng):
    for _ in range(20):
        g = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        assert _median(g) == float(np.median(g))
    g[rng.integers(n)] = math.nan
    assert math.isnan(_median(g)) and math.isnan(np.median(g))


def test_fit_decay_rejects_exponential_tail():
    # nu = 0 kink decays exponentially: x^2 tail has no plateau
    params = make_params(0.0, 0.0)
    grid = make_grid(1025, 40.0)
    p = _kink(grid, params)
    with pytest.raises(WindowTooNoisyError):
        fit_decay(p)


def test_fit_decay_refinement_cauchy(solved):
    fit_a = fit_decay(solved(1.0, 0.0, n=4097, half_width=80.0)[0])
    fit_b = fit_decay(solved(1.0, 0.0, n=8193, half_width=80.0)[0])
    assert abs(fit_a.c_plus - fit_b.c_plus) / fit_b.c_plus <= 0.05


def _bounds_of(p):
    eb, _, v = energy_and_gradient(p, make_operator(p.grid))
    return check_bounds(p, eb.total, v)


def test_bounds_on_vacuum():
    params = make_params(1.0, 0.3)
    grid = make_grid(513, 40.0)
    p = _kink(grid, params).with_theta(np.full(grid.n, params.theta_h))
    rep = _bounds_of(p)
    assert rep.sup_theta_x == 0.0
    assert rep.all_satisfied


def test_bounds_kink_equality_case():
    # nu = 0, E = 2: sup|theta_x| = sech(0) = 1 = sqrt((1+0)^2 + 0)
    params = make_params(0.0, 0.0)
    grid = make_grid(2049, 40.0)
    p = _kink(grid, params)
    rep = _bounds_of(p)
    assert rep.bound_v is None and rep.sup_v == 0.0
    assert rep.bound_theta_x == pytest.approx(1.0)
    assert rep.sup_theta_x <= 1.0
    assert rep.sup_theta_x == pytest.approx(1.0, abs=1e-3)
    assert rep.all_satisfied


def test_bounds_are_the_papers_formulas(solved, operators):
    # every minimizer meets the bounds with slack, so only the values pin
    # their coefficients; E and v are taken here apart from verify's kernel
    nu, h = 2.0, 0.3
    p, _ = solved(nu, h)
    _, op = operators()
    e = energy(p, op).total
    sup_v = float(np.max(np.abs(apply_spectral(op, spectrum(op, np.sin(p.theta) - h)))))
    bounds = verify(p)["checks"]["bounds"]
    assert bounds["sup_v"] == pytest.approx(sup_v, rel=1e-12)
    assert bounds["bound_theta_x"] == pytest.approx(math.sqrt((1 + h) ** 2 + 2 * nu * e), rel=1e-12)
    expected_v = 4 * nu / math.pi**2 + (2 / nu) * (1 + h + (1 + h) ** 2) + 4 * e
    assert bounds["bound_v"] == pytest.approx(expected_v, rel=1e-12)
    assert bounds["bound_theta_xx"] == pytest.approx(1 + h + 0.5 * nu * sup_v, rel=1e-12)


def test_bounds_need_the_field_at_positive_nu():
    # whether there is a stray field is nu's to say, not the caller's v
    p = _kink(make_grid(257, 40.0), make_params(1.0, 0.3))
    with pytest.raises(TypeError):
        check_bounds(p, energy(p, make_operator(p.grid)).total, None)


def test_structure_and_bounds_hold_at_random_parameters():
    # ROADMAP item 3(c): 24 seeded draws of (nu, h, n, L, init, seed); they
    # read 24/24 converged, worst symmetry defect 2.1e-7, largest forward
    # increment -1.07e-6 and worst sup/bound 0.60, in 0.1 s
    rng = np.random.default_rng(0)
    for _ in range(24):
        nu, h = rng.uniform(0.0, 10.0), rng.uniform(0.0, 0.95)
        n, half_width = int(rng.choice([257, 513, 1025])), float(rng.choice([20.0, 40.0]))
        kind, seed = str(rng.choice(["template", "kink", "perturbed"])), int(rng.integers(0, 1000))
        draw = f"nu={nu} h={h} n={n} L={half_width} {kind} seed={seed}"
        p0 = make_initial_profile(make_grid(n, half_width), make_params(nu, h), kind=kind, seed=seed)
        p, report = minimize(p0)
        assert report.converged, draw
        assert check_monotone(p)[0], draw
        assert symmetry_defect(p) <= analysis.VERIFY_SYMMETRY_TOL, draw
        assert _bounds_of(p).all_satisfied, draw


def test_far_field_gap_is_null_when_the_law_predicts_no_tail(solved, monkeypatch):
    # a relative gap to 0 is undefined: null in strict JSON, and the check fails
    p, _ = solved(1.0, 0.25)
    monkeypatch.setattr(analysis, "far_field_constant", lambda p: 0.0)
    report = verify(p)
    far_field = report["checks"]["far_field"]
    assert far_field["relative_gap"] is None and not far_field["passed"]
    json.dumps(report, allow_nan=False)


def test_derivative_sups_of_kink():
    params = make_params(0.0, 0.0)
    grid = make_grid(4097, 40.0)
    p = _kink(grid, params)
    assert derivative_sup(p, 1) == pytest.approx(1.0, abs=1e-3)
    # theta_xx = sech(x) tanh(x), peak value 1/2
    assert derivative_sup(p, 2) == pytest.approx(0.5, abs=1e-3)
    with pytest.raises(ValueError):
        derivative_sup(p, 4)


def test_derivative_sups_of_constant():
    params = make_params(1.0, 0.0)
    grid = make_grid(257, 40.0)
    p = _kink(grid, params).with_theta(np.full(grid.n, 1.0))
    assert derivative_sup(p, 1) == derivative_sup(p, 2) == derivative_sup(p, 3) == 0.0


def test_tail_decay_on_minimizer(solved):
    p, _ = solved(1.0, 0.25, n=1025)
    assert tail_decay_check(p)


def test_stray_crosscheck_small(solved):
    p, _ = solved(1.0, 0.0, n=1025)
    check = verify(p)["checks"]["stray_crosscheck"]
    assert check["max_discrepancy"] <= 1e-3
    assert check["tol"] == 1e-3 and check["passed"]


@pytest.mark.parametrize("n, half_width", [(257, 20.0), (1025, 40.0)])
def test_stray_crosscheck_passes_on_the_weak_tail_of_small_nu(n, half_width, solved):
    # a converged solve at small nu, whose weak tail reaches the grid ends,
    # passes the cross-check at every node with |x| <= L/2
    p, report = solved(0.05, 0.0, n=n, half_width=half_width)
    assert report.converged
    check = verify(p)["checks"]["stray_crosscheck"]
    assert check["max_discrepancy"] <= check["tol"] == 1e-3 and check["passed"]


def test_oracle_gates():
    # at n = 4097 the padded lattice's periodic images put the Lorentzian's
    # seminorm gap at 1.047e-4, just over the gate; at n = 2049 all pass
    report = oracle(make_grid(4097, 40.0))
    failed = [name for name, check in report["checks"].items() if not check["passed"]]
    assert failed == ["seminorm_identity"] and not report["passed"]
    assert report["checks"]["seminorm_identity"]["gaps"]["lorentzian"] == pytest.approx(1.047e-4, rel=1e-3)
    assert oracle(make_grid(2049, 40.0))["passed"]


def test_verify_local_limit_runs_seven_checks(solved):
    p, _ = solved(0.0, 0.0)
    report = verify(p)
    assert list(report["checks"]) == [
        "boundary", "el_residual", "monotone", "symmetry", "decay_fit", "bounds", "tail_decay"
    ]
    assert report["passed"]


@pytest.mark.parametrize("kind", ["template", "kink", "perturbed"])
def test_boundary_gate_passes_on_initial_and_solved_profiles(solved, kind):
    params = make_params(1.0, 0.25)
    p0 = make_initial_profile(make_grid(513, 40.0), params, kind=kind)
    p, _ = solved(1.0, 0.25, kind=kind)
    for q in (p0, p):
        assert verify(q)["checks"]["boundary"] == {"max_defect": 0.0, "tol": 1e-12, "passed": True}


@pytest.mark.parametrize("node", [200, -1])
def test_boundary_and_tail_decay_fail_on_nan(solved, node):
    # max(a, nan) is a and nan * 100 > nan is False, so comparisons that let
    # a NaN through would pass both gates
    p, _ = solved(1.0, 0.25)
    theta = p.theta.copy()
    theta[node] = math.nan
    checks = verify(p.with_theta(theta))["checks"]
    assert not checks["tail_decay"]["passed"]
    assert checks["boundary"]["passed"] is (node != -1)
    if node == -1:
        assert math.isnan(checks["boundary"]["max_defect"])


def _gate_input(kind, grid, params, solution, op):
    x = grid.nodes
    bump = np.exp(-((x - 5.0) ** 2))
    if kind == "three_step_kink_solve":
        return minimize(_kink(grid, params), SolveOptions(max_iter=3), op=op)[0]
    if kind == "small_bump":
        return solution.with_theta(solution.theta + 1e-3 * bump)
    if kind == "large_bump":
        return solution.with_theta(solution.theta + 0.05 * bump)
    if kind == "doubled_tails":
        # the deviation from the end values scaled by 1 + s, with s rising as
        # a C^1 smoothstep from 0 at |x| = 5 to 1 at |x| = 20: still monotone
        # and symmetric, with twice the solution's tail constant
        t = np.clip((np.abs(x) - 5.0) / 15.0, 0.0, 1.0)
        end = np.where(x >= 0.0, params.theta_h, math.pi - params.theta_h)
        return solution.with_theta(solution.theta + t * t * (3.0 - 2.0 * t) * (solution.theta - end))
    if kind == "relabelled_4nu":
        return WallProfile(grid, solution.theta, make_params(4.0 * params.nu, params.h))
    if kind == "tail_from_below":
        # theta_h - (1 + 0.9 sin x)/x^2 on x >= 10, point-reflected on x <= -10:
        # a negative tail constant, whose plateau spread must not turn negative
        theta = solution.theta.copy()
        far = x >= 10.0
        theta[far] = params.theta_h - (1.0 + 0.9 * np.sin(x[far])) / x[far] ** 2
        theta[::-1][far] = math.pi - theta[far]
        return solution.with_theta(theta)
    width = {"kink_width_0.5": 0.5, "kink_width_0.1": 0.1}[kind]
    return make_initial_profile(grid, params, kind="kink", width=width)


@pytest.mark.parametrize(
    "kind, failed",
    [
        ("three_step_kink_solve", {"el_residual"}),
        ("small_bump", {"el_residual", "symmetry"}),
        ("large_bump", {"el_residual", "monotone", "symmetry"}),
        ("kink_width_0.5", {"decay_fit", "el_residual"}),
        # its core, which a sample of nodes can miss, reads a stray gap of 2.47e-2
        ("kink_width_0.1", {"bounds", "decay_fit", "el_residual", "stray_crosscheck"}),
        ("tail_from_below", {"bounds", "decay_fit", "el_residual", "monotone", "stray_crosscheck"}),
        # a clean c/x^2 tail whose constant the core does not predict:
        # relative gaps 1.04 and 0.74, against the tolerance 0.2
        ("doubled_tails", {"el_residual", "far_field"}),
        ("relabelled_4nu", {"el_residual", "far_field"}),
    ],
)
def test_verify_fails_exactly_the_gates_a_constructed_input_breaks(kind, failed, solved, operators):
    # inputs that are not critical points fail el_residual too: the paper's
    # claims are about critical points. far_field runs only after decay_fit
    # succeeds, so the inputs that break it keep a clean tail (ROADMAP item 9)
    grid, op = operators(2049)
    params = make_params(1.0, 0.25)
    solution, _ = solved(1.0, 0.25, n=2049)
    p = _gate_input(kind, grid, params, solution, op)
    theta = p.theta.copy()
    theta[0], theta[-1] = math.pi - params.theta_h, params.theta_h
    theta[grid.center_index] = math.pi / 2
    checks = verify(p.with_theta(theta))["checks"]
    assert {name for name, c in checks.items() if not c["passed"]} == failed


@pytest.mark.parametrize("nu", [1.0, 10.0])
def test_verify_fails_the_tail_gates_on_a_converged_solve_whose_tilt_length_outruns_the_window(nu, solved):
    # at h = 0.99 the tilt length 1/cos theta_h ~ 7 puts the tail's start past
    # the fit window at L = 40 (ROADMAP item 4): converged, yet not resolved
    p, report = solved(nu, 0.99, n=2049)
    assert report.converged
    checks = verify(p)["checks"]
    assert {name for name, c in checks.items() if not c["passed"]} == {"decay_fit", "tail_decay"}


def _count_calls(monkeypatch, name):
    """Count calls of the package function `name` made through any module."""
    calls = []
    original = next(getattr(mod, name) for mod in MODULES if hasattr(mod, name))

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in MODULES:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_verify_evaluates_each_field_once(solved, monkeypatch):
    p, _ = solved(1.0, 0.25)
    spectra = _count_calls(monkeypatch, "spectrum")
    spectral = _count_calls(monkeypatch, "apply_spectral")
    kernel = _count_calls(monkeypatch, "energy_and_gradient")
    report = verify(p)
    assert "far_field" in report["checks"]
    # the energy kernel's stray field is v, read by the bounds and the
    # cross-check, and its energy and field share one spectrum of u
    assert len(kernel) == 1
    assert len(spectral) == 1
    assert len(spectra) == 1


def test_verify_builds_one_lattice_and_one_toeplitz_product(solved, monkeypatch):
    # the far-field law needs only the integral of u: no Green column; the
    # one product is the cross-check's quadrature at every node
    p, _ = solved(1.0, 0.25)
    lattices = _count_calls(monkeypatch, "make_operator")
    products = _count_calls(monkeypatch, "toeplitz_product")
    report = verify(p)
    assert "far_field" in report["checks"]
    assert len(lattices) == 1
    assert len(products) == 1


def test_oracle_takes_the_stray_field_of_each_corpus_function_once(monkeypatch):
    # the Lorentzian's field serves the equivalence and the closed-form check,
    # and each function's spectrum serves its field and its pairing
    spectra = _count_calls(monkeypatch, "spectrum")
    spectral = _count_calls(monkeypatch, "apply_spectral")
    oracle(make_grid(257, 20.0))
    assert len(spectral) == 3
    assert len(spectra) == 3


def test_oracle_makes_one_toeplitz_product_for_each_route(monkeypatch):
    # the quadrature and the seminorm each take the whole corpus in one
    # call, and neither reuses the other's product (6 products before)
    products = _count_calls(monkeypatch, "toeplitz_product")
    oracle(make_grid(257, 20.0))
    assert len(products) == 2


@pytest.mark.parametrize("nu, calls", [(1.0, (0, 3, 2)), (0.0, (0, 0, 0))])
def test_certificate_reads_each_gradient_from_the_scans_spectrum(nu, calls, solved, operators, monkeypatch):
    # the scan's spectra of u_1, u_2 and du, and one field per profile for
    # its gradient: no energy_and_gradient call of its own, and the
    # gradient that call returns, bit for bit
    p, q = (recenter(solved(nu, 0.25, kind=kind)[0]) for kind in ("template", "perturbed"))
    _, op = operators()
    grads = [energy_and_gradient(r, op)[1] for r in (p, q)]
    kernel = _count_calls(monkeypatch, "energy_and_gradient")
    spectra = _count_calls(monkeypatch, "spectrum")
    spectral = _count_calls(monkeypatch, "apply_spectral")
    cert = uniqueness_certificate(p, q)
    assert (len(kernel), len(spectra), len(spectral)) == calls
    assert cert.verdict == "COINCIDE"
    assert [cert.max_grad_1, cert.max_grad_2] == [grad_norm(g, p.grid.spacing) for g in grads]


COMMANDS = {
    "verify": lambda p, q: verify(p),
    "certificate": lambda p, q: uniqueness_certificate(recenter(p), recenter(q)),
    "oracle": lambda p, q: oracle(p.grid),
}


@pytest.mark.parametrize("command, transforms", [("verify", 7), ("certificate", 7), ("oracle", 14)])
def test_transforms_per_command(command, transforms, solved, monkeypatch):
    # each count includes the operator's 2 (one irfft of |k|, one rfft of
    # its column); the oracle made 26 and the certificate 9 before each
    # took its products and spectra once
    p, _ = solved(1.0, 0.25)
    q, _ = solved(1.0, 0.25, kind="perturbed")
    calls = []
    for name in ("rfft", "irfft"):

        def counted(*args, _fft=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    COMMANDS[command](p, q)
    assert len(calls) == transforms
