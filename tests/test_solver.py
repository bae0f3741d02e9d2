import math
from dataclasses import fields

import numpy as np
import pytest

import neelwall.solver as solver
from neelwall import (
    NoCrossingError,
    energy_and_gradient,
    fit_decay,
    grad_norm,
    make_grid,
    make_initial_profile,
    make_operator,
    make_params,
    minimize,
    uniqueness_certificate,
)
from neelwall.model import ModelParams, WallProfile
from neelwall.solver import SolveOptions, SweepRow, _block_scale, sweep


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iter=0)
    for bad in (math.nan, math.inf, -1e-6):
        with pytest.raises(ValueError):
            SolveOptions(grad_tol=bad)


def test_minimize_kink_limit(solved):
    p, report = solved(0.0, 0.0, n=1025)
    grid = p.grid
    exact = 2.0 * np.arctan(np.exp(-grid.nodes))
    assert report.converged
    assert report.final_energy.total == pytest.approx(2.0, abs=1e-3)
    assert np.max(np.abs(p.theta - exact)) <= 1e-3


def test_minimize_pins_center(solved):
    p, report = solved(1.0, 0.3)
    assert p.theta[p.grid.center_index] == pytest.approx(math.pi / 2, abs=1e-10)
    assert report.converged
    assert report.final_grad_norm <= 1e-6


def test_minimize_requires_crossing():
    params = make_params(1.0, 0.0)
    grid = make_grid(257, 40.0)
    p0 = make_initial_profile(grid, params, kind="kink").with_theta(
        np.full(grid.n, params.theta_h)
    )
    with pytest.raises(NoCrossingError):
        minimize(p0)


@pytest.mark.parametrize("nu,h", [(0.0, 0.0), (1.0, 0.5)])
def test_a_sweep_row_is_its_solve(nu, h):
    grid = make_grid(257, 20.0)
    params = make_params(nu, h)
    opts = SolveOptions()
    (row,) = sweep([params], grid, opts)
    assert [f.name for f in fields(SweepRow)] == ["params", "report", "decay_c"]
    p, report = minimize(make_initial_profile(grid, params), opts)
    assert row.params == params
    assert row.report == report
    if nu == 0.0:
        assert math.isnan(row.decay_c)
    else:
        assert row.decay_c == fit_decay(p).c_plus


def test_sweep_propagates_a_rows_exception():
    grid = make_grid(257, 40.0)
    good = make_params(1.0, 0.0)
    # inexpressible through make_params; a raw record models a corrupted
    # input row, whose template never crosses pi/2
    bad = ModelParams(nu=1.0, h=math.nan, theta_h=math.nan)
    with pytest.raises(NoCrossingError):
        sweep([good, bad], grid, SolveOptions(grad_tol=1e-5))


def test_sweep_empty():
    grid = make_grid(257, 40.0)
    assert sweep([], grid) == []


def test_sweep_energies_decrease_in_h():
    grid = make_grid(513, 40.0)
    params = [make_params(1.0, h) for h in (0.0, 0.25, 0.5)]
    rows = sweep(params, grid, SolveOptions(grad_tol=1e-5))
    totals = [r.report.final_energy.total for r in rows]
    assert totals[0] > totals[1] > totals[2]


@pytest.mark.parametrize("nu,h,lo,hi", [(0.0, 0.3, 1.0 - 1e-6, 1.0 + 1e-6), (10.0, 0.9, 0.8, 1.1)])
def test_preconditioned_vacuum_hessian_is_near_identity(nu, h, lo, hi):
    # M^(-1/2) H M^(-1/2) at the tilted vacuum, H by central differences of
    # the exact gradient; at nu = 0 the DST-I symbol is H itself
    grid = make_grid(257, 40.0)
    op = make_operator(grid)
    params = make_params(nu, h)
    m, eps = grid.n - 2, 1e-6
    hess = np.empty((m, m))
    for j in range(m):
        up = np.full(grid.n, params.theta_h)
        down = up.copy()
        up[j + 1] += eps
        down[j + 1] -= eps
        g_up = energy_and_gradient(WallProfile(grid, up, params), op)[1]
        g_down = energy_and_gradient(WallProfile(grid, down, params), op)[1]
        hess[:, j] = (g_up - g_down)[1:-1] / (2 * eps)
    j = np.arange(1, m + 1)
    basis = math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(j, j) * math.pi / (m + 1))
    root_inv = basis @ np.diag(_block_scale(m, grid.spacing, params)) @ basis
    eig = np.linalg.eigvalsh(root_inv @ (0.5 * (hess + hess.T)) @ root_inv)
    assert lo <= eig.min() and eig.max() <= hi


@pytest.mark.parametrize("n", [1025, 2049, 4097, 8193])
def test_iterations_do_not_grow_with_n(n):
    # the unpreconditioned solve took 220/450/909/1846 iterations here and
    # stopped at grad 1.13e-6 at n = 8193
    grid = make_grid(n, 40.0)
    p0 = make_initial_profile(grid, make_params(1.0, 0.25))
    _, report = minimize(p0)
    assert report.converged and report.final_grad_norm <= 1e-6
    assert report.iterations < 50
    assert report.evaluations >= report.iterations


def test_solve_evaluates_once_per_function_call(monkeypatch):
    # the last evaluation of a run serves the convergence check and the
    # report, so nothing is evaluated twice; each function call takes 2 DSTs
    calls = {"energy_and_gradient": 0, "dst": 0}

    def counted(name):
        fn = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name))
    grid = make_grid(1025, 40.0)
    _, report = minimize(make_initial_profile(grid, make_params(1.0, 0.25)))
    assert report.converged
    assert calls["energy_and_gradient"] == report.evaluations
    assert calls["dst"] <= 2 * report.evaluations + 1


def test_minimize_keeps_the_dirichlet_data_of_an_off_centre_start():
    # a width-4 kink shifted by 0.3; an interpolated theta(-L) would sit
    # 7.6e-5 off its limit, and the solve would freeze that value
    grid = make_grid(1025, 40.0)
    params = make_params(1.0, 0.25)
    th = params.theta_h
    theta = th + (math.pi - 2 * th) * (2 / math.pi) * np.arctan(np.exp(-(grid.nodes - 0.3) / 4.0))
    theta[0], theta[-1] = math.pi - th, th
    p0 = make_initial_profile(grid, params, kind="kink", width=4.0).with_theta(theta)
    p, report = minimize(p0)
    template, template_report = minimize(make_initial_profile(grid, params))
    assert report.converged and report.recenter_shifts == 1
    assert p.theta[0] == math.pi - th and p.theta[-1] == th
    assert abs(report.final_energy.total - template_report.final_energy.total) <= 1e-12
    assert uniqueness_certificate(p, template).verdict == "COINCIDE"


def test_minimize_reaches_a_tight_tolerance_at_n_8193():
    # runs that stop on the free-node gradient stall here at 7.21e-10
    grid = make_grid(8193, 40.0)
    _, report = minimize(make_initial_profile(grid, make_params(1.0, 0.25)), SolveOptions(grad_tol=1e-10))
    assert report.converged and report.stop == "grad_tol"
    assert report.final_grad_norm <= 1e-10


@pytest.mark.parametrize("nu, h", [(1.0, 0.25), (1.0, 0.0)])
def test_minimize_stalls_below_the_rounding_floor(nu, h):
    grid = make_grid(4097, 40.0)
    p, report = minimize(make_initial_profile(grid, make_params(nu, h)), SolveOptions(grad_tol=1e-12))
    assert report.stop == "stalled" and not report.converged
    assert report.final_grad_norm > 1e-12
    # the run ends after PATIENCE steps that lower neither E nor sup|g|;
    # warm restarts took 48 and 44 evaluations here
    assert report.evaluations <= 30
    assert p.theta[grid.center_index] == math.pi / 2


def test_a_step_without_progress_does_not_end_the_solve():
    # one accepted step here leaves E unchanged and raises sup|g|; a run
    # that ended at it would stall at 1.41e-7
    grid = make_grid(257, 40.0)
    p0 = make_initial_profile(grid, make_params(10.0, 0.0), kind="perturbed", seed=0)
    _, report = minimize(p0, SolveOptions(grad_tol=1e-9))
    assert report.converged and report.stop == "grad_tol"


def test_lbfgs_converges_on_a_quadratic_and_counts_its_work(rng):
    m = 40
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    hess = q @ np.diag(np.linspace(0.5, 20.0, m)) @ q.T
    b = rng.standard_normal(m)
    exact = np.linalg.solve(hess, b)
    calls = []

    def fg(x):
        calls.append(x)
        g = hess @ x - b
        return 0.5 * x @ g - 0.5 * x @ b, g, g

    def done(g):
        return np.max(np.abs(g)) <= 1e-10

    res = solver.lbfgs(fg, np.zeros(m), max_iter=500, done=done)
    assert np.max(np.abs(res.x - exact)) <= 1e-9
    assert 1 <= res.nit < 100 and res.nfev == len(calls) >= res.nit
    capped = solver.lbfgs(fg, np.zeros(m), max_iter=3, done=lambda g: False)
    assert capped.nit == 3 and np.max(np.abs(capped.x - exact)) > 1e-3


@pytest.mark.parametrize(
    "opts, stop", [(SolveOptions(grad_tol=1e-14), "stalled"), (SolveOptions(max_iter=3), "max_iter")]
)
def test_every_stop_reports_the_evaluations_it_made(monkeypatch, opts, stop):
    # the run hands back the evaluation of the point it stopped on, so a
    # solve that misses the tolerance evaluates nothing more either
    calls = []
    evaluate = solver.energy_and_gradient

    def counted(*args, **kwargs):
        calls.append(None)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solver, "energy_and_gradient", counted)
    grid = make_grid(1025, 40.0)
    p, report = minimize(make_initial_profile(grid, make_params(1.0, 0.25)), opts)
    assert report.stop == stop and not report.converged
    assert len(calls) == report.evaluations
    gradient = energy_and_gradient(p, make_operator(grid))[1]
    assert report.final_grad_norm == grad_norm(gradient, grid.spacing)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_line_search_halves_the_unit_step_until_the_energy_decreases(k):
    # f = x^2/2 from x = 1 along d = -1.5 2^k: t = 2^-k lands at x = -0.5,
    # each longer trial at x <= -2, above the start
    def fg(x):
        return 0.5 * float(x @ x), x.copy(), None

    x, d = np.ones(1), np.full(1, -1.5 * 2.0**k)
    step, evals = solver._line_search(fg, x, 0.5, d, float(x @ d), lambda info: False)
    assert evals == k + 1
    assert np.array_equal(step[0], x + 2.0**-k * d) and step[0][0] == -0.5


def test_lbfgs_without_an_accepted_step_ends_on_its_start():
    # the reported gradient points uphill, so every trial raises f
    calls = []

    def fg(x):
        calls.append(x)
        return 0.5 * float(x @ x), -x, len(calls)

    x0 = np.ones(3)
    res = solver.lbfgs(fg, x0, max_iter=10, done=lambda info: False)
    assert res.nit == 0 and np.array_equal(res.x, x0)
    assert res.info == 1
    assert res.nfev == len(calls) == 1 + solver.LINE_SEARCH_EVALS


def test_an_evaluation_that_meets_the_tolerance_ends_the_solve():
    # a line search on the energy can reject a point with sup|g|/dx = 5.2e-7
    # here (its energy is one ulp higher) and then stop on a zero energy
    # decrease; a stop checked only at accepted iterates would miss it
    grid = make_grid(16385, 40.0)
    p0 = make_initial_profile(grid, make_params(0.0, 0.5), kind="perturbed")
    _, report = minimize(p0)
    assert report.converged


@pytest.mark.parametrize("h", [0.0, 0.5])
def test_the_energy_difference_in_nu_lies_between_the_stray_parts(h, solved):
    # nu enters E only as nu B(theta), B = stray / nu, so at exact minimizers
    # of nu_1 < nu_2: B(nu_2) <= (E_2 - E_1) / (nu_2 - nu_1) <= B(nu_1).
    # Margins (lower/upper) read 6.06e-5/6.07e-5 at h = 0 and 1.34e-5/1.34e-5
    # at h = 0.5, the same at grad_tol 1e-10; a gradient that applies the
    # stray force as 0.55 nu, E unchanged, breaks the upper side by 8.4e-4
    # and 2.7e-4
    (nu_1, e_1), (nu_2, e_2) = [
        (nu, solved(nu, h, n=257, half_width=20.0)[1].final_energy) for nu in (1.0, 1.01)
    ]
    slope = (e_2.total - e_1.total) / (nu_2 - nu_1)
    assert e_2.stray / nu_2 < slope < e_1.stray / nu_1


@pytest.mark.parametrize(
    "h, continuum", [(0.0, math.log(2.0) / math.pi), (0.5, 0.0568141146)], ids=["h=0", "h=0.5"]
)
def test_the_energy_slope_in_nu_at_nu_0_is_the_continuum_value(h, continuum):
    # at nu = 0 the wall is u_0 = (1 - h^2)/(cosh(a x) + h), a = cos theta_h,
    # whose transform is 2 pi sinh(alpha k/a)/sinh(pi k/a) with alpha =
    # arccos h, so dE/dnu = 1/4 <u_0, |k| u_0> = pi a^2 int_0^inf y
    # sinh^2(alpha y)/sinh^2(pi y) dy in the continuum, ln 2 / pi at h = 0
    # (ROADMAP items 14 and 18). The secant over nu = 1e-3 at (257, 20),
    # solved to 1e-10, misses it by -1.09e-3 and -1.07e-3 relative (at h = 0,
    # -6.1e-4 at (513, 20) and -3.0e-4 at (1025, 40)), so the tolerance is
    # 2e-3; a stray term scaled by 1.01 misses by +8.9e-3 at both h
    grid = make_grid(257, 20.0)
    op = make_operator(grid)
    opts = SolveOptions(grad_tol=1e-10)
    e_0, e_1 = [
        minimize(make_initial_profile(grid, make_params(nu, h)), opts, op=op)[1].final_energy.total
        for nu in (0.0, 1e-3)
    ]
    y = np.linspace(0.0, 60.0, 600001)
    f = np.zeros_like(y)  # the integrand's limit at y = 0
    f[1:] = y[1:] * (np.sinh(math.acos(h) * y[1:]) / np.sinh(math.pi * y[1:])) ** 2
    weights = np.ones_like(y)  # Simpson's rule
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    integral = math.pi * (1.0 - h * h) * float(weights @ f) * y[1] / 3.0
    assert integral == pytest.approx(continuum, rel=1e-9)
    assert abs((e_1 - e_0) / 1e-3 / integral - 1.0) <= 2e-3
