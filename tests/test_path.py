import math

import numpy as np
import pytest

from neelwall import (
    FlatTopError,
    RangeViolationError,
    SolveOptions,
    energy,
    make_grid,
    make_initial_profile,
    make_operator,
    make_params,
    minimize,
    pairing,
    recenter,
    spectrum,
    uniqueness_certificate,
)
import neelwall.path as pathmod
from neelwall.model import trapezoid_weights


@pytest.fixture(scope="module")
def pair():
    params = make_params(1.0, 0.3)
    grid = make_grid(513, 40.0)
    p1 = recenter(make_initial_profile(grid, params, kind="kink", width=1.0))
    p2 = recenter(make_initial_profile(grid, params, kind="kink", width=2.0))
    return p1, p2


def test_fixed_point(pair):
    p1, _ = pair
    theta, _ = pathmod._path_theta(p1.grid, np.sin(p1.theta), np.sin(p1.theta), 0.5)
    assert np.max(np.abs(theta - p1.theta)) <= 1e-14


def test_midpoint_formula(pair, rng):
    p1, p2 = pair
    t = 0.5
    theta, _ = pathmod._path_theta(p1.grid, np.sin(p1.theta), np.sin(p2.theta), t)
    idx = rng.integers(1, p1.grid.n - 1, size=10)
    s = t * np.sin(p1.theta[idx]) + (1 - t) * np.sin(p2.theta[idx])
    assert np.allclose(np.sin(theta[idx]), s, atol=1e-14)


def test_center_node_is_half_pi(pair):
    p1, p2 = pair
    c = p1.grid.center_index
    sin1, sin2 = np.sin(p1.theta), np.sin(p2.theta)
    for t in (0.0, 0.3, 0.7, 1.0):
        assert pathmod._path_theta(p1.grid, sin1, sin2, t)[0][c] == math.pi / 2


def test_certificate_compares_walls_up_to_translation(pair):
    # the width-1 kink moved by 0.3, constant past the ends, reads as its
    # recentred self; neither input is a solution
    p1, p2 = pair
    x = p1.grid.nodes
    shifted = p1.with_theta(np.interp(x - 0.3, x, p1.theta))
    assert abs(shifted.theta[p1.grid.center_index] - math.pi / 2) > 0.1
    a = uniqueness_certificate(shifted, p2)
    b = uniqueness_certificate(recenter(shifted), p2)
    assert a == b and a.verdict == "NOT_BOTH_SOLUTIONS"
    assert [pt.f for pt in a.points] == [pt.f for pt in b.points]


def test_certificate_checks_the_pair_once(monkeypatch, pair):
    calls = []
    require = pathmod._require_pair

    def counted(p1, p2):
        calls.append(None)
        require(p1, p2)

    monkeypatch.setattr(pathmod, "_require_pair", counted)
    uniqueness_certificate(*pair)
    assert len(calls) == 1


@pytest.mark.parametrize("bump,rejected", [(1e-8, True), (3e-8, False)])
def test_flat_topped_pair_gets_the_verdict_of_its_reflection(bump, rejected):
    # sin(pi/2 + 1e-8) rounds to 1 and cos theta^t to ~6e-17 at that node:
    # min f'' read -1.58e44 on the pair and +0.502 on its reflection
    params = make_params(1.0, 0.5)
    grid = make_grid(257, 40.0)
    kink = make_initial_profile(grid, params, kind="kink")
    theta = kink.theta.copy()
    theta[grid.center_index - 1] = math.pi / 2 + bump
    p1 = kink.with_theta(theta)
    p2 = make_initial_profile(grid, params, kind="kink", width=2.0)
    outcomes = []
    for a, b in ((p1, p2), [p.with_theta(math.pi - p.theta[::-1]) for p in (p1, p2)]):
        if rejected:
            with pytest.raises(FlatTopError):
                uniqueness_certificate(a, b)
        else:
            outcomes.append(uniqueness_certificate(a, b).min_f_second)
    if not rejected:
        assert outcomes[0] == pytest.approx(outcomes[1], rel=1e-12)
        assert outcomes[0] > 0.5


def test_scan_endpoint_energies(pair, operators):
    p1, p2 = pair
    _, op = operators()
    pts = uniqueness_certificate(p1, p2).points
    # bit for bit: the ends are the input profiles, not their arcsin images
    assert pts[0].f == energy(p2, op).total
    assert pts[-1].f == energy(p1, op).total


def test_scan_convexity_and_fd_consistency(pair):
    p1, p2 = pair
    pts = uniqueness_certificate(p1, p2).points
    second = np.array([pt.f_second_analytic for pt in pts])
    assert second.min() > 0.0
    # the 5-point central difference of f on the t with two neighbours each side
    fs, dt = np.array([pt.f for pt in pts]), pts[1].t - pts[0].t
    fd = (-fs[:-4] + 16 * fs[1:-3] - 30 * fs[2:-2] + 16 * fs[3:-1] - fs[4:]) / (12 * dt**2)
    assert np.all(np.abs(fd - second[2:-2]) <= 1e-4 * np.abs(second[2:-2]))


def test_scan_first_derivative_matches_fd(pair):
    p1, p2 = pair
    pts = uniqueness_certificate(p1, p2).points
    fs = np.array([pt.f for pt in pts])
    dt = pts[1].t - pts[0].t
    fd = (fs[2:] - fs[:-2]) / (2 * dt)
    an = np.array([pt.f_prime for pt in pts])[1:-1]
    # central difference carries its own O(dt^2) truncation error
    assert np.max(np.abs(fd - an)) <= 1e-3 * np.max(np.abs(an))


def test_scan_swap_symmetry(pair):
    p1, p2 = pair
    a = uniqueness_certificate(p1, p2).points
    b = uniqueness_certificate(p2, p1).points
    for pa, pb in zip(a, b[::-1]):
        assert pa.f == pytest.approx(pb.f, rel=1e-13)


def test_scan_samples_the_41_uniform_t(pair):
    p1, p2 = pair
    pts = uniqueness_certificate(p1, p2).points
    assert np.array_equal([pt.t for pt in pts], np.linspace(0.0, 1.0, 41))


def test_scan_degenerate_pair(pair):
    p1, _ = pair
    pts = uniqueness_certificate(p1, p1).points
    for pt in pts:
        assert pt.f == pytest.approx(pts[0].f, rel=1e-14)
        assert abs(pt.f_prime) <= 1e-12
        assert abs(pt.f_second_analytic) <= 1e-12


def test_certificate_identical_inputs(pair, solved):
    # identical inputs take the two rules of any pair: a solution with itself
    # coincides at distance 0, a kink with itself is no solution
    p, _ = solved(1.0, 0.3)
    kink, _ = pair
    v = uniqueness_certificate(p, p)
    assert v.verdict == "COINCIDE" and v.s_distance == 0.0
    assert uniqueness_certificate(kink, kink).verdict == "NOT_BOTH_SOLUTIONS"


def test_certificate_takes_converged_nu_0_walls(operators):
    # at nu = 0 the tail falls like e^{-|x|}, below rounding past |x| ~ 35,
    # and unclipped solver nodes there rounded across theta = 0 and pi
    grid, op = operators(1025, 40.0)
    params = make_params(0.0, 0.0)
    p, q = (
        minimize(make_initial_profile(grid, params, kind=kind, seed=3), op=op)[0]
        for kind in ("template", "perturbed")
    )
    for r in (p, q):
        assert np.all((0.0 <= r.theta) & (r.theta <= math.pi))
    assert uniqueness_certificate(p, q).verdict == "COINCIDE"


def test_certificate_rejects_non_solution_pair(solved, operators):
    p, _ = solved(1.0, 0.3)
    grid, _ = operators()
    kink = recenter(make_initial_profile(grid, make_params(1.0, 0.3), kind="kink", width=2.0))
    v = uniqueness_certificate(p, kink)
    assert v.verdict == "NOT_BOTH_SOLUTIONS"


def _kink_pair(nu, n=513):
    grid = make_grid(n, 40.0)
    params = make_params(nu, 0.3)
    return (
        recenter(make_initial_profile(grid, params, kind="kink", width=1.0)),
        recenter(make_initial_profile(grid, params, kind="kink", width=2.0)),
    )


@pytest.fixture(scope="module")
def solution_pair(solved):
    p1, _ = solved(1.0, 0.3)
    p2, _ = solved(1.0, 0.3, kind="perturbed", width=2.0, seed=0)
    return p1, p2


@pytest.mark.parametrize("nu, rffts", [(1.0, 3), (0.0, 0)])
def test_scan_transforms_u_three_times(nu, rffts, operators, monkeypatch):
    p1, p2 = _kink_pair(nu)
    _, op = operators()
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    pts = pathmod._scan(p1, p2, op)[0]
    assert len(pts) == 41
    assert calls == {"rfft": rffts, "irfft": 0}


def test_scan_takes_one_arcsin_per_t_and_no_cos(monkeypatch):
    p1, p2 = _kink_pair(1.0)
    calls = {}
    for name in ("sin", "cos", "arcsin"):
        fn = getattr(np, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    op = make_operator(p1.grid)
    calls.update(sin=0, cos=0, arcsin=0)
    pathmod._scan(p1, p2, op)
    # theta^t from one arcsin of the mixed sine; cos theta^t from the sine;
    # sin theta_1 and sin theta_2 twice each, in the pair check and the scan
    assert calls == {"sin": 4, "cos": 0, "arcsin": 41}


@pytest.mark.parametrize("nu, h, n", [(2.0, 0.3, 1025), (1.0, 0.25, 4097)])
def test_certificate_rejects_converged_against_three_step_solve(nu, h, n, solved, operators):
    # the kink partner is no solution: its sup|g|/dx is 2.8e-3 and 8.9e-4
    grid, op = operators(n)
    params = make_params(nu, h)
    p, report = solved(nu, h, n=n)
    q, early = minimize(make_initial_profile(grid, params, kind="kink"), SolveOptions(max_iter=3), op)
    assert report.converged and not early.converged
    v = uniqueness_certificate(recenter(p), recenter(q))
    assert v.verdict == "NOT_BOTH_SOLUTIONS"
    assert v.max_grad_1 <= 1e-6 < v.max_grad_2


def test_arcsin_distance_is_convex_on_the_unit_square(rng):
    # phi(a, b) = (arcsin a - arcsin b)^2, with alpha = arcsin a, beta = arcsin b
    # and delta = alpha - beta: phi_aa = 2 alpha'^2 + 2 delta alpha'' and
    # det = 4 delta alpha'^2 beta'^2 [tan alpha - tan beta - delta tan alpha tan beta]
    a, b = rng.uniform(0.0, 1.0, size=(2, 20000))
    a[:2000] = 1.0 - rng.uniform(0.0, 1e-6, 2000)
    b[1000:3000] = 1.0 - rng.uniform(0.0, 1e-6, 2000)
    alpha, beta = np.arcsin(a), np.arcsin(b)
    delta = alpha - beta
    da, db = 1.0 / np.sqrt((1.0 - a) * (1.0 + a)), 1.0 / np.sqrt((1.0 - b) * (1.0 + b))
    phi_aa = 2.0 * da**2 + 2.0 * delta * a * da**3
    phi_bb = 2.0 * db**2 - 2.0 * delta * b * db**3
    phi_ab = -2.0 * da * db
    tan_a, tan_b = np.tan(alpha), np.tan(beta)
    det = 4.0 * delta * da**2 * db**2 * (tan_a - tan_b - delta * tan_a * tan_b)
    assert np.all(phi_aa > 0.0)
    assert np.all(det >= 0.0)
    # the factored determinant is the determinant of the entries
    scale = np.abs(phi_aa * phi_bb) + phi_ab**2
    assert np.max(np.abs(det - (phi_aa * phi_bb - phi_ab**2)) / scale) <= 1e-10


def _pairs_in_the_box(solved, rng, n, half_width):
    """72 pairs about the (n, L) solves theta* at (nu, h) in {0, 1, 4} x
    {0, 0.5}: four pairs theta* + eps b_1, theta* + eps b_2 for each eps in
    {1e-6, 1e-3, 1e-1}, with b = sum_j a_j sin(j pi x / L) exp(-x^2 / 8),
    j = 1..4 and a_j ~ U(-1, 1), clipped into B with the ends and the center
    of theta* restored."""
    pairs = []
    for nu in (0.0, 1.0, 4.0):
        for h in (0.0, 0.5):
            p, _ = solved(nu, h, n=n, half_width=half_width)
            x, c = p.grid.nodes, p.grid.center_index
            lo = np.where(x > 0.0, 0.0, math.pi / 2.0)
            modes = np.sin(np.outer(np.arange(1, 5), math.pi * x / half_width)) * np.exp(-x * x / 8.0)
            for eps in (1e-6, 1e-3, 1e-1):
                profiles = []
                for _ in range(8):
                    theta = np.clip(p.theta + eps * (rng.uniform(-1.0, 1.0, 4) @ modes), lo, lo + math.pi / 2.0)
                    theta[[0, c, -1]] = p.theta[[0, c, -1]]
                    profiles.append(p.with_theta(theta))
                pairs += zip(profiles[::2], profiles[1::2])
    return pairs


BOX_GRIDS = {"in_the_box": (257, 20.0), "in_the_box_1025": (1025, 40.0)}


@pytest.mark.parametrize("which", ["solutions", "kinks", *BOX_GRIDS])
def test_scan_second_derivative_is_at_least_the_convexity_modulus(which, solution_pair, solved, operators, rng):
    # the exchange term is convex in s, so f'' is at least the potential's
    # and the stray term's part: sum w ds^2 + (nu/2) pairing(ds, ds). With
    # the potential's modulus dx this puts every profile of B, solution or
    # not, within its radius of the one critical point, so no pair in B reads
    # CONTRADICTION. Over the 72 pairs in the box at (257, 20): min
    # f''/lower 1.15, max d/(r_1 + r_2) 0.70, 14 COINCIDE and 58
    # NOT_BOTH_SOLUTIONS; at (1025, 40): 1.138, 0.746, 20 and 52
    if which in BOX_GRIDS:
        pairs = _pairs_in_the_box(solved, rng, *BOX_GRIDS[which])
    else:
        pairs = [solution_pair if which == "solutions" else _kink_pair(1.0)]
    verdicts = set()
    for p1, p2 in pairs:
        _, op = operators(p1.grid.n, p1.grid.half_width)
        ds = np.sin(p1.theta) - np.sin(p2.theta)
        w = trapezoid_weights(p1.grid.n, p1.grid.spacing)
        sd = spectrum(op, ds)
        lower = float(w @ (ds * ds)) + 0.5 * p1.params.nu * pairing(op, sd, sd)
        v = uniqueness_certificate(p1, p2)
        assert lower > 0.0
        assert all(pt.f_second_analytic >= lower for pt in v.points)
        assert v.s_distance <= v.radius_1 + v.radius_2
        verdicts.add(v.verdict)
    assert "CONTRADICTION" not in verdicts
    if which in BOX_GRIDS:
        assert verdicts == {"COINCIDE", "NOT_BOTH_SOLUTIONS"}


@pytest.mark.parametrize("nu, h", [(0.5, 0.0), (1.0, 0.25), (4.0, 0.75)])
@pytest.mark.parametrize("max_iter", [2, 5, 10])
def test_radius_bounds_the_distance_of_a_partial_solve(nu, h, max_iter, operators):
    # E is dx-strongly convex in s on the branch box, so a profile lies within
    # its radius of the critical point there, here a solve at 1e-11; a solve
    # cut after max_iter steps of a kink start is 4e-9 to 2e-2 from it
    grid, op = operators(1025)
    params = make_params(nu, h)
    ref, ref_report = minimize(make_initial_profile(grid, params), SolveOptions(grad_tol=1e-11), op)
    partial, _ = minimize(make_initial_profile(grid, params, kind="kink"), SolveOptions(max_iter=max_iter), op)
    assert ref_report.converged
    v = uniqueness_certificate(partial, ref)
    assert v.radius_2 <= 1e-3 * v.radius_1
    assert v.s_distance <= v.radius_1


def test_certificate_coincides_within_the_radii_of_two_solutions(solution_pair):
    v = uniqueness_certificate(*solution_pair)
    assert v.verdict == "COINCIDE"
    assert max(v.max_grad_1, v.max_grad_2) <= 1e-6
    assert 0.0 < v.s_distance <= 0.1 * (v.radius_1 + v.radius_2)


@pytest.mark.parametrize("side", [1, -1])
def test_requires_profiles_in_the_branch_box(side, pair):
    # theta below 0 on x > 0 (or above pi on x < 0) leaves the arcsin branch;
    # the excursion keeps the one crossing of pi/2 that recentring needs
    p1, p2 = pair
    node = p1.grid.center_index + 150 * side
    theta = p1.theta.copy()
    theta[node] = math.pi / 2 - side * (math.pi / 2 + 1e-3)
    with pytest.raises(RangeViolationError, match=f"node {node}"):
        uniqueness_certificate(p1.with_theta(theta), p2)


def _per_t_reference(p1, p2, t, op):
    """f, f', f'' at one t from an energy evaluation of theta^t and two
    pairings of u^t, the way the scan computed them one t at a time."""
    grid, dx, c = p1.grid, p1.grid.spacing, p1.grid.center_index
    nu, h = p1.params.nu, p1.params.h
    s = np.clip(t * np.sin(p1.theta) + (1 - t) * np.sin(p2.theta), -1.0, 1.0)
    theta = np.where(grid.nodes >= 0.0, np.arcsin(s), math.pi - np.arcsin(s))
    theta[c] = math.pi / 2
    f = energy(p1.with_theta(theta), op).total
    cs = np.cos(theta)
    cs[c] = 1.0
    d = np.sin(p1.theta) - np.sin(p2.theta)
    dt1, dt2 = d / cs, d**2 * np.sin(theta) / cs**3
    dt1[c] = dt2[c] = 0.0
    dth, ddt1, ddt2 = np.diff(theta), np.diff(dt1), np.diff(dt2)
    u1, u2 = np.sin(p1.theta) - h, np.sin(p2.theta) - h
    ut, du = t * u1 + (1 - t) * u2, u1 - u2
    w = trapezoid_weights(grid.n, dx)
    fp = float(np.dot(dth, ddt1)) / dx + float(np.dot(w, ut * du))
    fpp = float(np.dot(ddt1, ddt1) + np.dot(dth, ddt2)) / dx + float(np.dot(w, du * du))
    if nu > 0:
        sd = spectrum(op, du)
        fp += (nu / 2) * pairing(op, spectrum(op, ut), sd)
        fpp += (nu / 2) * pairing(op, sd, sd)
    return f, fp, fpp


@pytest.mark.parametrize("which", ["solutions", "kinks"])
def test_scan_matches_per_t_formulas(which, solution_pair, operators):
    p1, p2 = solution_pair if which == "solutions" else _kink_pair(1.0)
    _, op = operators()
    pts = uniqueness_certificate(p1, p2).points
    ts = [pt.t for pt in pts]
    ref = np.array([_per_t_reference(p1, p2, t, op) for t in ts])
    f, fp, fpp = (np.array([getattr(pt, k) for pt in pts]) for k in ("f", "f_prime", "f_second_analytic"))
    assert np.max(np.abs(f - ref[:, 0]) / np.abs(ref[:, 0])) <= 1e-14
    # u^t's spectrum is combined from s_1 and s_2, so f' moves by roundoff of the pairing
    assert np.max(np.abs(fp - ref[:, 1])) <= 1e-18 + 1e-14 * np.max(np.abs(fp))
    assert np.max(np.abs(fpp - ref[:, 2]) / np.abs(ref[:, 2])) <= 1e-14
