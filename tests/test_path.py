import math

import numpy as np
import pytest

from neelwall import (
    NotRecentredError,
    RangeViolationError,
    energy,
    interpolate_profiles,
    make_grid,
    make_initial_profile,
    make_operator,
    make_params,
    path_scan,
    recenter,
    stationarity_defect,
    uniqueness_certificate,
)
from neelwall.path import path_velocity_norm


@pytest.fixture(scope="module")
def pair():
    params = make_params(1.0, 0.3)
    grid = make_grid(513, 40.0)
    p1 = recenter(make_initial_profile(grid, params, kind="kink", width=1.0))
    p2 = recenter(make_initial_profile(grid, params, kind="kink", width=2.0))
    return p1, p2


def test_endpoints_exact(pair):
    p1, p2 = pair
    assert np.array_equal(interpolate_profiles(p1, p2, 1.0).theta, p1.theta)
    assert np.array_equal(interpolate_profiles(p1, p2, 0.0).theta, p2.theta)


def test_fixed_point(pair):
    p1, _ = pair
    mid = interpolate_profiles(p1, p1, 0.5)
    assert np.max(np.abs(mid.theta - p1.theta)) <= 1e-14


def test_midpoint_formula(pair, rng):
    p1, p2 = pair
    t = 0.5
    q = interpolate_profiles(p1, p2, t)
    idx = rng.integers(1, p1.grid.n - 1, size=10)
    s = t * np.sin(p1.theta[idx]) + (1 - t) * np.sin(p2.theta[idx])
    assert np.allclose(np.sin(q.theta[idx]), s, atol=1e-14)


def test_center_node_is_half_pi(pair):
    p1, p2 = pair
    c = p1.grid.center_index
    for t in (0.0, 0.3, 0.7, 1.0):
        assert interpolate_profiles(p1, p2, t).theta[c] == math.pi / 2


def test_requires_recentred_inputs(pair):
    p1, p2 = pair
    shifted = p1.with_theta(np.roll(p1.theta, 5))
    with pytest.raises(NotRecentredError):
        interpolate_profiles(shifted, p2, 0.5)


def test_range_guard(pair):
    p1, p2 = pair
    c = p1.grid.center_index
    # depress one sine sample so the t = 1.5 extrapolation overshoots 1
    theta = p2.theta.copy()
    theta[c + 1] = p2.params.theta_h
    with pytest.raises(RangeViolationError):
        interpolate_profiles(p1, p2.with_theta(theta), 1.5)


def test_scan_endpoint_energies(pair, operators):
    p1, p2 = pair
    _, op = operators()
    pts = path_scan(p1, p2, t_grid=np.linspace(0, 1, 11), op=op)
    assert pts[0].f == pytest.approx(energy(p2, op).total, rel=1e-14)
    assert pts[-1].f == pytest.approx(energy(p1, op).total, rel=1e-14)


def test_scan_convexity_and_fd_consistency(pair, operators):
    p1, p2 = pair
    _, op = operators()
    pts = path_scan(p1, p2, op=op)
    assert min(pt.f_second_analytic for pt in pts) > 0.0
    for pt in pts:
        if not math.isnan(pt.f_second_fd):
            assert abs(pt.f_second_fd - pt.f_second_analytic) <= 1e-4 * abs(pt.f_second_analytic)


def test_scan_first_derivative_matches_fd(pair, operators):
    p1, p2 = pair
    _, op = operators()
    ts = np.linspace(0, 1, 21)
    pts = path_scan(p1, p2, t_grid=ts, op=op)
    fs = np.array([pt.f for pt in pts])
    dt = ts[1] - ts[0]
    fd = (fs[2:] - fs[:-2]) / (2 * dt)
    an = np.array([pt.f_prime for pt in pts])[1:-1]
    # central difference carries its own O(dt^2) truncation error
    assert np.max(np.abs(fd - an)) <= 1e-3 * np.max(np.abs(an))


def test_scan_swap_symmetry(pair, operators):
    p1, p2 = pair
    _, op = operators()
    ts = np.linspace(0, 1, 9)
    a = path_scan(p1, p2, t_grid=ts, op=op)
    b = path_scan(p2, p1, t_grid=ts, op=op)
    for pa, pb in zip(a, b[::-1]):
        assert pa.f == pytest.approx(pb.f, rel=1e-13)


def test_scan_degenerate_pair(pair, operators):
    p1, _ = pair
    _, op = operators()
    pts = path_scan(p1, p1, t_grid=np.linspace(0, 1, 9), op=op)
    for pt in pts:
        assert pt.f == pytest.approx(pts[0].f, rel=1e-14)
        assert abs(pt.f_prime) <= 1e-12
        assert abs(pt.f_second_analytic) <= 1e-12


def test_stationarity_zero_for_identical(pair):
    p1, _ = pair
    assert stationarity_defect(p1, p1) == 0.0


def test_stationarity_separates_solution_from_kink(solved, operators):
    p, report = solved(1.0, 0.3)
    grid, op = operators()
    params = make_params(1.0, 0.3)
    kink = recenter(make_initial_profile(grid, params, kind="kink", width=2.0))
    d_solution = abs(stationarity_defect(p, kink, op=op))
    d_kink = abs(stationarity_defect(kink, p, op=op))
    vel = path_velocity_norm(p, kink, 1.0)
    assert d_solution <= 10.0 * 1e-6 * vel
    assert d_kink > 1e-3


def test_certificate_identical_inputs(pair, operators):
    p1, _ = pair
    _, op = operators()
    v = uniqueness_certificate(p1, p1, op=op)
    assert v.verdict == "COINCIDE"
    assert v.identical_inputs


def test_certificate_rejects_non_solution_pair(solved, operators):
    p, _ = solved(1.0, 0.3)
    grid, op = operators()
    kink = recenter(make_initial_profile(grid, make_params(1.0, 0.3), kind="kink", width=2.0))
    v = uniqueness_certificate(p, kink, op=op)
    assert v.verdict == "NOT_BOTH_SOLUTIONS"
