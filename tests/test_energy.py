import math

import numpy as np
import pytest

from neelwall import (
    energy,
    energy_and_gradient,
    grad_norm,
    make_grid,
    make_initial_profile,
    make_operator,
    make_params,
    minimize,
    path_scan,
    uniqueness_certificate,
    verify,
)
from neelwall.model import trapezoid_weights


def test_trapezoid_weights_sum():
    w = trapezoid_weights(101, 0.25)
    assert np.sum(w) == pytest.approx(0.25 * 100)
    assert w[0] == w[-1] == pytest.approx(0.125)


def test_kink_energy_is_two():
    # sine-Gordon: theta = 2 arctan(e^{-x}) has E = 2 at nu = 0, h = 0
    params = make_params(0.0, 0.0)
    grid = make_grid(2049, 40.0)
    op = make_operator(grid)
    p = make_initial_profile(grid, params, kind="kink")
    eb = energy(p, op)
    assert eb.stray == 0.0
    # forward-difference exchange and trapezoid potential are O(dx^2)
    assert eb.total == pytest.approx(2.0, abs=1e-4)
    assert eb.exchange == pytest.approx(1.0, abs=1e-4)
    assert eb.potential == pytest.approx(1.0, abs=1e-4)


def test_stray_term_nonnegative(rng):
    params = make_params(1.0, 0.3)
    grid = make_grid(257, 40.0)
    op = make_operator(grid)
    for seed in range(3):
        p = make_initial_profile(grid, params, kind="perturbed", seed=seed)
        assert energy(p, op).stray >= 0.0


def test_vacuum_has_zero_energy():
    params = make_params(1.0, 0.3)
    grid = make_grid(257, 40.0)
    op = make_operator(grid)
    p = make_initial_profile(grid, params, kind="kink").with_theta(
        np.full(grid.n, params.theta_h)
    )
    eb = energy(p, op)
    assert eb.total == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("nu,h", [(0.0, 0.0), (1.0, 0.3), (2.0, 0.0)])
def test_gradient_matches_finite_differences(nu, h, rng):
    params = make_params(nu, h)
    grid = make_grid(257, 40.0)
    op = make_operator(grid)
    p = make_initial_profile(grid, params, kind="perturbed", seed=2)
    g = energy_and_gradient(p, op)[1]
    assert g[0] == g[-1] == 0.0
    eps = 1e-6
    for _ in range(5):
        d = rng.standard_normal(grid.n)
        d[0] = d[-1] = 0.0
        ep = energy(p.with_theta(p.theta + eps * d), op).total
        em = energy(p.with_theta(p.theta - eps * d), op).total
        fd = (ep - em) / (2.0 * eps)
        dg = float(np.dot(g, d))
        assert abs(fd - dg) <= 1e-6 * max(abs(dg), 1e-3)


def test_el_residual_small_on_minimizer(solved, operators):
    p, report = solved(1.0, 0.0)
    _, op = operators()
    assert report.converged
    assert grad_norm(energy_and_gradient(p, op)[1], p.grid.spacing) <= 1e-5


def test_el_residual_large_off_minimizer(operators):
    grid, op = operators()
    params = make_params(1.0, 0.0)
    p = make_initial_profile(grid, params, kind="kink")
    assert grad_norm(energy_and_gradient(p, op)[1], p.grid.spacing) > 1e-2


@pytest.mark.parametrize("nu, transforms", [(1.0, {"rfft": 1, "irfft": 1}), (0.0, {})])
def test_an_evaluation_transforms_at_the_embedding_length(nu, transforms, monkeypatch):
    # the stray energy and field share one spectrum: 1 rfft and 1 irfft at
    # the circulant embedding's length, none at the padded lattice's
    grid = make_grid(2049, 40.0)
    op = make_operator(grid)
    p = make_initial_profile(grid, make_params(nu, 0.25), kind="kink")
    calls = []
    for name in ("rfft", "irfft"):

        def traced(a, n=None, *args, _fft=getattr(np.fft, name), _name=name, **kwargs):
            out = _fft(a, n, *args, **kwargs)
            calls.append((_name, out.shape[-1] if _name == "irfft" else n or a.shape[-1]))
            return out

        monkeypatch.setattr(np.fft, name, traced)
    energy_and_gradient(p, op)
    assert {name: sum(c[0] == name for c in calls) for name in transforms} == transforms
    assert len(calls) == sum(transforms.values())
    assert {length for _, length in calls} <= {op.embed_len}
    assert op.embed_len == 2 * (grid.n - 1)
    assert op.embed_len < op.padded_len


ENTRY_POINTS = {
    "energy_and_gradient": lambda p, q, op: energy_and_gradient(p, op),
    "minimize": lambda p, q, op: minimize(p, op=op),
    "verify": lambda p, q, op: verify(p, op),
    "path_scan": lambda p, q, op: path_scan(p, q, op=op),
    "uniqueness_certificate": lambda p, q, op: uniqueness_certificate(p, q, op=op),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("n, half_width", [(1023, 40.0), (1025, 20.0)], ids=["other_n", "other_L"])
def test_an_operator_for_another_grid_is_rejected(entry, n, half_width, solved):
    # another lattice pairs the samples with the wrong |k|: instead of
    # raising, path_scan read f(0) = 1.3993628 for 1.3993651 with n = 1023,
    # and verify failed el_residual and stray_crosscheck with L = 20
    p, _ = solved(1.0, 0.25, n=1025)
    q, _ = solved(1.0, 0.25, n=1025, kind="perturbed", seed=3)
    op = make_operator(make_grid(n, half_width))
    with pytest.raises(ValueError, match="operator built for"):
        ENTRY_POINTS[entry](p, q, op)
