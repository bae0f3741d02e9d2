import math

import numpy as np
import pytest

from neelwall import (
    decay_prediction,
    fit_decay,
    fold,
    fundamental_solution,
    make_grid,
    make_linearized,
    make_operator,
    make_params,
    reconstruct,
)
from neelwall.greenfn import FoldedProfile, apply_linearized, convolve_green, reconstructed_deviation
from neelwall.model import trapezoid_weights


@pytest.fixture(scope="module")
def setup():
    params = make_params(1.0, 0.3)
    grid = make_grid(2049, 40.0)
    return params, grid, make_linearized(params, grid)


def test_requires_positive_nu():
    grid = make_grid(257, 40.0)
    with pytest.raises(ValueError):
        make_linearized(make_params(0.0, 0.0), grid)


def test_symbol_bounded_below(setup):
    params, _, lin = setup
    c2 = math.cos(params.theta_h) ** 2
    assert np.all(lin.symbol >= c2)


@pytest.mark.parametrize("nu,h", [(0.5, 0.0), (1.0, 0.5), (2.0, 0.0), (4.0, 0.5)])
def test_green_positive_even_bounded(nu, h):
    grid = make_grid(1025, 40.0)
    lin = make_linearized(make_params(nu, h), grid)
    g = fundamental_solution(lin)
    assert np.all(g > 0.0)
    assert np.max(np.abs(g - g[::-1])) <= 1e-13 * np.max(g)
    x = grid.nodes
    tail = np.abs(x) >= 0.25 * grid.half_width
    assert np.max(x[tail] ** 2 * g[tail]) < 10.0


def _direct_green(lin):
    """Lattice values irfft(1 / symbol) / dx at the node offsets -(n-1)..n-1."""
    n, padded_len = lin.grid.n, lin.lattice.padded_len
    g_pad = np.fft.irfft(1.0 / lin.symbol, n=padded_len) / lin.grid.spacing
    return g_pad[np.arange(-(n - 1), n) % padded_len]


@pytest.mark.parametrize("nu,h", [(1.0, 0.3), (4.0, 0.75), (0.5, 0.0)])
def test_solve_matches_direct_convolution(nu, h):
    # reference: the lattice G gathered at the node offsets and convolved
    # directly with the trapezoid-weighted forcing
    grid = make_grid(1025, 40.0)
    lin = make_linearized(make_params(nu, h), grid)
    n, c, x = grid.n, grid.center_index, grid.nodes
    g_full = _direct_green(lin)
    g = fundamental_solution(lin)
    assert np.max(np.abs(g - g_full[c : c + n])) <= 1e-13 * np.max(g)
    for f in (np.exp(-0.25 * x**2), (1.0 + x) / (1.0 + x**2)):
        direct = np.convolve(g_full, f * trapezoid_weights(n, grid.spacing))[n - 1 : 2 * n - 1]
        gf = convolve_green(f, lin)
        assert np.max(np.abs(gf - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_green_function_transforms_only_at_the_embedding_length(monkeypatch):
    # the Green column is built once, by one irfft on the padded lattice;
    # G is then gathered from it or applied through the circulant embedding
    grid = make_grid(1025, 40.0)
    params = make_params(1.0, 0.3)
    op = make_operator(grid)
    calls = []
    for name in ("rfft", "irfft"):

        def traced(a, n=None, *args, _fft=getattr(np.fft, name), _name=name, **kwargs):
            out = _fft(a, n, *args, **kwargs)
            calls.append((_name, out.shape[-1] if _name == "irfft" else n or a.shape[-1]))
            return out

        monkeypatch.setattr(np.fft, name, traced)
    lin = make_linearized(params, grid, op)
    assert calls == [("irfft", op.padded_len)]
    calls.clear()
    fundamental_solution(lin)
    assert calls == []
    f = np.exp(-0.25 * grid.nodes**2)
    convolve_green(f, lin)
    reconstructed_deviation(FoldedProfile(grid=grid, params=params, rho=f, a=0.3, forcing=f), lin)
    assert calls and {length for _, length in calls} == {op.embed_len}
    assert op.embed_len < op.padded_len


def test_green_mass_is_symbol_at_zero(setup):
    params, grid, lin = setup
    g = fundamental_solution(lin)
    mass = trapezoid_weights(grid.n, grid.spacing) @ g
    assert mass == pytest.approx(1.0 / math.cos(params.theta_h) ** 2, rel=0.01)


def test_invertibility_round_trip(setup):
    _, grid, lin = setup
    w = np.exp(-0.5 * grid.nodes**2)
    back = convolve_green(apply_linearized(w, lin), lin)
    assert np.max(np.abs(back - w)) <= 1e-3 * np.max(np.abs(w))


def test_fold_properties(solved, operators):
    p, _ = solved(1.0, 0.0, n=1025)
    _, op = operators(1025)
    fp = fold(p, op)
    assert fp.a > 0.0
    even_defect = np.max(np.abs(fp.rho - fp.rho[::-1]))
    assert even_defect <= 1e-4


def test_fold_requires_nonlocal_term(solved):
    p, _ = solved(0.0, 0.0, n=1025)
    with pytest.raises(ValueError):
        fold(p)


def test_reconstruct_constructed_pair(setup):
    _, grid, lin = setup
    params = make_params(1.0, 0.3)
    f = np.exp(-0.25 * grid.nodes**2)
    rho = params.theta_h + 0.3 * fundamental_solution(lin) + convolve_green(f, lin)
    fp = FoldedProfile(grid=grid, params=params, rho=rho, a=0.3, forcing=f)
    assert reconstruct(fp, lin) <= 1e-12


def test_reconstruct_zero_data(setup):
    _, grid, lin = setup
    params = make_params(1.0, 0.3)
    fp = FoldedProfile(
        grid=grid,
        params=params,
        rho=np.full(grid.n, params.theta_h),
        a=0.0,
        forcing=np.zeros(grid.n),
    )
    assert reconstruct(fp, lin) == 0.0


def test_reconstruct_minimizer(solved, operators):
    p, _ = solved(1.0, 0.3, n=2049)
    _, op = operators(2049)
    fp = fold(p, op)
    lin = make_linearized(p.params, p.grid)
    assert reconstruct(fp, lin) <= 5e-2


def test_decay_prediction_linearity(setup):
    _, grid, lin = setup
    params = make_params(1.0, 0.3)
    f = np.zeros(grid.n)
    one = FoldedProfile(grid=grid, params=params, rho=f, a=1.0, forcing=f)
    two = FoldedProfile(grid=grid, params=params, rho=f, a=2.0, forcing=f)
    assert decay_prediction(two, lin) == pytest.approx(2.0 * decay_prediction(one, lin), rel=1e-12)


def test_decay_prediction_matches_fit(solved, operators):
    p, _ = solved(1.0, 0.0, n=4097, half_width=80.0)
    _, op = operators(4097, 80.0)
    fp = fold(p, op)
    lin = make_linearized(p.params, p.grid)
    pred = decay_prediction(fp, lin)
    fit = fit_decay(p)
    assert abs(pred - fit.c_plus) / fit.c_plus <= 0.2
