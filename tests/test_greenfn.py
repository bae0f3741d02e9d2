import math

import numpy as np
import pytest

from neelwall import far_field_constant, fit_decay, make_grid, make_initial_profile, make_operator, make_params
from neelwall.greenfn import linearized_symbol
from neelwall.model import trapezoid_weights


def _green(params, grid):
    """The fundamental solution G of the linearized operator at the grid
    nodes: the padded lattice's inverse transform of 1/symbol over dx,
    gathered at |x_i|."""
    padded_len = make_operator(grid).padded_len
    k = 2.0 * math.pi * np.fft.rfftfreq(padded_len, grid.spacing)
    column = np.fft.irfft(1.0 / linearized_symbol(params, k, k**2), padded_len)[: grid.n] / grid.spacing
    return column[np.abs(np.arange(grid.n) - grid.center_index)]


def test_symbol_bounded_below():
    params = make_params(1.0, 0.3)
    grid = make_grid(2049, 40.0)
    k = 2.0 * math.pi * np.fft.rfftfreq(make_operator(grid).padded_len, grid.spacing)
    assert np.all(linearized_symbol(params, k, k**2) >= math.cos(params.theta_h) ** 2)


@pytest.mark.parametrize("nu,h", [(0.5, 0.0), (1.0, 0.5), (2.0, 0.0), (4.0, 0.5)])
def test_green_positive_even_bounded(nu, h):
    grid = make_grid(1025, 40.0)
    g = _green(make_params(nu, h), grid)
    assert np.all(g > 0.0)
    assert np.max(np.abs(g - g[::-1])) <= 1e-13 * np.max(g)
    x = grid.nodes
    tail = np.abs(x) >= 0.25 * grid.half_width
    assert np.max(x[tail] ** 2 * g[tail]) < 10.0


def test_green_mass_is_symbol_at_zero():
    params = make_params(1.0, 0.3)
    grid = make_grid(2049, 40.0)
    mass = trapezoid_weights(grid.n, grid.spacing) @ _green(params, grid)
    assert mass == pytest.approx(1.0 / math.cos(params.theta_h) ** 2, rel=0.01)


@pytest.mark.parametrize("nu,h", [(1.0, 0.25), (4.0, 0.0), (10.0, 0.5)])
def test_green_tail_is_the_closed_form(nu, h):
    # the |k| term of 1/symbol at k = 0 gives x^2 G -> nu / (2 pi cos^2 theta_h);
    # read 0.1723, 0.6437 and 2.108 against 0.1698, 0.6366 and 2.122
    params = make_params(nu, h)
    grid = make_grid(16385, 160.0)
    x = grid.nodes
    window = (x >= 60.0) & (x <= 100.0)
    tail = float(np.median(x[window] ** 2 * _green(params, grid)[window]))
    assert tail == pytest.approx(nu / (2.0 * math.pi * math.cos(params.theta_h) ** 2), rel=0.02)


@pytest.mark.parametrize("nu", [0.0, 1.0, 4.0])
def test_far_field_constant_of_the_local_kink(nu):
    # at h = 0, sin(2 arctan e^-x) = sech x integrates to pi: c_inf = nu / 2
    grid = make_grid(2049, 40.0)
    p = make_initial_profile(grid, make_params(nu, 0.0), kind="kink")
    assert far_field_constant(p) == pytest.approx(nu / 2.0, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("nu,h", [(1.0, 0.0), (4.0, 0.5)])
def test_far_field_constant_matches_the_fitted_tail(nu, h, solved):
    p, _ = solved(nu, h, n=4097, half_width=80.0)
    fit = fit_decay(p)
    assert abs(fit.c_plus - far_field_constant(p)) <= 0.05 * far_field_constant(p)
