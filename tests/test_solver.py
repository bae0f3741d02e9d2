import math

import numpy as np
import pytest

from neelwall import (
    NoCrossingError,
    make_grid,
    make_initial_profile,
    make_params,
    minimize,
)
from neelwall.model import ModelParams
from neelwall.solver import SolveOptions, sweep, sweep_csv_lines


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


def test_sweep_rows_and_error_isolation():
    grid = make_grid(257, 40.0)
    good = make_params(1.0, 0.0)
    # inexpressible through make_params; a raw record models a corrupted
    # input row
    bad = ModelParams(nu=1.0, h=math.nan, theta_h=math.nan)
    rows = sweep([good, bad], grid, SolveOptions(grad_tol=1e-5))
    assert len(rows) == 2
    assert rows[0].converged and rows[0].error == ""
    assert not rows[1].converged and rows[1].error != ""
    lines = sweep_csv_lines(rows)
    assert lines[0].startswith("nu,h,exchange")
    assert len(lines) == 3


def test_sweep_empty():
    grid = make_grid(257, 40.0)
    assert sweep([], grid) == []


def test_sweep_energies_decrease_in_h():
    grid = make_grid(513, 40.0)
    params = [make_params(1.0, h) for h in (0.0, 0.25, 0.5)]
    rows = sweep(params, grid, SolveOptions(grad_tol=1e-5))
    totals = [r.energy.total for r in rows]
    assert totals[0] > totals[1] > totals[2]
