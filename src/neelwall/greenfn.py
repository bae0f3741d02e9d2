"""Linearization around the tilted vacuum and its fundamental solution.

Folding the wall across x = 0 gives an even profile rho whose deviation
from theta_h satisfies L(rho - theta_h) = a delta + f, where

    L = -d^2/dx^2 + (nu/2) cos^2(theta_h) (-d^2/dx^2)^{1/2} + cos^2(theta_h)

and a = 2 |theta'(0)| comes from the slope jump at the fold. Inverting L
through its Fourier symbol yields the fundamental solution G, and the
representation rho = theta_h + a G + G * f explains the x^-2 tail: both
G and the convolution inherit quadratic decay from the |k| term. Between
grid nodes L and G are the padded lattice's Toeplitz columns of the symbol
and of 1/symbol over dx, applied like the half-Laplacian in halflap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .halflap import HalfLaplacianOperator, apply_spectral, lattice_column, make_operator, toeplitz_product
from .model import Grid, ModelParams, WallProfile, tail_window, trapezoid_weights

__all__ = [
    "LinearizedOperator",
    "FoldedProfile",
    "linearized_symbol",
    "make_linearized",
    "apply_linearized",
    "fundamental_solution",
    "convolve_green",
    "fold",
    "reconstructed_deviation",
    "reconstruct",
    "decay_prediction",
]

CORE_EXCLUSION_NODES = 3


@dataclass(frozen=True)
class LinearizedOperator:
    """Fourier symbol k^2 + (nu/2) cos^2(theta_h) |k| + cos^2(theta_h)
    sampled on the non-negative frequencies of the grid's padded lattice,
    and green, the fundamental solution G between grid nodes: the lattice
    column of 1/symbol over dx, G(x_i - x_j) = green[|i - j|]."""

    params: ModelParams
    lattice: HalfLaplacianOperator
    symbol: np.ndarray
    green: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.lattice.grid


@dataclass(frozen=True)
class FoldedProfile:
    """Even folding rho of a wall profile, the slope-jump weight a, and the
    smooth forcing f = L(rho - theta_h) away from the fold node."""

    grid: Grid
    params: ModelParams
    rho: np.ndarray
    a: float
    forcing: np.ndarray


def linearized_symbol(params: ModelParams, k: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """k2 + (nu/2) cos^2(theta_h) |k| + cos^2(theta_h), where k2 is k^2 or a
    discrete second-difference eigenvalue in its place."""
    c2 = math.cos(params.theta_h) ** 2
    return k2 + 0.5 * params.nu * c2 * k + c2


def make_linearized(
    params: ModelParams, grid: Grid, lattice: HalfLaplacianOperator | None = None
) -> LinearizedOperator:
    """The linearized symbol and its Green column on the grid's padded
    lattice; a given lattice is reused when it belongs to the same grid."""
    if params.nu <= 0:
        raise ValueError("linearized operator requires nu > 0")
    if lattice is None or lattice.grid != grid:
        lattice = make_operator(grid)
    k = lattice.wavenumbers
    symbol = linearized_symbol(params, k, k**2)
    green = lattice_column(1.0 / symbol, lattice.padded_len, grid.n) / grid.spacing
    return LinearizedOperator(params=params, lattice=lattice, symbol=symbol, green=green)


def apply_linearized(w: np.ndarray, lin: LinearizedOperator) -> np.ndarray:
    """L w for a sample vector decaying to 0 at the ends (zero extension)."""
    return toeplitz_product(lattice_column(lin.symbol, lin.lattice.padded_len, lin.grid.n), w)


def fundamental_solution(lin: LinearizedOperator) -> np.ndarray:
    """G(x_i) on the grid nodes, the Green column gathered at |i - c|; even
    and positive, with G(x) = O(1/x^2)."""
    return lin.green[np.abs(np.arange(lin.grid.n) - lin.grid.center_index)]


def convolve_green(f: np.ndarray, lin: LinearizedOperator) -> np.ndarray:
    """(G * f)(x_i) by trapezoid quadrature over the grid nodes, with G the
    padded lattice's Green column (no truncation of G itself)."""
    return toeplitz_product(lin.green, f * trapezoid_weights(lin.grid.n, lin.grid.spacing))


def fold(p: WallProfile, op: HalfLaplacianOperator | None = None) -> FoldedProfile:
    """Fold theta across x = 0 and extract (rho, a, forcing).

    rho(x) = theta(x) for x >= 0 and pi - theta(x) for x < 0; a is twice
    the central slope magnitude at the fold; the forcing is L(rho-theta_h)
    evaluated with a central second difference and the spectral
    half-Laplacian, with the fold node filled by its neighbor average
    (the slope jump there belongs to the delta term, not to f).
    """
    if p.params.nu <= 0:
        raise ValueError("folding requires nu > 0")
    op = op or make_operator(p.grid)
    grid = p.grid
    c = grid.center_index
    dx = grid.spacing
    x = grid.nodes
    rho = np.where(x >= 0.0, p.theta, math.pi - p.theta)
    a = 2.0 * abs((p.theta[c + 1] - p.theta[c - 1]) / (2.0 * dx))
    w = rho - p.params.theta_h
    c2 = math.cos(p.params.theta_h) ** 2
    lam = apply_spectral(op, w)
    f = np.empty(grid.n)
    f[1:-1] = (
        -(w[2:] - 2.0 * w[1:-1] + w[:-2]) / dx**2
        + 0.5 * p.params.nu * c2 * lam[1:-1]
        + c2 * w[1:-1]
    )
    f[0] = f[1]
    f[-1] = f[-2]
    f[c] = 0.5 * (f[c - 1] + f[c + 1])
    return FoldedProfile(grid=grid, params=p.params, rho=rho, a=a, forcing=f)


def reconstructed_deviation(fp: FoldedProfile, lin: LinearizedOperator) -> np.ndarray:
    """a G + G * f in one product with the Green column: the fold's point
    mass plus the weighted forcing."""
    grid = fp.grid
    s = fp.forcing * trapezoid_weights(grid.n, grid.spacing)
    s[grid.center_index] += fp.a
    return toeplitz_product(lin.green, s)


def reconstruct(fp: FoldedProfile, lin: LinearizedOperator, dev: np.ndarray | None = None) -> float:
    """Relative sup residual of rho = theta_h + a G + G * f against the
    folded profile, over interior nodes away from the fold; dev is
    reconstructed_deviation(fp, lin), computed here when not given."""
    if dev is None:
        dev = reconstructed_deviation(fp, lin)
    target = fp.rho - fp.params.theta_h
    c = fp.grid.center_index
    keep = np.ones(fp.grid.n, dtype=bool)
    keep[:1] = keep[-1:] = False
    keep[c - CORE_EXCLUSION_NODES : c + CORE_EXCLUSION_NODES + 1] = False
    resid = float(np.max(np.abs(dev[keep] - target[keep])))
    scale = float(np.max(np.abs(target)))
    if scale == 0.0:
        return resid
    return resid / scale


def decay_prediction(fp: FoldedProfile, lin: LinearizedOperator, dev: np.ndarray | None = None) -> float:
    """Tail limit of x^2 (a G + G * f) over the window [0.5 L, 0.9 L] on
    the right side, comparable to the fitted decay constant; dev as in
    reconstruct."""
    if dev is None:
        dev = reconstructed_deviation(fp, lin)
    x = fp.grid.nodes
    _, mask = tail_window(fp.grid)
    return float(np.median(x[mask] ** 2 * dev[mask]))

