"""Discrete reduced 1D wall energy, its exact gradient, and the
Euler-Lagrange residual.

The discrete energy is the quantity the solver minimizes:

  E = 1/2 sum ((theta_{i+1}-theta_i)/dx)^2 dx          (exchange)
    + 1/2 sum w_i (sin theta_i - h)^2 dx               (potential)
    + (nu/4) pairing(u, u),  u = sin theta - h         (stray)

with trapezoid weights w and the Parseval stray form from halflap. One
kernel, energy_and_gradient, evaluates it together with its exact derivative
with respect to the interior node values (boundary nodes are
Dirichlet-frozen): it computes sin theta, cos theta and u once, takes the
stray energy from pairing(u, u) and the stray field from apply_spectral(u),
three FFTs in all. The exact gradient guarantees monotone descent and exact
stationarity at discrete minimizers. el_residual is the same gradient
divided by dx, which on smooth profiles samples the continuum
Euler-Lagrange operator to O(dx^2); it is a stationarity metric, not an
independent check of the gradient.
"""

from __future__ import annotations

import numpy as np

from .halflap import HalfLaplacianOperator, apply_spectral, pairing
from .model import EnergyBreakdown, WallProfile, trapezoid_weights

__all__ = [
    "energy",
    "el_residual",
    "energy_gradient",
    "energy_and_gradient",
    "energy_parts",
]


def energy_and_gradient(
    p: WallProfile, op: HalfLaplacianOperator
) -> tuple[EnergyBreakdown, np.ndarray]:
    """The three energy parts and the exact gradient with respect to the
    interior node values, returned full length with zeros at the frozen
    boundary nodes."""
    theta = p.theta
    dx = p.grid.spacing
    h, nu = p.params.h, p.params.nu
    sin, cos = np.sin(theta), np.cos(theta)
    u = sin - h
    g = np.zeros_like(theta)
    g[1:-1] = (2.0 * theta[1:-1] - theta[2:] - theta[:-2]) / dx
    g[1:-1] += (u * cos)[1:-1] * dx
    stray = 0.0
    if nu > 0:
        stray = 0.25 * nu * pairing(op, u, u)
        g[1:-1] += 0.5 * nu * (cos * apply_spectral(op, u))[1:-1] * dx
    return energy_parts(theta, u, dx, stray), g


def energy_parts(
    theta: np.ndarray, u: np.ndarray, dx: float, stray: float
) -> EnergyBreakdown:
    """The breakdown of the discrete energy of theta, u = sin theta - h,
    given its stray part (nu/4) pairing(u, u)."""
    exchange = 0.5 * float(np.sum(np.diff(theta) ** 2)) / dx
    potential = 0.5 * float(np.dot(trapezoid_weights(len(theta), dx), u * u))
    return EnergyBreakdown(
        exchange=exchange,
        potential=potential,
        stray=stray,
        total=exchange + potential + stray,
    )


def energy(p: WallProfile, op: HalfLaplacianOperator) -> EnergyBreakdown:
    """Evaluate the three energy parts for a sampled profile."""
    return energy_and_gradient(p, op)[0]


def energy_gradient(p: WallProfile, op: HalfLaplacianOperator) -> np.ndarray:
    """Exact gradient of the discrete energy with respect to the interior
    node values; zeros at the frozen boundary nodes."""
    return energy_and_gradient(p, op)[1]


def el_residual(p: WallProfile, op: HalfLaplacianOperator) -> np.ndarray:
    """Euler-Lagrange residual on the interior nodes, energy_gradient / dx:

    R = -theta_xx + (sin theta - h) cos theta
        + (nu/2) cos theta (-d^2/dx^2)^(1/2) (sin theta - h)
    with the second difference for theta_xx and the spectral half-Laplacian.
    """
    return energy_gradient(p, op)[1:-1] / p.grid.spacing
