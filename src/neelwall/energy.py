"""Discrete reduced 1D wall energy, its exact gradient and stationarity measure.

The discrete energy is the quantity the solver minimizes:

  E = 1/2 sum ((theta_{i+1}-theta_i)/dx)^2 dx          (exchange)
    + 1/2 sum w_i (sin theta_i - h)^2 dx               (potential)
    + (nu/4) pairing(u, u),  u = sin theta - h         (stray)

with trapezoid weights w and the Parseval stray form from halflap. One
kernel, energy_and_gradient, evaluates it together with its exact derivative
with respect to the interior node values (boundary nodes are
Dirichlet-frozen): it computes u and cos theta once, takes the spectrum of
u once and from it the stray energy (pairing) and the stray field v
(apply_spectral), one rfft and one irfft in all, applies the local and
stray forces as one product cos theta (u + (nu/2) v), and returns v with
the energy and gradient, so verify reads all three from one call. Its two
halves, energy_parts and gradient, take u and the stray part or field, so
the uniqueness certificate builds a gradient from the spectrum its path
scan has already taken. The exact gradient guarantees monotone descent and
exact stationarity at discrete minimizers. grad_norm, sup|g|/dx, is the one measure of
stationarity and GRAD_TOL its one default tolerance: the solver stops on
it, the uniqueness certificate reads it and verify gates it as el_residual.
"""

from __future__ import annotations

import numpy as np

from .halflap import HalfLaplacianOperator, apply_spectral, pairing, spectrum
from .model import EnergyBreakdown, WallProfile

__all__ = [
    "GRAD_TOL",
    "energy",
    "energy_and_gradient",
    "energy_parts",
    "grad_norm",
    "gradient",
]

# a profile is a solution when grad_norm <= GRAD_TOL
GRAD_TOL = 1e-6


def energy_and_gradient(
    p: WallProfile, op: HalfLaplacianOperator
) -> tuple[EnergyBreakdown, np.ndarray, np.ndarray | None]:
    """The three energy parts, the exact gradient with respect to the
    interior node values, returned full length with zeros at the frozen
    boundary nodes, and the stray field v, the half-Laplacian of u the
    gradient is built from (None at nu = 0, where no transform is made).
    Raises ValueError when op was built for another grid."""
    if op.grid != p.grid:
        raise ValueError(f"operator built for {op.grid}, profile on {p.grid}")
    theta = p.theta
    dx = p.grid.spacing
    h, nu = p.params.h, p.params.nu
    u = np.sin(theta)
    u -= h
    stray, field = 0.0, None
    if nu > 0:
        su = spectrum(op, u)
        stray = 0.25 * nu * pairing(op, su, su)
        field = apply_spectral(op, su)
    return energy_parts(theta, u, dx, stray), gradient(theta, u, dx, nu, field), field


def gradient(
    theta: np.ndarray, u: np.ndarray, dx: float, nu: float, field: np.ndarray | None
) -> np.ndarray:
    """The exact gradient of the discrete energy of theta, u = sin theta - h,
    with respect to the interior node values, full length with zeros at the
    frozen boundary nodes, given the stray field, the half-Laplacian of u
    (None at nu = 0)."""
    g = np.zeros_like(theta)
    inner = g[1:-1]
    np.multiply(theta[1:-1], 2.0, out=inner)
    inner -= theta[2:]
    inner -= theta[:-2]
    inner /= dx
    # local and stray forces in one product: cos theta (u + nu/2 T v)
    if field is None:
        force = np.cos(theta[1:-1]) * u[1:-1]
    else:
        force = field[1:-1] * (0.5 * nu)
        force += u[1:-1]
        force *= np.cos(theta[1:-1])
    force *= dx
    inner += force
    return g


def grad_norm(g: np.ndarray, dx: float) -> float:
    """sup|g|/dx of an energy_and_gradient gradient, center node included:
    the stationarity measure a solve stops on at grad_tol (GRAD_TOL).

    On the interior nodes g/dx is the Euler-Lagrange residual

    R = -theta_xx + (sin theta - h) cos theta
        + (nu/2) cos theta (-d^2/dx^2)^(1/2) (sin theta - h)
    with the second difference for theta_xx and the spectral half-Laplacian,
    which on smooth profiles samples the continuum operator to O(dx^2); the
    boundary entries of g are 0.
    """
    return float(np.max(np.abs(g))) / dx


def energy_parts(
    theta: np.ndarray, u: np.ndarray, dx: float, stray: float
) -> EnergyBreakdown:
    """The breakdown of the discrete energy of theta, u = sin theta - h,
    given its stray part, (nu/4) times the pairing of u with itself; the
    potential's trapezoid sum is dx (u.u - (u_0^2 + u_{n-1}^2)/2)."""
    dtheta = np.diff(theta)
    exchange = 0.5 * float(dtheta @ dtheta) / dx
    potential = 0.5 * dx * float(u @ u - 0.5 * (u[0] * u[0] + u[-1] * u[-1]))
    return EnergyBreakdown(
        exchange=exchange,
        potential=potential,
        stray=stray,
        total=exchange + potential + stray,
    )


def energy(p: WallProfile, op: HalfLaplacianOperator) -> EnergyBreakdown:
    """Evaluate the three energy parts for a sampled profile."""
    return energy_and_gradient(p, op)[0]

