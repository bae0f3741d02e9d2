"""The linearized operator around the tilted vacuum and the far-field law
of the wall's x^-2 tail.

Linearizing the Euler-Lagrange equation around theta_h, with
w = theta - theta_h and u = sin(theta) - h ~ cos(theta_h) w, gives

    L = -d^2/dx^2 + (nu/2) cos^2(theta_h) (-d^2/dx^2)^{1/2} + cos^2(theta_h),

whose Fourier symbol the solver's preconditioner uses. The tail follows
from the |k| term. Far from the core w is small, but the stray field still
feels the core's u: there -w'' + cos^2(theta_h) w
+ (nu/2) cos(theta_h) (-d^2/dx^2)^{1/2} u ~ 0. For an even u that decays
fast enough, (-d^2/dx^2)^{1/2} u(x) = -(1/pi) int u dy / x^2 + O(x^-4),
and w'' is O(x^-4) too, so x^2 w tends to

    c_inf = nu int (sin theta - h) dx / (2 pi cos theta_h).

The integral is set by the core and the limit is read on the tail, so
comparing the two tests whether the profile solves the equation. The same
term gives the Green function of L its tail,
x^2 G(x) -> nu / (2 pi cos^2 theta_h).
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, WallProfile, trapezoid_weights

__all__ = ["linearized_symbol", "far_field_constant"]


def linearized_symbol(params: ModelParams, k: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """k2 + (nu/2) cos^2(theta_h) |k| + cos^2(theta_h), where k2 is k^2 or a
    discrete second-difference eigenvalue in its place."""
    c2 = math.cos(params.theta_h) ** 2
    return k2 + 0.5 * params.nu * c2 * k + c2


def far_field_constant(p: WallProfile) -> float:
    """The far-field law's limit of x^2 (theta - theta_h),
    nu int (sin theta - h) dx / (2 pi cos theta_h), with the integral taken
    by the trapezoid rule over the grid."""
    u = np.sin(p.theta) - p.params.h
    integral = float(trapezoid_weights(p.grid.n, p.grid.spacing) @ u)
    return p.params.nu * integral / (2.0 * math.pi * math.cos(p.params.theta_h))
