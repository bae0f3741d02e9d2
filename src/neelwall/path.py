"""Arcsin interpolation between wall profiles and the uniqueness certificate.

Two profiles with theta(0) = pi/2 are joined by the path defined through
sin theta^t = s = t sin theta_1 + (1 - t) sin theta_2, with the branch
pi - arcsin picked for x < 0. The energy along the path, f(t), is convex;
its first and second t-derivatives are computed exactly for the discrete
energy, so finite differences of f reproduce them to roundoff.

On the branch box B (theta in [0, pi/2] on x > 0, in [pi/2, pi] on x < 0)
the discrete energy is dx-strongly convex in s = sin theta on the free
nodes (all but both ends and the pinned center): (arcsin a - arcsin b)^2
is convex on [0, 1]^2, the potential has modulus dx and the stray pairing
is positive semidefinite. So B holds at most one critical point s*, and a
profile with gradient g lies within r = ||g / cos theta||_2 / sqrt(dx) of
it in L^2 (||v||_L2 = sqrt(dx) ||v||_2), the radius the certificate uses.
That holds for every profile in B, solution or not, so no pair in B lies
farther apart than the sum of its radii. A profile is a solution when
sup|g|/dx <= GRAD_TOL (energy.grad_norm), the test a solve stops on and
verify gates as el_residual; the slope f' at its end of the path is no
such test.

A scan follows the path's definition: each t takes one arcsin, and cos
theta^t = +-sqrt((1 - s)(1 + s)) gives the t-derivatives of theta^t. u^t =
s - h = t u_1 + (1 - t) u_2 is linear in t, so the stray term is a quadratic
in t whose coefficients come from three real FFTs for the whole scan: the
spectra of u_1, u_2 and du = u_1 - u_2. At t = 0 and 1, f is the energy of
the input profile itself, bit for bit. The certificate builds each
profile's gradient from the scan's spectrum of its u, one irfft each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import GRAD_TOL, energy_parts, grad_norm, gradient
from .errors import FlatTopError, NotRecentredError, RangeViolationError
from .halflap import HalfLaplacianOperator, apply_spectral, make_operator, pairing, spectrum
from .model import Grid, WallProfile, trapezoid_weights

__all__ = [
    "PathPoint",
    "CertificateVerdict",
    "uniqueness_certificate",
]

RECENTRE_TOL = 1e-8
T_POINTS = 41  # the scan: t = 0, 1/40, ..., 1


@dataclass(frozen=True)
class PathPoint:
    t: float
    f: float
    f_prime: float
    f_second_fd: float
    f_second_analytic: float


@dataclass(frozen=True)
class CertificateVerdict:
    """The verdict, the scan's smallest f'', the L^2 distance in s and each
    profile's sup|g|/dx and radius."""

    verdict: str
    min_f_second: float
    s_distance: float
    max_grad_1: float
    max_grad_2: float
    radius_1: float
    radius_2: float
    points: list[PathPoint] = field(default_factory=list, repr=False, compare=False)


def _require_pair(p1: WallProfile, p2: WallProfile) -> None:
    if p1.grid != p2.grid or p1.params != p2.params:
        raise ValueError("profiles must share grid and parameters")
    c = p1.grid.center_index
    for p in (p1, p2):
        if abs(p.theta[c] - math.pi / 2.0) > RECENTRE_TOL:
            raise NotRecentredError(
                f"theta(0) = {p.theta[c]:.12g}, expected pi/2; recenter first"
            )
        lo = np.where(p.grid.nodes > 0.0, 0.0, math.pi / 2.0)
        outside = np.flatnonzero(~((lo <= p.theta) & (p.theta <= lo + math.pi / 2.0)))  # NaN too
        outside = outside[outside != c]
        if len(outside):
            raise RangeViolationError(
                f"theta = {p.theta[outside[0]]:.12g} at node {outside[0]} leaves the branch box "
                "[0, pi/2] on x > 0, [pi/2, pi] on x < 0"
            )
        flat = np.flatnonzero(np.abs(np.sin(p.theta)) == 1.0)
        flat = flat[flat != c]
        if len(flat):
            raise FlatTopError(
                f"|sin theta| = 1 at node {flat[0]} off the center; the path is singular there"
            )


def _path_theta(
    grid: Grid, sin1: np.ndarray, sin2: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """theta^t and the mixed sine s = t sin1 + (1-t) sin2; theta^t takes the
    branch pi - arcsin on x < 0, with the center node pinned at pi/2. Both
    sines lie in [0, 1] on the branch box and t in [0, 1], so s exceeds 1 by
    rounding only, and is clipped there."""
    s = np.minimum(t * sin1 + (1.0 - t) * sin2, 1.0)
    arcsin = np.arcsin(s)
    theta = np.where(grid.nodes >= 0.0, arcsin, math.pi - arcsin)
    theta[grid.center_index] = math.pi / 2.0
    return theta, s


def _scan(
    p1: WallProfile, p2: WallProfile, op: HalfLaplacianOperator
) -> tuple[list[PathPoint], tuple[np.ndarray, ...], tuple[np.ndarray | None, ...]]:
    """Evaluate f, f', f'' at the T_POINTS uniform t in [0, 1], from p2
    (t = 0) to p1 (t = 1), with u = sin theta - h of p1 and p2 and their
    spectra (None at nu = 0).

    With q_ab the pairing of the spectra s_a and s_b, the stray part
    of f is nu/4 (q_22 + t (2 q_2d + t q_dd)) inside and nu/4 q_11, nu/4 q_22
    at the ends; f' takes nu/2 (q_2d + t q_dd) and f'' takes nu/2 q_dd.
    s_d is the spectrum of du itself: s_1 - s_2 would cancel the digits of
    f'' when the profiles nearly coincide.

    f_second_fd is the 5-point central difference of f, nan at the two t
    at each end that lack two neighbors; f_second_analytic comes from
    differentiating the discrete energy in t, so the two agree to roundoff.
    """
    _require_pair(p1, p2)
    ts = np.linspace(0.0, 1.0, T_POINTS)
    grid, dx = p1.grid, p1.grid.spacing
    nu, h = p1.params.nu, p1.params.h
    sin1, sin2 = np.sin(p1.theta), np.sin(p2.theta)
    u1, u2 = sin1 - h, sin2 - h
    du = u1 - u2
    w = trapezoid_weights(grid.n, dx)
    pot_pp = float(np.dot(w, du * du))
    q11 = q22 = q2d = qdd = 0.0
    s1 = s2 = None
    if nu > 0:
        s1, s2, sd = (spectrum(op, u) for u in (u1, u2, du))
        pairs = ((s1, s1), (s2, s2), (s2, sd), (sd, sd))
        q11, q22, q2d, qdd = (pairing(op, a, b) for a, b in pairs)

    # pointwise t-derivatives of theta^t, zero at the pinned center: from s =
    # sin theta^t, s_t = ds and cos theta^t = +-sqrt((1-s)(1+s)) with the sign
    # of x, theta_t = ds / cos theta^t and theta_tt = theta_t^2 s / cos theta^t
    ds, c = sin1 - sin2, grid.center_index
    rows = []
    for t in map(float, ts):
        theta, s = _path_theta(grid, sin1, sin2, t)
        cs = np.sqrt((1.0 - s) * (1.0 + s))
        np.negative(cs, out=cs, where=grid.nodes < 0.0)
        cs[c] = 1.0
        dt1 = ds / cs
        dt2 = dt1 * dt1 * s / cs
        dt1[c] = dt2[c] = 0.0
        # energy: the inputs themselves at the ends, theta^t inside
        if t == 1.0:
            theta_f, q = p1.theta, q11
        elif t == 0.0:
            theta_f, q = p2.theta, q22
        else:
            theta_f, q = theta, q22 + t * (2.0 * q2d + t * qdd)
        u = s - h
        f = energy_parts(theta_f, u, dx, 0.25 * nu * q).total
        # exchange (1/2dx) sum (forward difference)^2 and potential
        # 1/2 sum w u^2, differentiated in t
        dth, ddt1, ddt2 = np.diff(theta), np.diff(dt1), np.diff(dt2)
        f_p = float(np.dot(dth, ddt1)) / dx + float(np.dot(w, u * du))
        f_pp = float(np.dot(ddt1, ddt1) + np.dot(dth, ddt2)) / dx + pot_pp
        rows.append((f, f_p + (nu / 2.0) * (q2d + t * qdd), f_pp + (nu / 2.0) * qdd))

    fs = np.array([r[0] for r in rows])
    fd = np.full(T_POINTS, math.nan)
    step = ts[1]
    fd[2:-2] = (-fs[:-4] + 16.0 * fs[1:-3] - 30.0 * fs[2:-2] + 16.0 * fs[3:-1] - fs[4:]) / (12.0 * step**2)
    points = [
        PathPoint(float(t), f, f_p, float(f_fd), f_pp)
        for t, (f, f_p, f_pp), f_fd in zip(ts, rows, fd)
    ]
    return points, (u1, u2), (s1, s2)


def _solution_measures(
    p: WallProfile, u: np.ndarray, su: np.ndarray | None, op: HalfLaplacianOperator
) -> tuple[float, float]:
    """sup|g|/dx and the radius ||g / cos theta||_2 / sqrt(dx) over the
    free nodes, from u = sin theta - h and its spectrum su (None at nu = 0):
    the gradient energy_and_gradient returns, with one irfft."""
    dx, c = p.grid.spacing, p.grid.center_index
    field = None if su is None else apply_spectral(op, su)
    g = gradient(p.theta, u, dx, p.params.nu, field)
    free = np.r_[1:c, c + 1 : p.grid.n - 1]
    g_s = g[free] / np.cos(p.theta[free])
    return grad_norm(g, dx), float(np.linalg.norm(g_s)) / math.sqrt(dx)


def uniqueness_certificate(p1: WallProfile, p2: WallProfile) -> CertificateVerdict:
    """Convexity-based coincidence test for two candidate solutions in B.

    A profile is a solution when sup|g|/dx <= GRAD_TOL, the test a solve
    stops on and verify gates as el_residual; either failing it (NaN
    included) reads NOT_BOTH_SOLUTIONS, identical inputs too. Two solutions
    at L^2 distance d in s COINCIDE when d <= r_1 + r_2, and read
    CONTRADICTION otherwise, which the convexity in s forbids: it flags an
    implementation fault, not a counterexample. The verdict keeps the
    41-point scan of the path in points.
    """
    op = make_operator(p1.grid)
    points, (u1, u2), (s1, s2) = _scan(p1, p2, op)  # checks the pair
    grad_1, radius_1 = _solution_measures(p1, u1, s1, op)
    grad_2, radius_2 = _solution_measures(p2, u2, s2, op)
    ds = np.sin(p1.theta) - np.sin(p2.theta)
    distance = math.sqrt(p1.grid.spacing) * float(np.linalg.norm(ds))
    if not (grad_1 <= GRAD_TOL and grad_2 <= GRAD_TOL):
        verdict = "NOT_BOTH_SOLUTIONS"
    elif distance <= radius_1 + radius_2:
        verdict = "COINCIDE"
    else:
        verdict = "CONTRADICTION"
    return CertificateVerdict(
        verdict=verdict,
        min_f_second=min(pt.f_second_analytic for pt in points),
        s_distance=distance,
        max_grad_1=grad_1,
        max_grad_2=grad_2,
        radius_1=radius_1,
        radius_2=radius_2,
        points=points,
    )
