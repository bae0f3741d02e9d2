"""Arcsin interpolation between wall profiles and convexity certificates.

Two profiles with theta(0) = pi/2 are joined by the path defined through
sin theta^t = t sin theta_1 + (1 - t) sin theta_2, with the branch
pi - arcsin picked for x < 0. The energy along the path, f(t), is convex;
its first and second t-derivatives are computed exactly for the discrete
energy, so finite differences of f reproduce them to roundoff. Strict
convexity plus vanishing endpoint derivatives certifies that two solutions
coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import energy, trapezoid_weights
from .errors import NotRecentredError, RangeViolationError
from .halflap import HalfLaplacianOperator, make_operator, pairing
from .model import WallProfile

__all__ = [
    "PathPoint",
    "CertificateVerdict",
    "interpolate_profiles",
    "path_scan",
    "stationarity_defect",
    "uniqueness_certificate",
    "path_csv_lines",
]

RECENTRE_TOL = 1e-8
CLAMP_SLACK = 1e-15
DEFAULT_T_POINTS = 41


@dataclass(frozen=True)
class PathPoint:
    t: float
    f: float
    f_prime: float
    f_second_fd: float
    f_second_analytic: float


@dataclass(frozen=True)
class CertificateVerdict:
    verdict: str
    min_f_second: float
    f_prime_at_0: float
    f_prime_at_1: float
    sup_difference: float
    derivative_tol: float
    difference_tol: float
    identical_inputs: bool
    points: list[PathPoint] = field(default_factory=list, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "min_f_second": self.min_f_second,
            "f_prime_at_0": self.f_prime_at_0,
            "f_prime_at_1": self.f_prime_at_1,
            "sup_difference": self.sup_difference,
            "derivative_tol": self.derivative_tol,
            "difference_tol": self.difference_tol,
            "identical_inputs": self.identical_inputs,
        }


def _require_pair(p1: WallProfile, p2: WallProfile) -> None:
    same_grid = p1.grid.n == p2.grid.n and p1.grid.half_width == p2.grid.half_width
    if not same_grid or p1.params != p2.params:
        raise ValueError("profiles must share grid and parameters")
    c = p1.grid.center_index
    for p in (p1, p2):
        if abs(p.theta[c] - math.pi / 2.0) > RECENTRE_TOL:
            raise NotRecentredError(
                f"theta(0) = {p.theta[c]:.12g}, expected pi/2; recenter first"
            )


def _mix_sin(p1: WallProfile, p2: WallProfile, t: float) -> np.ndarray:
    s = t * np.sin(p1.theta) + (1.0 - t) * np.sin(p2.theta)
    excess = float(np.max(np.abs(s))) - 1.0
    if excess > CLAMP_SLACK:
        raise RangeViolationError(
            f"interpolated sine exceeds 1 by {excess:.3g}; inputs out of range"
        )
    return np.clip(s, -1.0, 1.0)


def _path_theta(p1: WallProfile, p2: WallProfile, t: float) -> np.ndarray:
    """theta^t from the mixed sine, branch pi - arcsin on x < 0, with the
    center node pinned at pi/2."""
    s = _mix_sin(p1, p2, t)
    arcsin = np.arcsin(s)
    theta = np.where(p1.grid.nodes >= 0.0, arcsin, math.pi - arcsin)
    theta[p1.grid.center_index] = math.pi / 2.0
    return theta


def interpolate_profiles(p1: WallProfile, p2: WallProfile, t: float) -> WallProfile:
    """Profile theta^t with sin theta^t = t sin theta_1 + (1-t) sin theta_2,
    branch pi - arcsin on x < 0; the center node is pi/2 for every t."""
    _require_pair(p1, p2)
    if t == 1.0:
        return p1.with_theta(p1.theta.copy())
    if t == 0.0:
        return p2.with_theta(p2.theta.copy())
    return p1.with_theta(_path_theta(p1, p2, t))


def _nodal_t_derivatives(
    p1: WallProfile, p2: WallProfile, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta^t and its pointwise first and second t-derivatives; exact for
    the discrete path, zero at the pinned center node."""
    c = p1.grid.center_index
    theta_t = _path_theta(p1, p2, t)
    cs = np.cos(theta_t)
    cs[c] = 1.0
    d = np.sin(p1.theta) - np.sin(p2.theta)
    dt1 = d / cs
    dt2 = d**2 * np.sin(theta_t) / cs**3
    dt1[c] = 0.0
    dt2[c] = 0.0
    return theta_t, dt1, dt2


def _path_derivatives_at(
    p1: WallProfile,
    p2: WallProfile,
    t: float,
    op: HalfLaplacianOperator,
) -> tuple[float, float]:
    """Exact (f'(t), f''(t)) for the discrete energy along the path."""
    grid = p1.grid
    dx = grid.spacing
    nu, h = p1.params.nu, p1.params.h
    theta_t, dt1, dt2 = _nodal_t_derivatives(p1, p2, t)
    w = trapezoid_weights(grid.n, dx)

    # exchange: (1/2dx) sum (forward difference)^2, differentiated in t
    dth = np.diff(theta_t)
    ddt1 = np.diff(dt1)
    ddt2 = np.diff(dt2)
    ex_p = float(np.dot(dth, ddt1)) / dx
    ex_pp = float(np.dot(ddt1, ddt1) + np.dot(dth, ddt2)) / dx

    # potential and stray: u^t = t u1 + (1-t) u2 is linear in t
    u1 = np.sin(p1.theta) - h
    u2 = np.sin(p2.theta) - h
    ut = t * u1 + (1.0 - t) * u2
    du = u1 - u2
    pot_p = float(np.dot(w, ut * du))
    pot_pp = float(np.dot(w, du * du))
    if nu > 0:
        st_p = (nu / 2.0) * pairing(op, ut, du)
        st_pp = (nu / 2.0) * pairing(op, du, du)
    else:
        st_p = st_pp = 0.0
    return ex_p + pot_p + st_p, ex_pp + pot_pp + st_pp


def path_scan(
    p1: WallProfile,
    p2: WallProfile,
    t_grid: np.ndarray | None = None,
    op: HalfLaplacianOperator | None = None,
) -> list[PathPoint]:
    """Evaluate f, f', f'' on a sorted t grid in [0, 1].

    f_second_fd is the 5-point central difference of f, defined on a
    uniform grid at indices with two neighbors on each side (nan
    elsewhere); f_second_analytic comes from differentiating the discrete
    energy in t, so the two agree to roundoff.
    """
    _require_pair(p1, p2)
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, DEFAULT_T_POINTS)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid > 1.0) or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be sorted within [0, 1]")
    op = op or make_operator(p1.grid)
    fs = np.empty(len(t_grid))
    fps = np.empty(len(t_grid))
    fpps = np.empty(len(t_grid))
    for j, t in enumerate(t_grid):
        fs[j] = energy(interpolate_profiles(p1, p2, float(t)), op).total
        fps[j], fpps[j] = _path_derivatives_at(p1, p2, float(t), op)
    fd = np.full(len(t_grid), math.nan)
    if len(t_grid) >= 5:
        dt = np.diff(t_grid)
        if np.allclose(dt, dt[0], rtol=1e-10, atol=0.0):
            step = dt[0]
            fd[2:-2] = (
                -fs[:-4] + 16.0 * fs[1:-3] - 30.0 * fs[2:-2] + 16.0 * fs[3:-1] - fs[4:]
            ) / (12.0 * step**2)
    return [
        PathPoint(float(t_grid[j]), float(fs[j]), float(fps[j]), float(fd[j]), float(fpps[j]))
        for j in range(len(t_grid))
    ]


def path_velocity_norm(p1: WallProfile, p2: WallProfile, t: float) -> float:
    """L2 norm of the pointwise path velocity theta^t_t."""
    _, dt1, _ = _nodal_t_derivatives(p1, p2, t)
    w = trapezoid_weights(p1.grid.n, p1.grid.spacing)
    return math.sqrt(float(np.dot(w, dt1 * dt1)))


def stationarity_defect(
    p_candidate: WallProfile,
    p_other: WallProfile,
    op: HalfLaplacianOperator | None = None,
) -> float:
    """f' at the path endpoint sitting on p_candidate (t = 1).

    Vanishes for a critical point of the energy; for a non-solution it is
    bounded away from zero.
    """
    _require_pair(p_candidate, p_other)
    op = op or make_operator(p_candidate.grid)
    fp, _ = _path_derivatives_at(p_candidate, p_other, 1.0, op)
    return fp


def uniqueness_certificate(
    p1: WallProfile,
    p2: WallProfile,
    op: HalfLaplacianOperator | None = None,
    grad_tol: float = 1e-6,
    difference_tol: float = 1e-5,
) -> CertificateVerdict:
    """Convexity-based coincidence test for two candidate solutions.

    Scans f'' on a 41-point t grid and evaluates f' at both endpoints; the
    scan is kept in the verdict's points (left out of as_dict).
    If f'' > 0 throughout and both endpoint derivatives vanish (within
    10 * grad_tol * path velocity norm), convexity forces the profiles to
    coincide; the verdict cross-checks this against sup|theta_1 - theta_2|
    and flags CONTRADICTION when they disagree, which would indicate an
    implementation fault rather than a counterexample.
    """
    _require_pair(p1, p2)
    op = op or make_operator(p1.grid)
    sup_diff = float(np.max(np.abs(p1.theta - p2.theta)))
    identical = sup_diff == 0.0
    points = path_scan(p1, p2, op=op)
    min_fpp = min(pt.f_second_analytic for pt in points)
    fp0 = points[0].f_prime
    fp1 = points[-1].f_prime
    vel = max(path_velocity_norm(p1, p2, 0.0), path_velocity_norm(p1, p2, 1.0))
    deriv_tol = 10.0 * grad_tol * max(vel, 1.0)
    if identical:
        verdict = "COINCIDE"
    elif abs(fp0) <= deriv_tol and abs(fp1) <= deriv_tol and min_fpp > 0.0:
        verdict = "COINCIDE" if sup_diff <= difference_tol else "CONTRADICTION"
    else:
        verdict = "NOT_BOTH_SOLUTIONS"
    return CertificateVerdict(
        verdict=verdict,
        min_f_second=min_fpp,
        f_prime_at_0=fp0,
        f_prime_at_1=fp1,
        sup_difference=sup_diff,
        derivative_tol=deriv_tol,
        difference_tol=difference_tol,
        identical_inputs=identical,
        points=points,
    )


def path_csv_lines(points: list[PathPoint]) -> list[str]:
    lines = ["t,f,f_prime,f_second_fd,f_second_analytic\n"]
    for pt in points:
        lines.append(
            f"{pt.t:.12g},{pt.f:.12g},{pt.f_prime:.12g},"
            f"{pt.f_second_fd:.12g},{pt.f_second_analytic:.12g}\n"
        )
    return lines
