"""Arcsin interpolation between wall profiles and convexity certificates.

Two profiles with theta(0) = pi/2 are joined by the path defined through
sin theta^t = t sin theta_1 + (1 - t) sin theta_2, with the branch
pi - arcsin picked for x < 0. The energy along the path, f(t), is convex;
its first and second t-derivatives are computed exactly for the discrete
energy, so finite differences of f reproduce them to roundoff. Strict
convexity plus vanishing endpoint derivatives certifies that two solutions
coincide.

u^t = sin theta^t - h = t u_1 + (1 - t) u_2 is linear in t, so a scan
takes three real FFTs on the padded lattice, whatever its number of t
points: the spectra of u_1, u_2 and du = u_1 - u_2. Every stray term of f,
f' and f'' is a Parseval sum of their linear combinations, and theta^t
takes one arcsin per t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import energy_parts
from .errors import FlatTopError, NotRecentredError, RangeViolationError
from .halflap import HalfLaplacianOperator, make_operator, parseval, spectrum
from .model import Grid, WallProfile, trapezoid_weights

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
DIFFERENCE_TOL = 1e-5


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
        flat = np.flatnonzero(np.abs(np.sin(p.theta)) == 1.0)
        flat = flat[flat != c]
        if len(flat):
            raise FlatTopError(
                f"|sin theta| = 1 at node {flat[0]} off the center; the path is singular there"
            )


def _path_theta(grid: Grid, sin1: np.ndarray, sin2: np.ndarray, t: float) -> np.ndarray:
    """theta^t from the mixed sine t sin1 + (1-t) sin2, branch pi - arcsin
    on x < 0, with the center node pinned at pi/2."""
    s = t * sin1 + (1.0 - t) * sin2
    excess = float(np.max(np.abs(s))) - 1.0
    if excess > CLAMP_SLACK:
        raise RangeViolationError(
            f"interpolated sine exceeds 1 by {excess:.3g}; inputs out of range"
        )
    arcsin = np.arcsin(np.clip(s, -1.0, 1.0))
    theta = np.where(grid.nodes >= 0.0, arcsin, math.pi - arcsin)
    theta[grid.center_index] = math.pi / 2.0
    return theta


def interpolate_profiles(p1: WallProfile, p2: WallProfile, t: float) -> WallProfile:
    """Profile theta^t with sin theta^t = t sin theta_1 + (1-t) sin theta_2,
    branch pi - arcsin on x < 0; the center node is pi/2 for every t."""
    _require_pair(p1, p2)
    if t == 1.0:
        return p1.with_theta(p1.theta.copy())
    if t == 0.0:
        return p2.with_theta(p2.theta.copy())
    return p1.with_theta(_path_theta(p1.grid, np.sin(p1.theta), np.sin(p2.theta), t))


def _nodal_t_derivatives(
    grid: Grid, sin1: np.ndarray, sin2: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """theta^t, sin theta^t and the pointwise first and second
    t-derivatives of theta^t; exact for the discrete path, zero at the
    pinned center node."""
    c = grid.center_index
    theta_t = _path_theta(grid, sin1, sin2, t)
    sin_t = np.sin(theta_t)
    cs = np.cos(theta_t)
    cs[c] = 1.0
    d = sin1 - sin2
    dt1 = d / cs
    dt2 = d**2 * sin_t / cs**3
    dt1[c] = 0.0
    dt2[c] = 0.0
    return theta_t, sin_t, dt1, dt2


class _Path:
    """The arcsin path from p2 (t = 0) to p1 (t = 1) and the exact discrete
    energy f(t) with its first two t-derivatives.

    u^t = t u_1 + (1-t) u_2 is linear in t, so every stray term comes from
    three padded-lattice spectra taken once: s_1, s_2 and s_d, the spectrum
    of du = u_1 - u_2 itself (s_1 - s_2 would cancel the digits of f'' when
    the profiles nearly coincide). At each t, s^t = t s_1 + (1-t) s_2 and
    f, f', f'' use parseval(s^t, s^t), parseval(s^t, s_d) and
    parseval(s_d, s_d). At t = 0 and 1, f is the energy of the input
    profile itself, bit for bit.
    """

    def __init__(self, p1: WallProfile, p2: WallProfile, op: HalfLaplacianOperator):
        self.p1, self.p2, self.op = p1, p2, op
        self.grid = p1.grid
        self.nu, h = p1.params.nu, p1.params.h
        self.sin1, self.sin2 = np.sin(p1.theta), np.sin(p2.theta)
        self.u1, self.u2 = self.sin1 - h, self.sin2 - h
        self.du = self.u1 - self.u2
        self.w = trapezoid_weights(self.grid.n, self.grid.spacing)
        if self.nu > 0:
            self.s1, self.s2, self.sd = (spectrum(op, u) for u in (self.u1, self.u2, self.du))
            self.q_dd = parseval(op, self.sd, self.sd)

    def point(self, t: float) -> tuple[float, float, float]:
        """(f(t), f'(t), f''(t))."""
        dx = self.grid.spacing
        nu, op = self.nu, self.op
        theta_t, sin_t, dt1, dt2 = _nodal_t_derivatives(self.grid, self.sin1, self.sin2, t)

        # energy: the inputs themselves at the ends, theta^t inside
        if t == 1.0:
            theta_f, u_f = self.p1.theta, self.u1
        elif t == 0.0:
            theta_f, u_f = self.p2.theta, self.u2
        else:
            theta_f, u_f = theta_t, sin_t - self.p1.params.h
        stray = st_p = st_pp = 0.0
        if nu > 0:
            s_t = t * self.s1 + (1.0 - t) * self.s2
            stray = 0.25 * nu * parseval(op, s_t, s_t)
            st_p = (nu / 2.0) * parseval(op, s_t, self.sd)
            st_pp = (nu / 2.0) * self.q_dd
        f = energy_parts(theta_f, u_f, dx, stray).total

        # exchange: (1/2dx) sum (forward difference)^2, differentiated in t
        dth = np.diff(theta_t)
        ddt1 = np.diff(dt1)
        ddt2 = np.diff(dt2)
        ex_p = float(np.dot(dth, ddt1)) / dx
        ex_pp = float(np.dot(ddt1, ddt1) + np.dot(dth, ddt2)) / dx

        # potential: 1/2 sum w (u^t)^2 with u^t linear in t
        ut = t * self.u1 + (1.0 - t) * self.u2
        pot_p = float(np.dot(self.w, ut * self.du))
        pot_pp = float(np.dot(self.w, self.du * self.du))
        return f, ex_p + pot_p + st_p, ex_pp + pot_pp + st_pp


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
    energy in t, so the two agree to roundoff. With nu > 0 the whole scan
    takes three real FFTs and no inverse one.
    """
    _require_pair(p1, p2)
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, DEFAULT_T_POINTS)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid > 1.0) or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be sorted within [0, 1]")
    path = _Path(p1, p2, op or make_operator(p1.grid))
    fs, fps, fpps = np.array([path.point(float(t)) for t in t_grid]).reshape(-1, 3).T
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
    _, _, dt1, _ = _nodal_t_derivatives(p1.grid, np.sin(p1.theta), np.sin(p2.theta), t)
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
    return _Path(p_candidate, p_other, op or make_operator(p_candidate.grid)).point(1.0)[1]


def uniqueness_certificate(
    p1: WallProfile,
    p2: WallProfile,
    op: HalfLaplacianOperator | None = None,
    grad_tol: float = 1e-6,
) -> CertificateVerdict:
    """Convexity-based coincidence test for two candidate solutions.

    Scans f'' on a 41-point t grid and evaluates f' at both endpoints; the
    scan is kept in the verdict's points (left out of as_dict).
    If f'' > 0 throughout and both endpoint derivatives vanish (within
    10 * grad_tol * path velocity norm), convexity forces the profiles to
    coincide; the verdict cross-checks this against sup|theta_1 - theta_2|
    <= DIFFERENCE_TOL and flags CONTRADICTION when they disagree, which
    would indicate an implementation fault rather than a counterexample.
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
        verdict = "COINCIDE" if sup_diff <= DIFFERENCE_TOL else "CONTRADICTION"
    else:
        verdict = "NOT_BOTH_SOLUTIONS"
    return CertificateVerdict(
        verdict=verdict,
        min_f_second=min_fpp,
        f_prime_at_0=fp0,
        f_prime_at_1=fp1,
        sup_difference=sup_diff,
        derivative_tol=deriv_tol,
        difference_tol=DIFFERENCE_TOL,
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
