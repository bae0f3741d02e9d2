"""Energy minimization over pinned-boundary wall profiles.

The minimizer is limited-memory BFGS (lbfgs: the two-loop recursion of Liu
and Nocedal, Math. Prog. 45, 1989) driven by the fused energy and exact
discrete gradient of the energy module, preconditioned by
the linearized Hessian M. The boundary values are frozen and the center
value is pinned at theta(0) = pi/2, so the interior splits into two
independent Dirichlet blocks of c - 1 nodes each. On each block M, the
second difference plus dx cos^2(theta_h) (1 + (nu/2) |k|) at the tilted
vacuum, is diagonal in the orthonormal DST-I basis D with eigenvalues
lambda, and L-BFGS iterates on the coefficients z with theta_block =
theta_start + D(lambda^(-1/2) z), whose gradient is lambda^(-1/2) D g. This
removes the dx^-2 condition number of the exchange term, so the iteration
count does not grow with n, and it costs 2 DSTs and one evaluation per
L-BFGS function call. Each evaluation reports theta, the energy breakdown
and sup|gradient|/dx with its energy and gradient, and lbfgs hands back
those of the point it stopped on, so nothing is evaluated twice.

A solve stops on the acceptance quantity itself, the full sup|gradient|/dx
<= grad_tol with the pinned center node included, which matches the
continuum Euler-Lagrange residual scale, not on the energy decrease (which
cannot resolve steps below ~eps E on fine grids). The pin removes the
translation degeneracy (the discrete energy is flat along sub-grid
translations) and is inactive at the symmetric minimizer, where the full
gradient vanishes. The line search of lbfgs tries the unit step, then
halves it, and accepts the first step that meets the sufficient decrease
condition or, where rounding hides the decrease, an approximate Wolfe step
(Hager and Zhang, SIAM J. Optim. 16, 2005) that raises E by at most
ROUNDOFF |E|. A solve is one L-BFGS run. Short of the tolerance, it ends
after PATIENCE consecutive accepted steps that lower neither E nor the
run's best sup|gradient|, or when the line search finds no step. The result
keeps theta(0) = pi/2 and the input's end values exactly.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import analysis
from .energy import GRAD_TOL, energy_and_gradient, grad_norm
from .errors import WindowTooNoisyError
from .greenfn import linearized_symbol
from .halflap import HalfLaplacianOperator, dst, make_operator
from .model import (
    EnergyBreakdown,
    Grid,
    ModelParams,
    WallProfile,
    make_initial_profile,
    recenter,
)

__all__ = [
    "SolveOptions",
    "SolveReport",
    "SweepRow",
    "LbfgsResult",
    "lbfgs",
    "minimize",
    "sweep",
]

LBFGS_MEMORY = 30
# consecutive accepted steps without progress that end a run: one such step
# (E unchanged to the bit, sup|g| up 0.6 %) occurs before convergence at
# n = 257, nu = 10, h = 0 from the perturbed start
PATIENCE = 2
# line search: the sufficient decrease constant, the curvature constant and
# the energy rise (relative to |E|) of the approximate Wolfe test, and the
# evaluations one search may take
WOLFE_DECREASE = 1e-4
WOLFE_CURVATURE = 0.9
ROUNDOFF = 1e-13
LINE_SEARCH_EVALS = 20


@dataclass(frozen=True)
class SolveOptions:
    grad_tol: float = GRAD_TOL
    max_iter: int = 200_000

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be positive and finite (got {self.grad_tol})")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one minimize. iterations and evaluations are the L-BFGS
    run's nit and nfev; stop is why the solve ended: "grad_tol" (the full
    gradient met the tolerance), "max_iter" (the iteration budget ran out)
    or "stalled" (the run ended without progress)."""

    iterations: int
    final_energy: EnergyBreakdown
    final_grad_norm: float
    recenter_shifts: int
    converged: bool
    evaluations: int
    stop: str


def _block_scale(m: int, dx: float, params: ModelParams) -> np.ndarray:
    """lambda_j^(-1/2) for the linearized Hessian M of one Dirichlet block of
    m nodes, diagonal in the orthonormal DST-I basis: the second-difference
    eigenvalue (2 - 2 cos(j pi/(m+1)))/dx^2 in place of k^2 in the
    linearized symbol, at k_j = j pi/((m+1) dx), times dx."""
    j = np.arange(1, m + 1)
    k = j * math.pi / ((m + 1) * dx)
    k2 = (2.0 - 2.0 * np.cos(j * math.pi / (m + 1))) / dx**2
    return (dx * linearized_symbol(params, k, k2)) ** -0.5


@dataclass(frozen=True)
class LbfgsResult:
    """Where one lbfgs run ended: its last accepted point x, the info that
    fg reported at x, the iterations (accepted steps) nit and the function
    evaluations nfev it took."""

    x: np.ndarray
    info: Any
    nit: int
    nfev: int


def _two_loop(g: np.ndarray, pairs: deque) -> np.ndarray:
    """The L-BFGS direction -H g from the stored (s, y, 1/s.y) pairs, with
    the initial inverse Hessian s.y/y.y of the newest pair (1 without one)."""
    d = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ d))
        d -= alphas[-1] * y
    if pairs:
        s, y, rho = pairs[-1]
        d /= rho * (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        d += (alpha - rho * (y @ d)) * s
    return d


def _line_search(fg, x, f0, d, slope0, done):
    """Step t along the descent direction d from (x, f0), slope0 = g.d < 0.

    Trials take t = 1, 1/2, 1/4, ... and the first one that meets any of
    these is accepted: done(info) holds after its evaluation; E meets the
    sufficient decrease condition E <= f0 + WOLFE_DECREASE t slope0; or E
    <= f0 + ROUNDOFF |f0| and |g.d| <= WOLFE_CURVATURE |slope0|, the
    approximate Wolfe step of Hager and Zhang (SIAM J. Optim. 16, 2005) for
    where rounding hides the decrease. Returns ((x_t, f_t, g_t, info_t), or
    None when none of LINE_SEARCH_EVALS trials is accepted, and the number
    of evaluations).
    """
    t = 1.0
    for evals in range(1, LINE_SEARCH_EVALS + 1):
        xt = x + t * d
        f, g, info = fg(xt)
        if (
            done(info)
            or f <= f0 + WOLFE_DECREASE * t * slope0
            or (f <= f0 + ROUNDOFF * abs(f0) and abs(float(g @ d)) <= -WOLFE_CURVATURE * slope0)
        ):
            return (xt, f, g, info), evals
        t *= 0.5
    return None, LINE_SEARCH_EVALS


def lbfgs(
    fg: Callable[[np.ndarray], tuple[float, np.ndarray, Any]],
    x0: np.ndarray,
    max_iter: int,
    done: Callable[[Any], bool],
) -> LbfgsResult:
    """Minimize f from x0 by L-BFGS, fg(x) returning (f, gradient, info),
    where info is whatever the caller wants back about the evaluation.

    The direction comes from the two-loop recursion over the last
    LBFGS_MEMORY steps, and each line search tries the unit step along it
    first (on the first iteration, the plain gradient step, which suits
    coordinates preconditioned to a near-identity Hessian). The run ends
    after max_iter accepted steps, when done(info) holds after an
    evaluation, when the direction is not one of descent (a zero gradient),
    when the line search finds no step, or after PATIENCE consecutive
    accepted steps that lower neither f nor the run's best sup|gradient|.
    """
    x = np.array(x0, dtype=float)
    f, g, info = fg(x)
    nfev, nit, idle = 1, 0, 0
    best = float(np.max(np.abs(g)))
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    while nit < max_iter and not done(info):
        d = _two_loop(g, pairs)
        slope = float(g @ d)
        if not slope < 0.0:
            break
        step, evals = _line_search(fg, x, f, d, slope, done)
        nfev += evals
        if step is None:
            break
        nit += 1
        x_new, f_new, g_new, info = step
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        gnorm = float(np.max(np.abs(g_new)))
        idle = 0 if f_new < f or gnorm < best else idle + 1
        x, f, g, best = x_new, f_new, g_new, min(best, gnorm)
        if idle == PATIENCE:
            break
    return LbfgsResult(x=x, info=info, nit=nit, nfev=nfev)


def minimize(
    p0: WallProfile,
    opts: SolveOptions | None = None,
    op: HalfLaplacianOperator | None = None,
) -> tuple[WallProfile, SolveReport]:
    """Minimize the discrete energy from p0; boundary values stay frozen.

    p0 is recentred once, and the center value is then pinned at pi/2. One
    run of preconditioned L-BFGS, with the whole max_iter budget, works on
    the DST-I coefficients of the two blocks. Its done(info) test ends the
    run at the first evaluation that meets the full sup|g|/dx <= grad_tol,
    center node included, and that point is the result. The report carries
    the gradient norm and energy breakdown the run reported at its result,
    and the stop reason. Raises NoCrossingError / MultipleCrossingsError
    (from recentring) if p0 does not cross pi/2 exactly once.
    """
    opts = opts or SolveOptions()
    op = op or make_operator(p0.grid)
    p = recenter(p0)
    shifts = int(not np.array_equal(p.theta, p0.theta))
    n, c, dx = p.grid.n, p.grid.center_index, p.grid.spacing
    start = p.theta.copy()
    start[c] = 0.5 * math.pi
    # the two Dirichlet blocks of c - 1 nodes each side of the pinned center
    left, right = slice(1, c), slice(c + 1, n - 1)
    scale = _block_scale(c - 1, dx, p.params)

    def to_theta(z: np.ndarray) -> np.ndarray:
        full = start.copy()
        step = dst(scale * z.reshape(2, -1))
        full[left] += step[0]
        full[right] += step[1]
        return full

    def fg(z: np.ndarray):
        theta = to_theta(z)
        eb, g = energy_and_gradient(p.with_theta(theta), op)[:2]
        gz = dst(np.stack((g[left], g[right])))
        gz *= scale
        return eb.total, gz.ravel(), (theta, eb, grad_norm(g, dx))

    res = lbfgs(fg, np.zeros(2 * (c - 1)), opts.max_iter, lambda info: info[2] <= opts.grad_tol)
    theta, eb, gnorm = res.info
    converged = gnorm <= opts.grad_tol
    if converged:
        stop = "grad_tol"
    elif res.nit >= opts.max_iter:
        stop = "max_iter"
    else:
        stop = "stalled"
    report = SolveReport(
        iterations=res.nit,
        final_energy=eb,
        final_grad_norm=gnorm,
        recenter_shifts=shifts,
        converged=converged,
        evaluations=res.nfev,
        stop=stop,
    )
    return p.with_theta(theta), report


@dataclass(frozen=True)
class SweepRow:
    nu: float
    h: float
    energy: EnergyBreakdown | None
    decay_c: float
    max_grad: float
    converged: bool
    error: str = ""


def sweep(
    params_list: list[ModelParams],
    grid: Grid,
    opts: SolveOptions | None = None,
) -> list[SweepRow]:
    """Run one independent minimize + analysis pass per (nu, h) entry.

    Each row starts from the template; failures are captured per row and
    the sweep continues. Rows are returned in input order.
    """
    opts = opts or SolveOptions()
    op = make_operator(grid)
    rows: list[SweepRow] = []
    for params in params_list:
        try:
            p0 = make_initial_profile(grid, params)
            p, report = minimize(p0, opts, op=op)
            decay_c = math.nan
            if params.nu > 0:
                try:
                    decay_c = analysis.fit_decay(p).c_plus
                except WindowTooNoisyError:
                    decay_c = math.nan
            rows.append(
                SweepRow(
                    nu=params.nu,
                    h=params.h,
                    energy=report.final_energy,
                    decay_c=decay_c,
                    max_grad=report.final_grad_norm,
                    converged=report.converged,
                )
            )
        except Exception as exc:  # error isolation per row
            rows.append(
                SweepRow(
                    nu=params.nu,
                    h=params.h,
                    energy=None,
                    decay_c=math.nan,
                    max_grad=math.nan,
                    converged=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows
