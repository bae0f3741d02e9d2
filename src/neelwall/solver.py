"""Energy minimization over pinned-boundary wall profiles.

The minimizer is limited-memory BFGS (scipy L-BFGS-B) on the interior node
values, driven by the fused energy and exact discrete gradient of the energy
module. It runs in chunks and restarts with fresh memory when the line
search stalls on the energy decrease before the gradient tolerance is met;
the line search guarantees energy decrease across accepted iterations.

Convergence is declared on sup|gradient|/dx, which matches the continuum
Euler-Lagrange residual scale. The translation degeneracy is removed by
pinning theta(0) = pi/2 during the iteration: the discrete energy is flat
along sub-grid translations, so an unpinned iterate can stop anywhere on
the valley, and recentring it by resampling would re-inject an O(dx^2)
gradient defect far above the default tolerance. The pin is inactive at
the symmetric minimizer, where the full gradient vanishes anyway, and a
short unpinned polish follows the pinned phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import analysis
from .energy import energy_and_gradient
from .errors import WindowTooNoisyError
from .halflap import HalfLaplacianOperator, make_operator
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
    "minimize",
    "sweep",
    "sweep_csv_lines",
]

# Iterations per L-BFGS run; a run that stops short of the gradient
# tolerance is restarted with fresh memory, at most MAX_RESTARTS times.
LBFGS_CHUNK = 2000
LBFGS_MEMORY = 30
MAX_RESTARTS = 8


@dataclass(frozen=True)
class SolveOptions:
    grad_tol: float = 1e-6
    max_iter: int = 200_000

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be positive and finite (got {self.grad_tol})")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_energy: EnergyBreakdown
    final_grad_norm: float
    recenter_shifts: int
    converged: bool


def _grad_norm(g: np.ndarray, dx: float) -> float:
    return float(np.max(np.abs(g))) / dx


def _lbfgs(
    p: WallProfile,
    op: HalfLaplacianOperator,
    theta: np.ndarray,
    pin: bool,
    max_iter: int,
    grad_tol: float,
):
    """One L-BFGS run of at most min(LBFGS_CHUNK, max_iter) iterations over
    the interior values of theta; the boundary values stay frozen, and with
    pin the center value stays at pi/2 (its gradient component is zeroed, so
    L-BFGS never moves it)."""
    n = p.grid.n
    c = p.grid.center_index
    bl, br = theta[0], theta[-1]

    def fg(ti: np.ndarray):
        full = np.empty(n)
        full[0], full[-1] = bl, br
        full[1:-1] = ti
        if pin:
            full[c] = 0.5 * math.pi
        eb, g = energy_and_gradient(p.with_theta(full), op)
        if pin:
            g[c] = 0.0
        return eb.total, g[1:-1]

    return scipy.optimize.minimize(
        fg,
        theta[1:-1],
        jac=True,
        method="L-BFGS-B",
        options=dict(
            maxiter=min(LBFGS_CHUNK, max_iter),
            maxcor=LBFGS_MEMORY,
            gtol=grad_tol * p.grid.spacing,
            ftol=1e-22,
            maxls=100,
        ),
    )


def _run_lbfgs(
    p: WallProfile, op: HalfLaplacianOperator, opts: SolveOptions
) -> tuple[WallProfile, int]:
    """Pinned L-BFGS runs until the gradient tolerance, max_iter or
    MAX_RESTARTS, then one unpinned polish; returns the profile and the
    iteration count."""
    dx = p.grid.spacing
    c = p.grid.center_index
    total_it = 0
    theta = p.theta.copy()
    theta[c] = 0.5 * math.pi
    restarts = 0
    while total_it < opts.max_iter:
        res = _lbfgs(p, op, theta, True, opts.max_iter - total_it, opts.grad_tol)
        total_it += max(res.nit, 1)
        theta[1:-1] = res.x
        theta[c] = 0.5 * math.pi
        p = p.with_theta(theta)
        _, g = energy_and_gradient(p, op)
        if _grad_norm(g, dx) <= opts.grad_tol:
            break
        restarts += 1
        if restarts > MAX_RESTARTS:
            break
    # release the pin for a short polish: the pinned result sits at the
    # symmetric minimizer up to the center-node residual, and the polish
    # cannot drift along the valley because the restoring data are local
    if total_it < opts.max_iter:
        res = _lbfgs(p, op, theta, False, opts.max_iter - total_it, opts.grad_tol)
        total_it += res.nit
        theta[1:-1] = res.x
        p = p.with_theta(theta)
    return p, total_it


def minimize(
    p0: WallProfile,
    opts: SolveOptions | None = None,
    op: HalfLaplacianOperator | None = None,
) -> tuple[WallProfile, SolveReport]:
    """Minimize the discrete energy from p0; boundary values stay frozen.

    The returned profile is recentred (theta(0) = pi/2); the report carries
    the final gradient norm and energy breakdown. Raises NoCrossingError /
    MultipleCrossingsError (from recentring) if p0 does not cross pi/2
    exactly once.
    """
    opts = opts or SolveOptions()
    op = op or make_operator(p0.grid)
    p = recenter(p0)
    shifts = int(not np.array_equal(p.theta, p0.theta))
    p, iterations = _run_lbfgs(p, op, opts)
    p = recenter(p)
    eb, g = energy_and_gradient(p, op)
    gnorm = _grad_norm(g, p.grid.spacing)
    report = SolveReport(
        iterations=iterations,
        final_energy=eb,
        final_grad_norm=gnorm,
        recenter_shifts=shifts,
        converged=gnorm <= opts.grad_tol,
    )
    return p, report


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
    init: str = "template",
) -> list[SweepRow]:
    """Run one independent minimize + analysis pass per (nu, h) entry.

    Failures are captured per row; the sweep continues. Rows are returned in
    input order.
    """
    opts = opts or SolveOptions()
    op = make_operator(grid)
    rows: list[SweepRow] = []
    for params in params_list:
        try:
            p0 = make_initial_profile(grid, params, kind=init)
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


def sweep_csv_lines(rows: list[SweepRow]) -> list[str]:
    lines = ["nu,h,exchange,potential,stray,total,decay_c,max_grad,converged\n"]
    for r in rows:
        if r.energy is None:
            eb = ("nan", "nan", "nan", "nan")
        else:
            eb = (
                f"{r.energy.exchange:.12g}",
                f"{r.energy.potential:.12g}",
                f"{r.energy.stray:.12g}",
                f"{r.energy.total:.12g}",
            )
        lines.append(
            f"{r.nu:.12g},{r.h:.12g},{eb[0]},{eb[1]},{eb[2]},{eb[3]},"
            f"{r.decay_c:.12g},{r.max_grad:.12g},{str(r.converged).lower()}\n"
        )
    return lines
