"""Energy minimization over pinned-boundary wall profiles.

The minimizer is limited-memory BFGS (scipy L-BFGS-B) driven by the fused
energy and exact discrete gradient of the energy module, preconditioned by
the linearized Hessian M. The boundary values are frozen and the center
value is pinned at theta(0) = pi/2, so the interior splits into two
independent Dirichlet blocks of c - 1 nodes each. On each block M, the
second difference plus dx cos^2(theta_h) (1 + (nu/2) |k|) at the tilted
vacuum, is diagonal in the orthonormal DST-I basis D with eigenvalues
lambda, and L-BFGS iterates on the coefficients z with theta_block =
theta_start + D(lambda^(-1/2) z), whose gradient is lambda^(-1/2) D g. This
removes the dx^-2 condition number of the exchange term, so the iteration
count does not grow with n, and it costs 2 DSTs and one evaluation per
L-BFGS function call. The evaluation that met the tolerance is handed on to
the report, so nothing is evaluated twice.

A solve stops on the acceptance quantity itself, the full sup|gradient|/dx
<= grad_tol with the pinned center node included, which matches the
continuum Euler-Lagrange residual scale, not on the energy decrease (which
cannot resolve steps below ~eps E on fine grids). The pin removes the
translation degeneracy (the discrete energy is flat along sub-grid
translations) and is inactive at the symmetric minimizer, where the full
gradient vanishes. When scipy ends a run short of the tolerance, the run is
restarted warm with fresh memory, at most MAX_RESTARTS times. The result
keeps theta(0) = pi/2 and the input's end values exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.fft import dst

from . import analysis
from .energy import energy_and_gradient
from .errors import WindowTooNoisyError
from .greenfn import linearized_symbol
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

LBFGS_MEMORY = 30
# warm restarts with fresh memory after scipy stops short of the tolerance
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
    """Outcome of one minimize. iterations and evaluations are summed over
    the L-BFGS runs (scipy's nit and nfev, plus one evaluation when the last
    run returned a point it had not evaluated last); restarts counts the
    warm restarts after the first run; stop is why the solve ended:
    "grad_tol" (the full gradient met the tolerance), "max_iter" (the
    iteration budget ran out) or "stalled" (MAX_RESTARTS ran out)."""

    iterations: int
    final_energy: EnergyBreakdown
    final_grad_norm: float
    recenter_shifts: int
    converged: bool
    evaluations: int
    restarts: int
    stop: str


def _grad_norm(g: np.ndarray, dx: float) -> float:
    return float(np.max(np.abs(g))) / dx


def _block_scale(m: int, dx: float, params: ModelParams) -> np.ndarray:
    """lambda_j^(-1/2) for the linearized Hessian M of one Dirichlet block of
    m nodes, diagonal in the orthonormal DST-I basis: the second-difference
    eigenvalue (2 - 2 cos(j pi/(m+1)))/dx^2 in place of k^2 in the
    linearized symbol, at k_j = j pi/((m+1) dx), times dx."""
    j = np.arange(1, m + 1)
    k = j * math.pi / ((m + 1) * dx)
    k2 = (2.0 - 2.0 * np.cos(j * math.pi / (m + 1))) / dx**2
    return (dx * linearized_symbol(params, k, k2)) ** -0.5


def minimize(
    p0: WallProfile,
    opts: SolveOptions | None = None,
    op: HalfLaplacianOperator | None = None,
) -> tuple[WallProfile, SolveReport]:
    """Minimize the discrete energy from p0; boundary values stay frozen.

    p0 is recentred once, and the center value is then pinned at pi/2. One
    loop of preconditioned L-BFGS runs on the DST-I coefficients of the two
    blocks. The callback ends a run once an evaluation has met the full
    sup|g|/dx <= grad_tol, center node included, and that first such point
    is the result. A run that scipy ends short of the tolerance is restarted
    warm from its last point with fresh memory, at most MAX_RESTARTS times,
    with the iterations left of max_iter. The report carries the final
    gradient norm, energy breakdown and stop reason. Raises NoCrossingError
    / MultipleCrossingsError (from recentring) if p0 does not cross pi/2
    exactly once.
    """
    opts = opts or SolveOptions()
    op = op or make_operator(p0.grid)
    p = recenter(p0)
    shifts = int(not np.array_equal(p.theta, p0.theta))
    n, c, dx = p.grid.n, p.grid.center_index, p.grid.spacing
    start = p.theta.copy()
    start[c] = 0.5 * math.pi
    free = np.r_[1:c, c + 1 : n - 1]
    scale = _block_scale(c - 1, dx, p.params)

    def to_theta(z: np.ndarray) -> np.ndarray:
        full = start.copy()
        full[free] += dst(scale * z.reshape(2, -1), type=1, norm="ortho", axis=-1).ravel()
        return full

    last, hit = {}, {}

    def fg(z: np.ndarray):
        theta = to_theta(z)
        eb, g = energy_and_gradient(p.with_theta(theta), op)
        last.update(z=z.copy(), theta=theta, eb=eb, g=g)
        if not hit and _grad_norm(g, dx) <= opts.grad_tol:
            hit.update(last)
        gz = scale * dst(g[free].reshape(2, -1), type=1, norm="ortho", axis=-1)
        return eb.total, gz.ravel()

    def stop(z: np.ndarray) -> None:
        if hit:
            raise StopIteration

    x0 = np.zeros(len(free))
    iterations = evaluations = restarts = 0
    stop_reason = None
    while stop_reason is None:
        res = scipy.optimize.minimize(
            fg,
            x0,
            jac=True,
            method="L-BFGS-B",
            callback=stop,
            options=dict(
                maxiter=opts.max_iter - iterations,
                maxcor=LBFGS_MEMORY,
                gtol=0.0,
                ftol=1e-22,
                maxls=100,
            ),
        )
        iterations += res.nit
        evaluations += res.nfev
        x0 = res.x
        if hit:
            stop_reason = "grad_tol"
        elif iterations >= opts.max_iter:
            stop_reason = "max_iter"
        elif restarts == MAX_RESTARTS:
            stop_reason = "stalled"
        else:
            restarts += 1
    if not hit and not np.array_equal(x0, last["z"]):
        fg(x0)
        evaluations += 1
    final = hit or last
    gnorm = _grad_norm(final["g"], dx)
    report = SolveReport(
        iterations=iterations,
        final_energy=final["eb"],
        final_grad_norm=gnorm,
        recenter_shifts=shifts,
        converged=gnorm <= opts.grad_tol,
        evaluations=evaluations,
        restarts=restarts,
        stop=stop_reason,
    )
    return p.with_theta(final["theta"]), report


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
