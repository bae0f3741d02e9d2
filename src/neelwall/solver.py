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
L-BFGS function call. The last evaluation of a run is handed on to the
convergence check and, when the final recentring leaves the profile as it
is, to the report, so nothing is evaluated twice.

A run stops on the acceptance quantity itself, sup|gradient|/dx <=
grad_tol, which matches the continuum Euler-Lagrange residual scale, not on
the energy decrease (which cannot resolve steps below ~eps E on fine
grids). Runs are capped in chunks and restarted with fresh memory when
they stop short. The pin removes the translation degeneracy: the discrete
energy is flat along sub-grid translations, so an unpinned iterate can stop
anywhere on the valley, and recentring it by resampling would re-inject an
O(dx^2) gradient defect far above the default tolerance. The pin is
inactive at the symmetric minimizer, where the full gradient vanishes
anyway; if the pinned result still misses the tolerance, a short unpinned
polish over one block of n - 2 nodes follows.
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
    """Outcome of one minimize. iterations and evaluations are summed over
    the L-BFGS runs (scipy's nit and nfev); restarts counts the pinned runs
    after the first."""

    iterations: int
    final_energy: EnergyBreakdown
    final_grad_norm: float
    recenter_shifts: int
    converged: bool
    evaluations: int
    restarts: int


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


def _lbfgs(
    p: WallProfile,
    op: HalfLaplacianOperator,
    theta: np.ndarray,
    pin: bool,
    max_iter: int,
    grad_tol: float,
):
    """One preconditioned L-BFGS run of at most min(LBFGS_CHUNK, max_iter)
    iterations; returns the new theta, scipy's result, and the energy
    breakdown and full gradient at the new theta when the run evaluated
    them there last (None otherwise).

    The boundary values stay frozen, and with pin so does the center value
    pi/2, which splits the interior into two Dirichlet blocks. The run
    iterates on the DST-I coefficients z of each block, with theta_block =
    theta_start + D(lambda^(-1/2) z), and stops once the last evaluated
    gradient at the current iterate meets sup|g|/dx <= grad_tol.
    """
    n = p.grid.n
    c = p.grid.center_index
    dx = p.grid.spacing
    start = theta.copy()
    if pin:
        start[c] = 0.5 * math.pi
        free = np.r_[1:c, c + 1 : n - 1]
    else:
        free = np.arange(1, n - 1)
    blocks = 2 if pin else 1
    scale = _block_scale(len(free) // blocks, dx, p.params)

    def to_theta(z: np.ndarray) -> np.ndarray:
        full = start.copy()
        full[free] += dst(scale * z.reshape(blocks, -1), type=1, norm="ortho", axis=-1).ravel()
        return full

    last = {}

    def fg(z: np.ndarray):
        theta = to_theta(z)
        eb, g = energy_and_gradient(p.with_theta(theta), op)
        last.update(z=z.copy(), theta=theta, eb=eb, g=g)
        gz = scale * dst(g[free].reshape(blocks, -1), type=1, norm="ortho", axis=-1)
        return eb.total, gz.ravel()

    def stop(z: np.ndarray) -> None:
        if np.array_equal(z, last["z"]) and _grad_norm(last["g"][free], dx) <= grad_tol:
            raise StopIteration

    res = scipy.optimize.minimize(
        fg,
        np.zeros(len(free)),
        jac=True,
        method="L-BFGS-B",
        callback=stop,
        options=dict(
            maxiter=min(LBFGS_CHUNK, max_iter),
            maxcor=LBFGS_MEMORY,
            gtol=0.0,
            ftol=1e-22,
            maxls=100,
        ),
    )
    if np.array_equal(res.x, last.get("z")):
        return last["theta"], res, (last["eb"], last["g"])
    return to_theta(res.x), res, None


def _run_lbfgs(
    p: WallProfile, op: HalfLaplacianOperator, opts: SolveOptions
) -> tuple[WallProfile, tuple[EnergyBreakdown, np.ndarray] | None, int, int, int]:
    """Pinned L-BFGS runs until the gradient tolerance, max_iter or
    MAX_RESTARTS, then, if the pinned result misses the tolerance, one
    unpinned polish; returns the profile, its energy breakdown and gradient
    when the last run evaluated them (None otherwise), the iteration and
    evaluation counts, and the number of restarts."""
    dx = p.grid.spacing
    total_it = evaluations = 0
    theta = p.theta
    runs = 0
    converged = False
    while total_it < opts.max_iter and runs <= MAX_RESTARTS:
        theta, res, final = _lbfgs(p, op, theta, True, opts.max_iter - total_it, opts.grad_tol)
        runs += 1
        total_it += max(res.nit, 1)
        evaluations += res.nfev
        p = p.with_theta(theta)
        if final is None:
            final = energy_and_gradient(p, op)
        converged = _grad_norm(final[1], dx) <= opts.grad_tol
        if converged:
            break
    # release the pin for a short polish: the pinned result sits at the
    # symmetric minimizer up to the center-node residual, and the polish
    # cannot drift along the valley because the restoring data are local
    if not converged and total_it < opts.max_iter:
        theta, res, final = _lbfgs(p, op, theta, False, opts.max_iter - total_it, opts.grad_tol)
        total_it += res.nit
        evaluations += res.nfev
        p = p.with_theta(theta)
    return p, final, total_it, evaluations, runs - 1


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
    solved, final, iterations, evaluations, restarts = _run_lbfgs(p, op, opts)
    p = recenter(solved)
    if p is not solved or final is None:
        final = energy_and_gradient(p, op)
    eb, g = final
    gnorm = _grad_norm(g, p.grid.spacing)
    report = SolveReport(
        iterations=iterations,
        final_energy=eb,
        final_grad_norm=gnorm,
        recenter_shifts=shifts,
        converged=gnorm <= opts.grad_tol,
        evaluations=evaluations,
        restarts=restarts,
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
