"""Structural checks on computed wall profiles, and the two gated suites:
verify for a profile, oracle for the half-Laplacian itself.

Covers the qualitative claims a minimizer must satisfy: monotone decrease,
reflection symmetry theta(x) + theta(-x) = pi, algebraic x^-2 tail decay,
and closed-form a-priori bounds on theta_x, the stray field v, and
theta_xx in terms of the total energy. verify runs them all on one profile
with the stationarity and stray-field checks and the far-field law of the
tail constant (greenfn), all from one energy_and_gradient call: its
energy, gradient and stray field serve every check, and check_bounds takes
the energy and the field and makes no transform. oracle checks the
spectral operator and pairing against the quadrature, a closed form and
the seminorm double integral. Both compare the spectral field with the
quadrature at every node of one interior, |x| <= L/2, and this module owns
every tolerance they gate on but el_residual's, which is the solver's own,
energy.GRAD_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import GRAD_TOL, energy_and_gradient, grad_norm
from .errors import TailTooLargeError, WindowTooNoisyError
from .greenfn import far_field_constant
from .halflap import (
    apply_quadrature,
    apply_spectral,
    make_operator,
    pairing,
    seminorm_double_integral,
    spectrum,
)
from .model import Grid, WallProfile

__all__ = [
    "DecayFit",
    "BoundsReport",
    "check_monotone",
    "symmetry_defect",
    "fit_decay",
    "check_bounds",
    "derivative_sup",
    "tail_decay_check",
    "verify",
    "oracle",
]

MONOTONE_TOL = 1e-10
PLATEAU_SPREAD_LIMIT = 0.5

# verify gates
VERIFY_BOUNDARY_TOL = 1e-12
VERIFY_SYMMETRY_TOL = 1e-4
VERIFY_CROSSCHECK_TOL = 1e-3
VERIFY_FAR_FIELD_TOL = 0.2
TAIL_DECAY_FACTOR = 100.0

# oracle gate
ORACLE_TOL = 1e-4


@dataclass(frozen=True)
class DecayFit:
    """Fitted limits of x^2 (theta - theta_h) on the right tail (c_plus)
    and x^2 (pi - theta_h - theta) on the left tail (c_minus)."""

    c_plus: float
    c_minus: float
    plateau_spread: float


@dataclass(frozen=True)
class BoundsReport:
    sup_theta_x: float
    bound_theta_x: float
    sup_v: float
    bound_v: float | None
    sup_theta_xx: float
    bound_theta_xx: float

    @property
    def all_satisfied(self) -> bool:
        return (
            self.sup_theta_x <= self.bound_theta_x
            and (self.bound_v is None or self.sup_v <= self.bound_v)
            and self.sup_theta_xx <= self.bound_theta_xx
        )


def check_monotone(p: WallProfile) -> tuple[bool, float]:
    """Non-increase check: returns (flag, max forward increment)."""
    max_violation = float(np.max(np.diff(p.theta)))
    return max_violation <= MONOTONE_TOL, max_violation


def symmetry_defect(p: WallProfile) -> float:
    """Sup over nodes of |theta(x) + theta(-x) - pi| on the symmetric grid."""
    return float(np.max(np.abs(p.theta + p.theta[::-1] - math.pi)))


def _median(g: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, bit for bit, without the import of
    numpy.ma that np.median's first call makes: the middle value, or the mean
    of the two middle values at even length; NaN when any value is NaN."""
    n = len(g)
    k = n // 2
    part = np.partition(g, [k, n - 1] if n % 2 else [k - 1, k, n - 1])
    if np.isnan(part[-1]):
        return math.nan
    return float(part[k] if n % 2 else (part[k - 1] + part[k]) / 2)


def fit_decay(p: WallProfile) -> DecayFit:
    """Estimate the quadratic-decay constants from the plateau of
    x^2 * (tail deviation) over the window [0.5 L, 0.9 L].

    Uses the median over the window for robustness to endpoint
    contamination; plateau_spread = (max - min) / |median| is the relative
    flatness, reported as the larger of the two sides. Raises
    WindowTooNoisyError when the spread exceeds 0.5, which is the
    expected outcome for exponentially decaying (local) profiles.
    """
    x = p.grid.nodes
    theta_h = p.params.theta_h
    mask = (x >= 0.5 * p.grid.half_width) & (x <= 0.9 * p.grid.half_width)
    g_right = x[mask] ** 2 * (p.theta[mask] - theta_h)
    g_left = x[mask] ** 2 * (math.pi - theta_h - p.theta[::-1][mask])

    def plateau(g: np.ndarray) -> tuple[float, float]:
        c = _median(g)
        if c == 0.0:
            return 0.0, math.inf
        spread = float((np.max(g) - np.min(g)) / abs(c))
        return c, spread

    c_plus, spread_plus = plateau(g_right)
    c_minus, spread_minus = plateau(g_left)
    spread = max(spread_plus, spread_minus)
    if not spread <= PLATEAU_SPREAD_LIMIT:
        raise WindowTooNoisyError(
            f"tail plateau spread {spread:.3g} exceeds {PLATEAU_SPREAD_LIMIT}; "
            "increase the half-width or resolution"
        )
    return DecayFit(c_plus=c_plus, c_minus=c_minus, plateau_spread=spread)


def _central_derivative(theta: np.ndarray, dx: float, order: int) -> tuple[np.ndarray, int]:
    """I-th central difference on interior nodes; returns (values, offset)
    where values[j] approximates the derivative at node j + offset."""
    if order == 1:
        return (theta[2:] - theta[:-2]) / (2.0 * dx), 1
    if order == 2:
        return (theta[2:] - 2.0 * theta[1:-1] + theta[:-2]) / dx**2, 1
    if order == 3:
        return (
            theta[4:] - 2.0 * theta[3:-1] + 2.0 * theta[1:-3] - theta[:-4]
        ) / (2.0 * dx**3), 2
    raise ValueError("order must be 1, 2 or 3")


def derivative_sup(p: WallProfile, order: int) -> float:
    vals, _ = _central_derivative(p.theta, p.grid.spacing, order)
    return float(np.max(np.abs(vals)))


def tail_decay_check(p: WallProfile) -> bool:
    """True when each derivative of order 1..3 decays by at least a factor
    TAIL_DECAY_FACTOR from its global sup to its sup over the outer window
    [0.9 L, 0.99 L].

    The last percent of the grid is skipped: the frozen end value absorbs
    the c/L^2 truncation mismatch in a boundary layer whose derivatives
    measure the clamp rather than the tail. A window that holds no node
    (odd n <= 39) fails the check, as NaN input does.
    """
    x = p.grid.nodes
    dx = p.grid.spacing
    for order in (1, 2, 3):
        vals, off = _central_derivative(p.theta, dx, order)
        xs = x[off : off + len(vals)]
        outer = (np.abs(xs) >= 0.9 * p.grid.half_width) & (
            np.abs(xs) <= 0.99 * p.grid.half_width
        )
        sup_all = float(np.max(np.abs(vals)))
        sup_outer = float(np.max(np.abs(vals[outer]))) if outer.any() else math.nan
        if not sup_outer * TAIL_DECAY_FACTOR <= sup_all:  # so a NaN fails
            return False
    return True


def check_bounds(p: WallProfile, e_total: float, v: np.ndarray | None) -> BoundsReport:
    """Evaluate the three closed-form a-priori bounds from the total energy
    E = e_total and the stray field v, the half-Laplacian of
    u = sin theta - h (both as energy_and_gradient returns them; v is None
    at nu = 0):

      sup|theta_x|  <= sqrt((1+|h|)^2 + 2 nu E)
      max|v|        <= 4 nu / pi^2 + (2/nu)(1+|h|+(1+|h|)^2) + 4 E
      max|theta_xx| <= 1 + |h| + (nu/2) max|v|

    At nu = 0 there is no stray field: v is not read, sup_v is 0 and
    bound_v None. Violations are reported via all_satisfied, never raised.
    """
    nu = p.params.nu
    ah = abs(p.params.h)
    if nu > 0:
        sup_v = float(np.max(np.abs(v)))
        bound_v = 4.0 * nu / math.pi**2 + (2.0 / nu) * (1.0 + ah + (1.0 + ah) ** 2) + 4.0 * e_total
    else:
        sup_v, bound_v = 0.0, None
    return BoundsReport(
        sup_theta_x=derivative_sup(p, 1),
        bound_theta_x=math.sqrt((1.0 + ah) ** 2 + 2.0 * nu * e_total),
        sup_v=sup_v,
        bound_v=bound_v,
        sup_theta_xx=derivative_sup(p, 2),
        bound_theta_xx=1.0 + ah + (nu / 2.0) * sup_v,
    )


def _interior_gap(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """Max |a - b| over the nodes every field check reads, the interior
    |x| <= L/2: away from the grid ends, where the truncated tails weigh
    most."""
    return float(np.max(np.abs(a - b)[np.abs(grid.nodes) <= 0.5 * grid.half_width]))


def _gate(key: str, value: float | None, tol: float) -> dict:
    return {key: value, "tol": tol, "passed": value is not None and value <= tol}


def verify(p: WallProfile) -> dict:
    """Check a computed wall against the paper's claims and gate each check.

    Returns {"passed": all checks passed, "checks": {name: {..., "passed"}}}
    with the checks boundary (the end values are the Dirichlet data
    pi - theta_h and theta_h), el_residual (sup|g|/dx within GRAD_TOL, the
    test a solve stops on), monotone, symmetry, decay_fit, bounds and
    tail_decay, and at nu > 0 also stray_crosscheck and, when the tail fit
    succeeds, far_field: the fitted c_plus against the far-field law's
    constant from the integral of u (a null relative_gap, failing, when
    that constant is 0). One energy_and_gradient call gives
    the energy, the gradient and the stray field v, which serves the bounds
    and the quadrature cross-check at every interior node, |x| <= L/2.
    When u does not decay at the grid ends, each check that needs the field
    fails with why.
    """
    nu = p.params.nu
    no_field = None
    try:
        eb, grad, v = energy_and_gradient(p, make_operator(p.grid))
    except TailTooLargeError as exc:
        no_field = {"error": str(exc), "passed": False}
    fit, decay_fit = None, {"skipped": "exponential decay at nu=0", "passed": True}
    if nu > 0:
        try:
            fit = fit_decay(p)
            decay_fit = dict(vars(fit), passed=True)
        except WindowTooNoisyError as exc:
            decay_fit = {"error": str(exc), "passed": False}
    mono_ok, mono_violation = check_monotone(p)
    bounds = None if no_field else check_bounds(p, eb.total, v)
    th = p.params.theta_h
    boundary = np.max(np.abs([p.theta[0] - (math.pi - th), p.theta[-1] - th]))  # NaN-propagating
    checks = {
        "boundary": _gate("max_defect", float(boundary), VERIFY_BOUNDARY_TOL),
        "el_residual": no_field or _gate("max", grad_norm(grad, p.grid.spacing), GRAD_TOL),
        "monotone": {"max_violation": mono_violation, "passed": mono_ok},
        "symmetry": _gate("defect", symmetry_defect(p), VERIFY_SYMMETRY_TOL),
        "decay_fit": decay_fit,
        "bounds": no_field or dict(vars(bounds), passed=bounds.all_satisfied),
        "tail_decay": {"passed": tail_decay_check(p)},
    }
    if nu > 0 and no_field:
        field_checks = ("stray_crosscheck",) + ("far_field",) * (fit is not None)
        checks.update(dict.fromkeys(field_checks, no_field))
    elif nu > 0:
        gap = _interior_gap(apply_quadrature(np.sin(p.theta) - p.params.h, p.grid), v, p.grid)
        checks["stray_crosscheck"] = _gate("max_discrepancy", gap, VERIFY_CROSSCHECK_TOL)
        if fit is not None:
            pred = far_field_constant(p)
            rel = abs(fit.c_plus - pred) / abs(pred) if pred else None
            checks["far_field"] = {"predicted": pred, "fitted": fit.c_plus,
                                   **_gate("relative_gap", rel, VERIFY_FAR_FIELD_TOL)}
    return {"passed": all(c["passed"] for c in checks.values()), "checks": checks}


def _oracle_corpus(grid: Grid) -> list[tuple[str, np.ndarray]]:
    x = grid.nodes
    return [
        ("lorentzian", 1.0 / (1.0 + x**2)),
        ("gaussian", np.exp(-0.5 * x**2)),
        ("squashed_kink", np.sin(2.0 * np.arctan(np.exp(-x))) ** 2),
    ]


def _corpus_gate(gaps: dict[str, float]) -> dict:
    return {"gaps": gaps, **_gate("max", float(np.max(list(gaps.values()))), ORACLE_TOL)}


def oracle(grid: Grid) -> dict:
    """Cross-validate the spectral half-Laplacian and its pairing on a fixed
    corpus of decaying functions, and gate each check.

    Returns {"passed", "checks"} like verify, with the checks
    operator_equivalence (against the quadrature, relative to sup|u|) and
    lorentzian_closed_form (against (1-x^2)/(1+x^2)^2), each the sup error
    over the interior |x| <= L/2, and seminorm_identity (the pairing of u with
    itself against the double-integral seminorm, relative); the corpus
    checks keep each function's gap under "gaps" and gate their maximum.
    Each function's spectrum serves its field and its pairing; the
    quadrature and the seminorm each take the whole corpus in one call.
    """
    op = make_operator(grid)
    names, corpus = zip(*_oracle_corpus(grid))
    corpus = np.stack(corpus)
    quadratures = apply_quadrature(corpus, grid)
    double_integrals = seminorm_double_integral(corpus, grid)
    stray, equivalence, seminorm = {}, {}, {}
    for name, u, q, qd in zip(names, corpus, quadratures, double_integrals):
        su = spectrum(op, u)
        stray[name] = apply_spectral(op, su)
        equivalence[name] = _interior_gap(q, stray[name], grid) / float(np.max(np.abs(u)))
        seminorm[name] = float(abs(pairing(op, su, su) - qd) / abs(qd))
    x = grid.nodes
    exact = (1.0 - x**2) / (1.0 + x**2) ** 2
    closed = _interior_gap(stray["lorentzian"], exact, grid)
    checks = {
        "operator_equivalence": _corpus_gate(equivalence),
        "lorentzian_closed_form": _gate("max", closed, ORACLE_TOL),
        "seminorm_identity": _corpus_gate(seminorm),
    }
    return {"passed": all(c["passed"] for c in checks.values()), "checks": checks}
