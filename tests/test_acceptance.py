"""End-to-end acceptance suite.

Each test records a one-line PASS/FAIL entry (see conftest) before
asserting, so the terminal summary lists every criterion even on failure.
"""

import math

import numpy as np
import pytest

from neelwall import (
    apply_quadrature,
    apply_spectral,
    check_bounds,
    check_monotone,
    derivative_sup,
    energy,
    energy_and_gradient,
    far_field_constant,
    fit_decay,
    grad_norm,
    make_initial_profile,
    make_params,
    pairing,
    seminorm_double_integral,
    spectrum,
    symmetry_defect,
    tail_decay_check,
    uniqueness_certificate,
)
from conftest import record_criterion

N = 4097
HW = 40.0
N_FINE = 8193
HW_FINE = 80.0
SWEEP = [(nu, h) for nu in (0.5, 1.0, 2.0, 4.0) for h in (0.0, 0.25, 0.5, 0.75)]


def test_criterion_1_local_limit(solved):
    # at nu = 0 the wall solves theta' = -(sin theta - h): u_0 = sin theta_0 - h
    # = (1 - h^2)/(cosh(x cos theta_h) + h), on the branch pi - arcsin at x < 0,
    # with E_0 = 2 cos theta_h - h (pi - 2 theta_h) (ROADMAP item 18). Shifting
    # u by 0.01 h in the energy passes h = 0 and fails h = 0.25 and 0.5 (sup
    # err 2.7e-3 and 6.4e-3)
    ok, details = True, []
    for h in (0.0, 0.25, 0.5):
        p, report = solved(0.0, h, n=N, half_width=HW)
        x, th = p.grid.nodes, p.params.theta_h
        arcsin = np.arcsin(h + (1.0 - h * h) / (np.cosh(x * math.cos(th)) + h))
        exact = np.where(x >= 0.0, arcsin, math.pi - arcsin)
        e_err = abs(report.final_energy.total - (2.0 * math.cos(th) - h * (math.pi - 2.0 * th)))
        sup_err = float(np.max(np.abs(p.theta - exact)))
        ok = ok and report.converged and e_err <= 1e-3 and sup_err <= 1e-3
        details.append(f"h={h}: |E-E0|={e_err:.3g}, sup err={sup_err:.3g}")
    record_criterion("criterion 1: local-limit anchor", ok, "; ".join(details))
    assert ok


def test_criterion_2_operator_equivalence(operators, solved):
    grid, op = operators(N_FINE, HW_FINE)
    x = grid.nodes
    interior = np.abs(x) <= 0.5 * grid.half_width
    wall, _ = solved(1.0, 0.3, n=N_FINE, half_width=HW_FINE)
    corpus = [
        ("poisson", 1.0 / (1.0 + x**2)),
        ("wall", np.sin(wall.theta) - wall.params.h),
    ]
    worst = 0.0
    for _, u in corpus:
        v = apply_spectral(op, spectrum(op, u))
        gap = float(np.max(np.abs(apply_quadrature(u, grid) - v)[interior]))
        worst = max(worst, gap / float(np.max(np.abs(u))))
    u = 1.0 / (1.0 + x**2)
    exact = (1.0 - x**2) / (1.0 + x**2) ** 2
    closed = float(np.max(np.abs(apply_spectral(op, spectrum(op, u)) - exact)[interior]))
    ok = worst <= 1e-4 and closed <= 1e-5
    record_criterion(
        "criterion 2: operator oracle equivalence",
        ok,
        f"quadrature gap={worst:.3g}, closed form={closed:.3g}",
    )
    assert ok


def test_criterion_3_seminorm_identity(operators, solved):
    grid, op = operators(N, HW_FINE)
    x = grid.nodes
    wall, _ = solved(1.0, 0.3, n=N, half_width=HW_FINE)
    cases = [
        (op, grid, 1.0 / (1.0 + x**2)),
        (op, grid, np.exp(-0.5 * x**2)),
        (op, grid, np.sin(2.0 * np.arctan(np.exp(-x))) ** 2),
        (op, grid, np.sin(wall.theta) - wall.params.h),
    ]
    worst = 0.0
    for case_op, case_grid, u in cases:
        su = spectrum(case_op, u)
        qp = pairing(case_op, su, su)
        qd = seminorm_double_integral(u, case_grid)
        worst = max(worst, abs(qp - qd) / abs(qd))
    ok = worst <= 1e-4
    record_criterion("criterion 3: seminorm identity", ok, f"max rel gap={worst:.3g}")
    assert ok


def test_criterion_4_structure_suite(solved, operators):
    worst = {"grad": 0.0, "mono": 0.0, "sym": 0.0, "el": 0.0}
    ok = True
    for nu, h in SWEEP:
        p, report = solved(nu, h, n=N, half_width=HW)
        _, op = operators(N, HW)
        ok &= report.converged
        _, viol = check_monotone(p)
        sym = symmetry_defect(p)
        th = p.params.theta_h
        inside = bool(np.all(p.theta[1:-1] > th) and np.all(p.theta[1:-1] < math.pi - th))
        el = grad_norm(energy_and_gradient(p, op)[1], p.grid.spacing)
        ok &= viol <= 1e-10 and sym <= 1e-4 and inside and el <= 1e-5
        worst["grad"] = max(worst["grad"], report.final_grad_norm)
        worst["mono"] = max(worst["mono"], viol)
        worst["sym"] = max(worst["sym"], sym)
        worst["el"] = max(worst["el"], el)
    record_criterion(
        "criterion 4: structure suite (16 combos)",
        ok,
        f"monotone={worst['mono']:.3g}, symmetry={worst['sym']:.3g}, EL={worst['el']:.3g}",
    )
    assert ok


def test_criterion_5_uniqueness(solved):
    p1, r1 = solved(1.0, 0.3, n=N, half_width=HW)
    p2, r2 = solved(1.0, 0.3, n=N, half_width=HW, kind="perturbed", width=2.0, seed=0)
    sup = float(np.max(np.abs(p1.theta - p2.theta)))
    cert = uniqueness_certificate(p1, p2)
    ok = r1.converged and r2.converged and sup <= 1e-5 and cert.verdict == "COINCIDE"
    record_criterion(
        "criterion 5: uniqueness of the minimizer",
        ok,
        f"sup diff={sup:.3g}, verdict={cert.verdict}",
    )
    assert ok


def test_criterion_6_convexity_certificate(solved):
    p, _ = solved(1.0, 0.3, n=N, half_width=HW)
    kink = make_initial_profile(p.grid, p.params, kind="kink", width=2.0)
    # the solution/non-solution split is the solver's own test, sup|g|/dx
    # against its default grad_tol
    cert = uniqueness_certificate(p, kink)
    second = np.array([pt.f_second_analytic for pt in cert.points])
    # the 5-point central difference of f on the t with two neighbours each side
    fs, dt = np.array([pt.f for pt in cert.points]), cert.points[1].t - cert.points[0].t
    fd = (-fs[:-4] + 16 * fs[1:-3] - 30 * fs[2:-2] + 16 * fs[3:-1] - fs[4:]) / (12 * dt**2)
    rel_gap = float(np.max(np.abs(fd - second[2:-2]) / second[2:-2]))
    ok = (
        bool(np.all(second > 0.0))
        and rel_gap <= 1e-4
        and cert.verdict == "NOT_BOTH_SOLUTIONS"
        and cert.max_grad_1 <= 1e-6
        and cert.max_grad_2 > 1e-3
    )
    record_criterion(
        "criterion 6: convexity certificate",
        ok,
        f"min f''={second.min():.3g}, fd gap={rel_gap:.3g}, verdict={cert.verdict}, "
        f"max_grad min/kink={cert.max_grad_1:.3g}/{cert.max_grad_2:.3g}",
    )
    assert ok


def test_criterion_7_bounds_suite(solved, operators):
    ok = True
    for nu, h in SWEEP:
        p, report = solved(nu, h, n=N, half_width=HW)
        _, op = operators(N, HW)
        if not report.converged:
            ok = False
            continue
        e = energy(p, op).total
        v = apply_spectral(op, spectrum(op, np.sin(p.theta) - h)) if nu > 0 else None
        hub = 1.0 + abs(h)
        sup_tx = derivative_sup(p, 1)
        ok &= sup_tx <= math.sqrt(hub**2 + 2.0 * nu * e)
        sup_txx = derivative_sup(p, 2)
        if nu > 0:
            sup_v = float(np.max(np.abs(v)))
            ok &= sup_v <= 4.0 * nu / math.pi**2 + (2.0 / nu) * (hub + hub**2) + 4.0 * e
            ok &= sup_txx <= hub + 0.5 * nu * sup_v
        else:
            ok &= sup_txx <= hub
        ok &= check_bounds(p, e, v).all_satisfied
        ok &= tail_decay_check(p)
    record_criterion("criterion 7: derivative and tail bounds (16 combos)", ok)
    assert ok


def test_criterion_8_quadratic_decay(solved):
    ok = True
    details = []
    for h in (0.0, 0.3):
        p, report = solved(1.0, h, n=N_FINE, half_width=HW_FINE)
        fit = fit_decay(p)
        lr_gap = abs(fit.c_plus - fit.c_minus) / max(abs(fit.c_plus), abs(fit.c_minus))
        pred = far_field_constant(p)
        pred_gap = abs(fit.c_plus - pred) / abs(pred)
        ok &= report.converged and fit.plateau_spread <= 0.1 and lr_gap <= 0.05 and pred_gap <= 0.2
        details.append(
            f"h={h}: spread={fit.plateau_spread:.3g}, lr={lr_gap:.3g}, pred={pred_gap:.3g}"
        )
    record_criterion("criterion 8: quadratic tail decay", ok, "; ".join(details))
    assert ok


def test_criterion_9_gradient_correctness(operators, rng):
    grid, op = operators(513, HW)
    params = make_params(1.0, 0.3)
    profiles = [
        make_initial_profile(grid, params, kind="template"),
        make_initial_profile(grid, params, kind="kink", width=1.0),
        make_initial_profile(grid, params, kind="kink", width=2.0),
        make_initial_profile(grid, params, kind="perturbed", seed=1),
        make_initial_profile(grid, params, kind="perturbed", seed=2),
    ]
    eps = 1e-6
    worst = 0.0
    for p in profiles:
        g = energy_and_gradient(p, op)[1]
        for _ in range(10):
            d = rng.standard_normal(grid.n)
            d[0] = d[-1] = 0.0
            d /= np.linalg.norm(d)
            ep = energy(p.with_theta(p.theta + eps * d), op).total
            em = energy(p.with_theta(p.theta - eps * d), op).total
            fd = (ep - em) / (2.0 * eps)
            ex = float(np.dot(g, d))
            worst = max(worst, abs(fd - ex) / max(abs(ex), 1e-3))
    ok = worst <= 1e-6
    record_criterion("criterion 9: gradient correctness", ok, f"max rel err={worst:.3g}")
    assert ok
