#!/usr/bin/env python3
"""Solve the README's convergence grid and fail if any solve does not converge.

    PYTHONPATH=src python scripts/convergence_grid.py

The grid is n in {257, 1025, 4097, 16385} x nu in {0, 0.5, 1, 4, 10} x h in
{0, 0.25, 0.5, 0.95} x every --init (L = 40, seed 0), 240 solves, plus the
same n, nu and h with the kink start at L = 800, 80 solves, whose e^{-x/width}
passes exp's overflow at the left end; each of the 320 at grad_tol 1e-6,
1e-9 and 1e-10. Prints the converged count, iterations and evaluations per
tolerance and exits 1 if any of the 960 solves fails.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Iterator

from neelwall import SolveOptions, make_grid, make_initial_profile, make_operator, make_params, minimize

NS = (257, 1025, 4097, 16385)
NUS = (0.0, 0.5, 1.0, 4.0, 10.0)
HS = (0.0, 0.25, 0.5, 0.95)
INITS = ("template", "kink", "perturbed")
GRAD_TOLS = (1e-6, 1e-9, 1e-10)
# (L, the inits solved at it)
COLUMNS = ((40.0, INITS), (800.0, ("kink",)))


def solve_grid(grad_tol: float) -> Iterator[tuple[tuple, object]]:
    """((n, L, nu, h, init), SolveReport) for every solve of the grid."""
    opts = SolveOptions(grad_tol=grad_tol)
    for half_width, inits in COLUMNS:
        for n in NS:
            grid = make_grid(n, half_width)
            op = make_operator(grid)
            for nu in NUS:
                for h in HS:
                    params = make_params(nu, h)
                    for init in inits:
                        p0 = make_initial_profile(grid, params, kind=init, seed=0)
                        yield (n, half_width, nu, h, init), minimize(p0, opts, op=op)[1]


def main() -> int:
    failed = 0
    for grad_tol in GRAD_TOLS:
        start = time.perf_counter()
        solves = converged = iterations = evaluations = 0
        for case, report in solve_grid(grad_tol):
            solves += 1
            converged += report.converged
            iterations += report.iterations
            evaluations += report.evaluations
            if not report.converged:
                print(f"  not converged: n, L, nu, h, init = {case}, stop {report.stop}, "
                      f"sup|g|/dx {report.final_grad_norm:.3g}")
        failed += solves - converged
        print(f"grad_tol {grad_tol:g}: {converged}/{solves} converged, {iterations} iterations, "
              f"{evaluations} evaluations, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
