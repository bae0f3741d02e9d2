"""Command-line interface: solve, verify, path, sweep, oracle.

Every value comes from a flag or its default. FLAGS gives each key's type
and default and COMMANDS the keys each command reads; a flag a command
does not read is a usage error. Each command only reads its inputs and
writes or prints what the library returns; verify and oracle take every
gate from analysis. This module is the one home of the output formats:
each JSON or CSV file is written from its result dataclass's own fields,
read shallowly, and atomically (temp file + rename). Exit codes: 0 ok,
1 usage error, 2 not converged, 3 verification failure, 4 certificate
contradiction. main also sets glibc's heap thresholds once per process
(_retain_heap), so a solve's arrays are not faulted in anew at every
evaluation.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys
from dataclasses import fields

from . import analysis, path as pathmod, solver
from .errors import NeelWallError
from .model import (
    EnergyBreakdown,
    make_grid,
    make_initial_profile,
    make_params,
    load_profile,
    save_profile,
    write_text_atomic,
)

INIT_KINDS = ("template", "kink", "perturbed")

# key: (type, default, allowed values or None); the flag --half-width sets
# the key half_width
FLAGS = {
    "nu": (float, 1.0, None),
    "h": (float, 0.0, None),
    "n": (int, 4097, None),
    "half_width": (float, 40.0, None),
    "grad_tol": (float, solver.SolveOptions.grad_tol, None),
    "max_iter": (int, solver.SolveOptions.max_iter, None),
    "init": (str, "template", INIT_KINDS),
    "seed": (int, 0, None),
    "out_dir": (str, ".", None),
    "nu_list": (str, "0.5,1,2,4", None),
    "h_list": (str, "0,0.25,0.5,0.75", None),
}

# the keys each command reads; it takes no other flag. verify draws nothing
# from seed: the flag stays accepted while perfbench's certify workload
# passes --seed to verify (ROADMAP item 6)
COMMANDS = {
    "solve": ("nu", "h", "n", "half_width", "grad_tol", "max_iter", "init", "seed", "out_dir"),
    "verify": ("seed", "out_dir"),
    "path": ("out_dir",),
    "sweep": ("n", "half_width", "grad_tol", "max_iter", "out_dir", "nu_list", "h_list"),
    "oracle": ("n", "half_width"),
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_VERIFY_FAILED = 3
EXIT_CONTRADICTION = 4


def _write_json_atomic(path: str, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cell(value) -> str:
    return str(value).lower() if isinstance(value, bool) else f"{value:.12g}"


def _write_csv_atomic(path: str, header, rows) -> None:
    """One line per row, floats as .12g and booleans as true/false."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _options(args: argparse.Namespace) -> solver.SolveOptions:
    return solver.SolveOptions(grad_tol=args.grad_tol, max_iter=args.max_iter)


def cmd_solve(args: argparse.Namespace) -> int:
    params = make_params(args.nu, args.h)
    grid = make_grid(args.n, args.half_width)
    opts = _options(args)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    p0 = make_initial_profile(grid, params, kind=args.init, seed=args.seed)
    p, report = solver.minimize(p0, opts)
    prof_path = os.path.join(out, "profile.txt")
    save_profile(prof_path, p)
    _write_json_atomic(os.path.join(out, "energy.json"), vars(report.final_energy))
    summary = {k: v for k, v in vars(report).items() if k != "final_energy"}
    _write_json_atomic(os.path.join(out, "report.json"), {**summary, "profile": prof_path})
    print(
        f"solve nu={params.nu} h={params.h}: E={report.final_energy.total:.10g} "
        f"grad={report.final_grad_norm:.3g} converged={report.converged}"
    )
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_verify(args: argparse.Namespace) -> int:
    result = analysis.verify(load_profile(args.profile))
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    _write_json_atomic(os.path.join(out, "verify.json"), {"profile": args.profile, **result})
    for name, c in result["checks"].items():
        print(f"{'PASS' if c['passed'] else 'FAIL'} {name}")
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


def cmd_path(args: argparse.Namespace) -> int:
    verdict = pathmod.uniqueness_certificate(load_profile(args.profile_a), load_profile(args.profile_b))
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    header = [f.name for f in fields(pathmod.PathPoint)]
    _write_csv_atomic(os.path.join(out, "path.csv"), header, (vars(pt).values() for pt in verdict.points))
    _write_json_atomic(
        os.path.join(out, "certificate.json"), {k: v for k, v in vars(verdict).items() if k != "points"}
    )
    print(
        f"certificate: {verdict.verdict} (max grad={verdict.max_grad_1:.3g}/{verdict.max_grad_2:.3g}, "
        f"s distance={verdict.s_distance:.3g}, radii={verdict.radius_1:.3g}+{verdict.radius_2:.3g}, "
        f"min f''={verdict.min_f_second:.3g})"
    )
    return EXIT_CONTRADICTION if verdict.verdict == "CONTRADICTION" else EXIT_OK


def _parse_list(flag: str, text: str) -> list[float]:
    values = []
    for tok in filter(str.strip, text.split(",")):
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"invalid {flag} value {tok!r}") from None
    if not values:
        raise ValueError(f"{flag} names no value")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    nus = _parse_list("--nu-list", args.nu_list)
    hs = _parse_list("--h-list", args.h_list)
    params_list = [make_params(nu, h) for nu in nus for h in hs]
    grid = make_grid(args.n, args.half_width)
    opts = _options(args)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    rows = solver.sweep(params_list, grid, opts)
    table = (
        (
            r.params.nu,
            r.params.h,
            *vars(r.report.final_energy).values(),
            r.decay_c,
            r.report.final_grad_norm,
            r.report.converged,
        )
        for r in rows
    )
    header = ["nu", "h", *(f.name for f in fields(EnergyBreakdown)), "decay_c", "max_grad", "converged"]
    _write_csv_atomic(os.path.join(out, "sweep.csv"), header, table)
    for r in rows:
        status = "ok" if r.report.converged else "not converged"
        print(f"nu={r.params.nu} h={r.params.h}: E={r.report.final_energy.total:.8g} [{status}]")
    return EXIT_OK if all(r.report.converged for r in rows) else EXIT_NOT_CONVERGED


def cmd_oracle(args: argparse.Namespace) -> int:
    result = analysis.oracle(make_grid(args.n, args.half_width))
    for key, check in result["checks"].items():
        label = key.replace("_", " ")
        if "gaps" in check:
            for name, gap in check["gaps"].items():
                print(f"{label} [{name}]: {gap:.3e}")
        else:
            print(f"{label}: {check['max']:.3e}")
    print("oracle: PASS" if result["passed"] else "oracle: FAIL")
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


def _add_command(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """The subparser of `name`: a flag for each key it reads, with its FLAGS
    default. Flags are matched in full, never by prefix."""
    sp = sub.add_parser(name, help=summary, allow_abbrev=False)
    for key in COMMANDS[name]:
        kind, default, choices = FLAGS[key]
        sp.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, default=default, choices=choices)
    return sp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. Subcommands are
    dispatched by name in main, so the parser holds no command function."""
    parser = argparse.ArgumentParser(
        prog="neelwall",
        description="Neel wall profile solver and verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "solve", "minimize the wall energy and save the profile")
    sp = _add_command(sub, "verify", "run structural checks on a saved profile")
    sp.add_argument("profile", help="profile file written by solve")
    sp = _add_command(sub, "path", "convexity certificate between two profiles")
    sp.add_argument("profile_a")
    sp.add_argument("profile_b")
    _add_command(sub, "sweep", "solve over a grid of (nu, h) values")
    _add_command(sub, "oracle", "operator and seminorm cross-validation suite")
    return parser


# glibc mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


@functools.cache
def _retain_heap() -> None:
    """Keep freed arrays on the heap for the next energy evaluation (glibc).

    Every evaluation allocates and frees the same few transform arrays
    (0.13 MB each at n = 8193). Under glibc's default thresholds, which only
    rise after some large block has been freed, they are mapped fresh or
    trimmed off the heap each time: ~2400 minor page faults per n = 8193
    solve and ~230 per n = 4097 solve in a fresh process. Serving blocks up
    to 32 MiB from the heap and trimming only past 128 MiB free keeps them
    resident. A no-op where the C library has no mallopt.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 128 << 20)


def main(argv: list[str] | None = None) -> int:
    _retain_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if getattr(args, "seed", 0) < 0:  # whether or not this run draws from it
            raise ValueError(f"seed must be non-negative (got {args.seed})")
        # read from the module at call time, so a rebound cmd_* is the one run
        return globals()["cmd_" + args.command](args)
    except (NeelWallError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
