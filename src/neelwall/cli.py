"""Command-line interface: solve, verify, path, sweep, oracle.

Configuration precedence is flags over config-file keys over built-in
defaults; the config file is flat `key = value` text. FLAGS gives each
key's type and default and COMMANDS the keys each command reads; a flag or
config key a command does not read is a usage error. Each command only
reads its inputs and writes or prints what the library returns; verify
and oracle take every gate from analysis. This module is the one home of
the output formats: each JSON or CSV file is written from its result
dataclass's own fields, read shallowly, and atomically (temp file +
rename). Exit codes: 0 ok, 1 usage or config error, 2 not converged, 3
verification failure, 4 certificate contradiction. main also sets glibc's
heap thresholds once per process (_retain_heap), so a solve's arrays are
not faulted in anew at every evaluation.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
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
    recenter,
    save_profile,
    write_text_atomic,
)

INIT_KINDS = ("template", "kink", "perturbed")

# key: (type, default, allowed values or None); the flag --half-width sets
# the key half_width, and a config file names keys
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
}

# the keys each command reads; it takes no other flag or config key. verify
# draws nothing from seed: the key stays accepted while perfbench's certify
# workload passes --seed to verify (ROADMAP item 6)
COMMANDS = {
    "solve": tuple(FLAGS),
    "verify": ("seed", "out_dir"),
    "path": ("out_dir",),
    "sweep": ("n", "half_width", "grad_tol", "max_iter", "out_dir"),
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


def _read_config(path: str, command: str) -> dict:
    """The keys of a flat `key = value` file, each converted with its flag's
    type. A key `command` does not read, or a bad value, names file:line."""
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in COMMANDS[command]:
                raise ValueError(f"{where}: unknown key {key!r} for {command}")
            kind, _, choices = FLAGS[key]
            try:
                cfg[key] = kind(value)
            except ValueError:
                raise ValueError(f"{where}: invalid {key} value {value!r}") from None
            if choices and value not in choices:
                raise ValueError(f"{where}: {key} must be one of {', '.join(choices)}")
    return cfg


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
    p1 = recenter(load_profile(args.profile_a))
    p2 = recenter(load_profile(args.profile_b))
    verdict = pathmod.uniqueness_certificate(p1, p2)
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
    parts = [f.name for f in fields(EnergyBreakdown)]
    raised = dict.fromkeys(parts, math.nan)  # the energy of a row whose solve raised
    table = (
        (r.nu, r.h, *(vars(r.energy) if r.energy else raised).values(), r.decay_c, r.max_grad, r.converged)
        for r in rows
    )
    header = ["nu", "h", *parts, "decay_c", "max_grad", "converged"]
    _write_csv_atomic(os.path.join(out, "sweep.csv"), header, table)
    for r in rows:
        status = "ok" if r.converged else (r.error or "not converged")
        total = r.energy.total if r.energy else math.nan
        print(f"nu={r.nu} h={r.h}: E={total:.8g} [{status}]")
    return EXIT_OK if all(r.converged for r in rows) else EXIT_NOT_CONVERGED


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
    """The subparser of `name`: --config and the flags of the keys it reads.
    A flag left out sets no attribute, so main can put the config value or
    the default in its place; flags are matched in full, never by prefix."""
    sp = sub.add_parser(name, help=summary, allow_abbrev=False, argument_default=argparse.SUPPRESS)
    sp.add_argument("--config", default=None, help="flat key = value config file")
    for key in COMMANDS[name]:
        kind, _, choices = FLAGS[key]
        sp.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, choices=choices)
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
    sp = _add_command(sub, "sweep", "solve over a grid of (nu, h) values")
    sp.add_argument("--nu-list", default="0.5,1,2,4")
    sp.add_argument("--h-list", default="0,0.25,0.5,0.75")
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
        # flags over config keys over defaults, for the keys the command reads
        values = {key: FLAGS[key][1] for key in COMMANDS[args.command]}
        if args.config:
            values.update(_read_config(args.config, args.command))
        values.update(vars(args))
        if values.get("seed", 0) < 0:  # whether or not this run draws from it
            raise ValueError(f"seed must be non-negative (got {values['seed']})")
        # read from the module at call time, so a rebound cmd_* is the one run
        return globals()["cmd_" + args.command](argparse.Namespace(**values))
    except (NeelWallError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
