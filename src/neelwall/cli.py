"""Command-line interface: solve, verify, path, sweep, oracle.

Configuration precedence is flags over config-file keys over built-in
defaults; the config file is flat `key = value` text. Each command only
reads its inputs and writes or prints what the library returns; verify
and oracle take every gate from analysis. All file outputs are written
atomically (temp file + rename). Exit codes: 0 ok, 1 usage or config
error, 2 not converged, 3 verification failure, 4 certificate
contradiction.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import analysis, path as pathmod, solver
from .errors import NeelWallError
from .model import (
    make_grid,
    make_initial_profile,
    make_params,
    load_profile,
    recenter,
    save_profile,
    write_text_atomic,
)

DEFAULTS = {
    "nu": 1.0,
    "h": 0.0,
    "n": 4097,
    "half_width": 40.0,
    "grad_tol": 1e-6,
    "max_iter": 200_000,
    "init": "template",
    "seed": 0,
    "out_dir": ".",
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_VERIFY_FAILED = 3
EXIT_CONTRADICTION = 4


def _write_json_atomic(path: str, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            cfg[key] = value
    return cfg


def _coerce(key: str, value):
    kind = type(DEFAULTS[key])
    if kind is float:
        return float(value)
    if kind is int:
        return int(value)
    return str(value)


def _resolve(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, value in _read_config(args.config).items():
            cfg[key] = _coerce(key, value)
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _options(cfg: dict) -> solver.SolveOptions:
    return solver.SolveOptions(grad_tol=cfg["grad_tol"], max_iter=cfg["max_iter"])


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    params = make_params(cfg["nu"], cfg["h"])
    grid = make_grid(cfg["n"], cfg["half_width"])
    opts = _options(cfg)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    p0 = make_initial_profile(grid, params, kind=cfg["init"], seed=cfg["seed"])
    p, report = solver.minimize(p0, opts)
    prof_path = os.path.join(out, "profile.txt")
    save_profile(prof_path, p)
    _write_json_atomic(os.path.join(out, "energy.json"), report.final_energy.as_dict())
    _write_json_atomic(
        os.path.join(out, "report.json"),
        {
            "iterations": report.iterations,
            "evaluations": report.evaluations,
            "restarts": report.restarts,
            "stop": report.stop,
            "final_grad_norm": report.final_grad_norm,
            "recenter_shifts": report.recenter_shifts,
            "converged": report.converged,
            "profile": prof_path,
        },
    )
    print(
        f"solve nu={params.nu} h={params.h}: E={report.final_energy.total:.10g} "
        f"grad={report.final_grad_norm:.3g} converged={report.converged}"
    )
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    result = analysis.verify(load_profile(args.profile), seed=cfg["seed"])
    _write_json_atomic(os.path.join(out, "verify.json"), {"profile": args.profile, **result})
    for name, c in result["checks"].items():
        print(f"{'PASS' if c['passed'] else 'FAIL'} {name}")
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


def cmd_path(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    p1 = recenter(load_profile(args.profile_a))
    p2 = recenter(load_profile(args.profile_b))
    verdict = pathmod.uniqueness_certificate(p1, p2, grad_tol=cfg["grad_tol"])
    write_text_atomic(os.path.join(out, "path.csv"), "".join(pathmod.path_csv_lines(verdict.points)))
    _write_json_atomic(os.path.join(out, "certificate.json"), verdict.as_dict())
    print(
        f"certificate: {verdict.verdict} (min f''={verdict.min_f_second:.3g}, "
        f"|f'(0)|={abs(verdict.f_prime_at_0):.3g}, |f'(1)|={abs(verdict.f_prime_at_1):.3g}, "
        f"sup diff={verdict.sup_difference:.3g})"
    )
    return EXIT_CONTRADICTION if verdict.verdict == "CONTRADICTION" else EXIT_OK


def _parse_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    nus = _parse_list(args.nu_list)
    hs = _parse_list(args.h_list)
    params_list = [make_params(nu, h) for nu in nus for h in hs]
    grid = make_grid(cfg["n"], cfg["half_width"])
    rows = solver.sweep(params_list, grid, _options(cfg), init=cfg["init"])
    write_text_atomic(os.path.join(out, "sweep.csv"), "".join(solver.sweep_csv_lines(rows)))
    for r in rows:
        status = "ok" if r.converged else (r.error or "not converged")
        total = r.energy.total if r.energy else math.nan
        print(f"nu={r.nu} h={r.h}: E={total:.8g} [{status}]")
    return EXIT_OK if all(r.converged for r in rows) else EXIT_NOT_CONVERGED


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    result = analysis.oracle(make_grid(cfg["n"], cfg["half_width"]), seed=cfg["seed"])
    for key, check in result["checks"].items():
        label = key.replace("_", " ")
        if "gaps" in check:
            for name, gap in check["gaps"].items():
                print(f"{label} [{name}]: {gap:.3e}")
        else:
            print(f"{label}: {check['max']:.3e}")
    print("oracle: PASS" if result["passed"] else "oracle: FAIL")
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="flat key = value config file")
    sp.add_argument("--nu", type=float)
    sp.add_argument("--h", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--half-width", dest="half_width", type=float)
    sp.add_argument("--grad-tol", dest="grad_tol", type=float)
    sp.add_argument("--max-iter", dest="max_iter", type=int)
    sp.add_argument("--init", choices=["template", "kink", "perturbed"])
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out-dir", dest="out_dir")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. Subcommands are
    dispatched by name in main, so the parser holds no command function."""
    parser = argparse.ArgumentParser(
        prog="neelwall",
        description="Neel wall profile solver and verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="minimize the wall energy and save the profile")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run structural checks on a saved profile")
    sp.add_argument("profile", help="profile file written by solve")
    _add_common(sp)

    sp = sub.add_parser("path", help="convexity certificate between two profiles")
    sp.add_argument("profile_a")
    sp.add_argument("profile_b")
    _add_common(sp)

    sp = sub.add_parser("sweep", help="solve over a grid of (nu, h) values")
    sp.add_argument("--nu-list", default="0.5,1,2,4")
    sp.add_argument("--h-list", default="0,0.25,0.5,0.75")
    _add_common(sp)

    sp = sub.add_parser("oracle", help="operator and seminorm cross-validation suite")
    _add_common(sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    # read from the module at call time, so a rebound cmd_* is the one run
    commands = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "path": cmd_path,
        "sweep": cmd_sweep,
        "oracle": cmd_oracle,
    }
    try:
        return commands[args.command](args)
    except (NeelWallError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
