#!/usr/bin/env python3
"""Benchmark of the neelwall toolkit: refine, sweep and certify workloads.

Run from the repository root:

    python3 perfbench/run.py --workload refine --seed 1 --seconds 15 --trace 0

Each workload drives the public command line in process
(``neelwall.cli.main([...])``) as one closed-loop client: every op waits for
the previous one. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the same ops once untraced and once under the outside-in
tracer (``tracer.py``) and reports the per-layer metrics and the tracing
overhead. Every op's output is checked (``checks.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS/OpenMP pools are pinned before numpy is first imported.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("refine", "sweep", "certify")
NU_RANGE = (0.5, 4.0)
H_RANGE = (0.0, 0.75)
# The refine ladder runs at the (nu, h) point whose ladder the ROADMAP
# measured (220/450/909/1846 iterations); see README.md for why it is fixed.
REFINE_POINT = (1.0, 0.25)
SETUP_PROBES = 4


@dataclass(frozen=True)
class Sizes:
    half_width: float
    rungs: tuple[int, ...]
    sweep_n: int
    sweep_points: int
    certify_n: int
    oracle_args: tuple[str, ...]


FULL = Sizes(40.0, (1025, 2049, 4097, 8193), 2049, 4, 4097, ())
# Tiny grids for the benchmark's own tests: same code paths in seconds.
SMOKE = Sizes(40.0, (257, 513), 257, 2, 513, ("--n", "513"))
WARM_UP = ("--n", "65", "--half-width", "10")


@dataclass
class Op:
    kind: str
    argv: list[str]
    out: str
    key: str = ""
    rc: int = 0
    seconds: float = 0.0
    stdout: str = ""
    outcomes: list = field(default_factory=list)


def _draw(rng, lo: float, hi: float, strata: int) -> list[float]:
    """One uniform draw in each of `strata` equal slices of [lo, hi]."""
    width = (hi - lo) / strata
    return [float(lo + (i + rng.uniform()) * width) for i in range(strata)]


def _solve_argv(nu, h, n, half_width, out, init="template", seed=None) -> list[str]:
    argv = ["solve", "--nu", repr(nu), "--h", repr(h), "--n", str(n),
            "--half-width", repr(half_width), "--init", init, "--out-dir", out]
    return argv + (["--seed", str(seed)] if seed is not None else [])


class Workload:
    """Inputs drawn from the seed, and the ops of round k."""

    def __init__(self, name: str, seed: int, sizes: Sizes):
        import numpy as np

        self.name, self.seed, self.sizes = name, seed, sizes
        self.hw = sizes.half_width
        rng = np.random.default_rng(seed)
        if name == "refine":
            self.nu, self.h = REFINE_POINT
        elif name == "sweep":
            self.nus = _draw(rng, *NU_RANGE, sizes.sweep_points)
            self.hs = _draw(rng, *H_RANGE, sizes.sweep_points)
        else:
            self.nu, self.h = _draw(rng, *NU_RANGE, 1)[0], _draw(rng, *H_RANGE, 1)[0]
        self.prep: list[Op] = []

    def prepare(self, cli, work: str) -> None:
        """certify: solve the two input profiles (not timed)."""
        if self.name != "certify":
            return
        n = self.sizes.certify_n
        for init, seed in (("template", None), ("perturbed", self.seed)):
            out = os.path.join(work, f"prep-{init}")
            op = Op("solve", _solve_argv(self.nu, self.h, n, self.hw, out, init, seed), out,
                    key=checks.solve_key(self.nu, self.h, n, self.hw, init, seed or 0))
            run_op(cli, op)
            self.prep.append(op)
        self.profiles = [os.path.join(op.out, "profile.txt") for op in self.prep]

    def round(self, k: int, work: str) -> list[Op]:
        base = os.path.join(work, f"r{k}")
        hw = self.hw
        if self.name == "refine":
            return [
                Op("solve", _solve_argv(self.nu, self.h, n, hw, f"{base}-n{n}"), f"{base}-n{n}",
                   key=checks.solve_key(self.nu, self.h, n, hw, "template", 0))
                for n in self.sizes.rungs
            ]
        if self.name == "sweep":
            out = f"{base}-sweep"
            argv = ["sweep", "--nu-list", ",".join(map(repr, self.nus)), "--h-list",
                    ",".join(map(repr, self.hs)), "--n", str(self.sizes.sweep_n),
                    "--half-width", repr(hw), "--out-dir", out]
            return [Op("sweep", argv, out)]
        a, b = self.profiles
        return [
            Op("verify", ["verify", a, "--out-dir", f"{base}-verify", "--seed", str(self.seed)], f"{base}-verify"),
            Op("path", ["path", a, b, "--out-dir", f"{base}-path"], f"{base}-path"),
            Op("oracle", ["oracle", *self.sizes.oracle_args], f"{base}-oracle"),
        ]

    def describe(self) -> str:
        if self.name == "sweep":
            return (f"nu={[round(v, 4) for v in self.nus]} h={[round(v, 4) for v in self.hs]} "
                    f"n={self.sizes.sweep_n} L={self.hw:g}")
        n = self.sizes.rungs if self.name == "refine" else self.sizes.certify_n
        return f"nu={self.nu:.6g} h={self.h:.6g} n={n} L={self.hw:g}"


def run_op(cli, op: Op, tracer: tracing.Tracer | None = None) -> None:
    """Run one command in process; its wall time excludes stdout capture."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            if tracer is None:
                t0 = time.perf_counter()
                op.rc = cli.main(op.argv)
                op.seconds = time.perf_counter() - t0
            else:
                tracer.op += 1
                with tracer.span("bench." + op.kind):
                    t0 = time.perf_counter()
                    op.rc = cli.main(op.argv)
                    op.seconds = time.perf_counter() - t0
        except Exception:  # a crash is an op outcome, recorded and checked
            op.seconds = time.perf_counter() - t0
            op.rc = -1
            traceback.print_exc()
    op.stdout = buf.getvalue()


def run_pass(cli, workload: Workload, work: str, budget: float | None = None,
             rounds: int | None = None, tracer=None) -> tuple[list[list[Op]], float]:
    """Closed loop: start rounds until `budget` seconds have passed (at
    least one), or run exactly `rounds` rounds."""
    done: list[list[Op]] = []
    start = time.perf_counter()
    while True:
        if rounds is not None:
            if len(done) >= rounds:
                break
        elif done and time.perf_counter() - start >= budget:
            break
        ops = workload.round(len(done), work)
        for op in ops:
            run_op(cli, op, tracer)
        done.append(ops)
    return done, time.perf_counter() - start


def warm_up(cli, workload: str, work: str) -> float:
    """First call of each entry point the workload uses, on a tiny grid."""
    a = os.path.join(work, "a")
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        if workload == "sweep":
            cli.main(["sweep", "--nu-list", "1", "--h-list", "0", *WARM_UP, "--out-dir", a])
        else:
            cli.main(["solve", *WARM_UP, "--out-dir", a])
        if workload == "certify":
            prof = os.path.join(a, "profile.txt")
            cli.main(["verify", prof, "--out-dir", a])
            cli.main(["path", prof, prof, "--out-dir", a])
            cli.main(["oracle", "--n", "65"])
    return time.perf_counter() - t0


def probe_setup(workload: str, work: str, k: int) -> float:
    """Set-up time of a fresh interpreter (import plus warm-up)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--setup-probe", os.path.join(work, f"setup{k}")]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


# -- checks ---------------------------------------------------------------

KNOWN_FAILURES = (
    ("solve", "n=8193 ", "not converged", "the n = 8193 rung stops above grad_tol"),
    ("oracle", "", "seminorm identity [lorentzian]", "oracle seminorm gap 1.047e-4 > 1e-4"),
)


def known_failure(op: Op, reason: str) -> str:
    for kind, key_part, reason_part, label in KNOWN_FAILURES:
        if op.kind == kind and key_part in op.key + " " and reason_part in reason:
            return label
    return ""


def check_op(neelwall, workload: Workload, op: Op, ref: checks.Reference) -> None:
    try:
        if op.kind == "solve":
            op.outcomes = [checks.check_solve(neelwall, op.out, op.rc, op.key, ref)]
        elif op.kind == "sweep":
            op.outcomes = checks.check_sweep(op.out, op.rc, workload.nus, workload.hs,
                                             workload.sizes.sweep_n, workload.hw, ref)
        elif op.kind == "verify":
            op.outcomes = [checks.check_verify(op.out, op.rc)]
        elif op.kind == "path":
            e_a, e_b = (o.outcomes[0].values.get("E") for o in workload.prep)
            op.outcomes = [checks.check_path(op.out, op.rc, e_a, e_b)]
        else:
            op.outcomes = [checks.check_oracle(op.stdout, op.rc)]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        out = checks.Outcome()
        out.wrong(f"output unreadable: {type(exc).__name__}: {exc}")
        op.outcomes = [out]


# -- report ---------------------------------------------------------------

def machine_block(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        try:
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                caches[f"L{level} {kind}"] = fh.read().strip()
        except OSError:
            continue
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
            git_sha = res.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "neelwall")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu": cpu,
        "caches": caches,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(workload: Workload, rounds: list[list[Op]], setup: list[float]) -> dict:
    """Every end-to-end metric as (value or None, unit, sample count)."""
    ops = [op for r in rounds for op in r]
    outcomes = [o for op in ops for o in op.outcomes]
    by_kind = {k: [op.seconds for op in ops if op.kind == k] for k in ("verify", "path", "oracle")}
    sweeps = [sum(o.status == "ok" for o in op.outcomes) / op.seconds for op in ops if op.kind == "sweep"]
    round_s = [sum(op.seconds for op in r) for r in rounds]
    failed = sum(o.status != "ok" for o in outcomes)
    name = workload.name
    return {
        "setup_s": (_median(setup), "s", len(setup)),
        "round_s": (_median(round_s), "s", len(round_s)),
        "refine_s": (_median(round_s) if name == "refine" else None, "s", len(round_s)),
        "solves_per_s": (_median(sweeps), "1/s", len(sweeps)),
        "verify_s": (_median(by_kind["verify"]), "s", len(by_kind["verify"])),
        "certify_s": (_median(by_kind["path"]), "s", len(by_kind["path"])),
        "oracle_s": (_median(by_kind["oracle"]), "s", len(by_kind["oracle"])),
        "fail_frac": (failed / len(outcomes) if outcomes else None, "ratio", len(outcomes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


# Reported in the result line with --trace 0 (BENCHMARK.json end_to_end).
RESULT_METRICS = ("setup_s", "round_s", "peak_rss_mb")


def print_ops(label: str, ops: list[Op]) -> None:
    for op in ops:
        for o in op.outcomes:
            vals = " ".join(f"{k}={v!r}" for k, v in o.values.items())
            tag = o.status.upper()
            if o.status != "ok":
                known = known_failure(op, o.reason)
                tag += f" [{o.reason}]" + (f" (known: {known})" if known else "")
            print(f"{label} {op.kind} {o.key or op.out} {op.seconds:.4f}s rc={op.rc} {tag} {vals}")


def write_results(path: str, workload: Workload, machine: dict, metrics: dict, groups: dict) -> None:
    doc = {"workload": workload.name, "seed": workload.seed, "smoke": workload.sizes is SMOKE,
           "inputs": workload.describe(), "machine": machine, "metrics": metrics, "ops": []}
    for label, ops in groups.items():
        for op in ops:
            for o in op.outcomes:
                doc["ops"].append({"pass": label, "kind": op.kind, "key": o.key, "argv": op.argv,
                                   "seconds": op.seconds, "rc": op.rc, "status": o.status,
                                   "reason": o.reason, "known": known_failure(op, o.reason),
                                   **o.values})
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny grids, for the benchmark's own tests")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "neelwall", "cli.py")):
        print(f"error: no neelwall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import neelwall
    import neelwall.cli as cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(neelwall.__file__).startswith(SRC + os.sep):
        print(f"error: imported neelwall from {neelwall.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": import_s + warm_up(cli, args.workload, args.setup_probe)}))
        return 0

    sizes = SMOKE if args.smoke else FULL
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setup = [import_s + warm_up(cli, args.workload, os.path.join(run_dir, "setup0"))]
    if not args.trace:
        setup += [probe_setup(args.workload, run_dir, k) for k in range(1, SETUP_PROBES + 1)]

    workload = Workload(args.workload, args.seed, sizes)
    ref = checks.Reference.load(args.reference)
    workload.prepare(cli, os.path.join(run_dir, "prep"))
    tracer = None
    if args.trace:
        plain, plain_wall = run_pass(cli, workload, os.path.join(run_dir, "plain"), budget=args.seconds / 3)
        tracer = tracing.Tracer()
        tracer.install(neelwall)
        try:
            traced, traced_wall = run_pass(cli, workload, os.path.join(run_dir, "traced"),
                                           rounds=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        groups = {"untraced": [op for r in plain for op in r], "traced": [op for r in traced for op in r]}
        rounds = plain  # end-to-end figures come from the untraced pass only
    else:
        timed, _ = run_pass(cli, workload, os.path.join(run_dir, "timed"), budget=args.seconds)
        groups = {"timed": [op for r in timed for op in r]}
        rounds = timed

    for op in workload.prep:
        check_op(neelwall, workload, op, ref)
    for ops in groups.values():
        for op in ops:
            check_op(neelwall, workload, op, ref)
    outcomes = [o for ops in groups.values() for op in ops for o in op.outcomes]
    prep_outcomes = [o for op in workload.prep for o in op.outcomes]
    correct = all(o.status != "wrong" for o in outcomes + prep_outcomes)
    attempted = len(outcomes)
    failed = sum(o.status != "ok" for o in outcomes)

    machine = machine_block(args.seed)
    print(f"# neelwall benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"inputs {workload.describe()}")
    print("machine " + json.dumps(machine))
    print_ops("prep", workload.prep)
    for label, ops in groups.items():
        print_ops(label, ops)
    print(f"reference: {ref.checked} energies checked against reference.json, "
          f"{ref.unreferenced} without a converged reference")

    e2e = end_to_end(workload, rounds, setup)
    for name, (value, unit, count) in e2e.items():
        if value is None:
            print(f"metric {name} n/a ({args.workload} runs no op it measures)")
        else:
            print(f"metric {name} {value:.6g} {unit} (n={count})")
    if args.trace:
        layer = tracing.summarize(tracer, traced_wall, plain_wall)
        for name, value in layer.items():
            print(f"layer {name} {value:.10g} {tracing.PER_LAYER[name]}")
        print(f"trace: span self times add up to {layer['trace.attributed_s']:.4f} s of the traced "
              f"wall {traced_wall:.4f} s; unattributed {layer['trace.unattributed_s']:.4f} s; "
              f"overhead {100 * layer['trace.overhead_frac']:.2f} % over the untraced "
              f"{plain_wall:.4f} s")
        tracer.write(os.path.join(run_dir, "spans.jsonl.gz"))
        metrics = {name: {"value": layer[name], "unit": tracing.PER_LAYER[name]} for name in tracing.RESULT_LAYER}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in RESULT_METRICS}
    write_results(os.path.join(run_dir, "results.json"), workload, machine,
                  {k: v[0] for k, v in e2e.items()}, {"prep": workload.prep, **groups})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
