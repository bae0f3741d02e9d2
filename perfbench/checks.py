"""Output checks for the benchmark's ops.

Each check reads what one ``neelwall`` command wrote (exit code, captured
stdout, files in its output directory) and returns an ``Outcome``:

* ``ok``     -- the op did what the workload expects of it;
* ``failed`` -- the program reported a failure through its exit code and
  files (not converged, a verify check FAIL, a certificate other than
  COINCIDE, an oracle FAIL), consistently;
* ``wrong``  -- the output contradicts itself or the recorded reference
  (energy off by more than 1e-10 relative, exit code disagreeing with the
  files, a crash or usage error).

A run is ``correct`` when no op is ``wrong``; ``failed`` in the result line
counts ``failed`` and ``wrong`` ops together.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

REL_TOL = 1e-10
SWEEP_HEADER = ["nu", "h", "exchange", "potential", "stray", "total", "decay_c", "max_grad", "converged"]
PATH_POINTS = 41


@dataclass
class Outcome:
    status: str = "ok"
    reason: str = ""
    key: str = ""
    values: dict = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        if self.status == "ok":
            self.status = "failed"
        self.reason = "; ".join(r for r in (self.reason, reason) if r)

    def wrong(self, reason: str) -> None:
        self.status = "wrong"
        self.reason = "; ".join(r for r in (self.reason, reason) if r)


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Reference:
    """Recorded energies keyed by op input, from ``reference.json``."""

    def __init__(self, entries: dict | None = None):
        self.entries = entries or {}
        self.checked = 0
        self.unreferenced = 0

    @classmethod
    def load(cls, path: str) -> "Reference":
        if not os.path.exists(path):
            return cls()
        with open(path) as fh:
            return cls(json.load(fh)["entries"])

    def compare(self, key: str, energy: float, converged: bool, out: Outcome) -> None:
        """Energies of converged results must match a converged reference."""
        ref = self.entries.get(key)
        if ref is None or not (converged and ref["converged"]):
            self.unreferenced += 1
            return
        self.checked += 1
        gap = rel_gap(energy, ref["E"])
        if not gap <= REL_TOL:
            out.wrong(f"E={energy!r} differs from reference {ref['E']!r} (rel {gap:.3g} > {REL_TOL:g})")


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _exit_code(rc: int, allowed: tuple[int, ...], out: Outcome) -> bool:
    if rc not in allowed:
        out.wrong(f"exit code {rc}")
        return False
    return True


def check_solve(neelwall, out_dir: str, rc: int, key: str, ref: Reference) -> Outcome:
    """solve: exit 0 and converged; energy.json agrees with the profile."""
    out = Outcome(key=key)
    if not _exit_code(rc, (0, 2), out):
        return out
    report = _read_json(os.path.join(out_dir, "report.json"))
    total = _read_json(os.path.join(out_dir, "energy.json"))["total"]
    converged = bool(report["converged"])
    out.values = {"E": total, "converged": converged, "iterations": report["iterations"],
                  "grad": report["final_grad_norm"]}
    if converged != (rc == 0):
        out.wrong(f"exit code {rc} but converged={converged}")
    p = neelwall.load_profile(os.path.join(out_dir, "profile.txt"))
    recomputed = neelwall.energy(p, neelwall.make_operator(p.grid)).total
    if not rel_gap(recomputed, total) <= REL_TOL:
        out.wrong(f"energy.json total {total!r} but the saved profile has E={recomputed!r}")
    c = math.nan
    if p.params.nu > 0:
        try:
            c = neelwall.fit_decay(p).c_plus
        except neelwall.WindowTooNoisyError:
            pass
    out.values["c"] = c
    ref.compare(key, total, converged, out)
    if not converged:
        out.fail(
            f"not converged (exit 2, grad {report['final_grad_norm']:.3g} after "
            f"{report['iterations']} iterations)"
        )
    return out


def check_sweep(
    out_dir: str, rc: int, nus: list[float], hs: list[float], n: int, half_width: float, ref: Reference
) -> list[Outcome]:
    """sweep: one outcome per (nu, h) row of sweep.csv."""
    expected = [(nu, h) for nu in nus for h in hs]
    outcomes = [Outcome() for _ in expected]
    if rc not in (0, 2):
        for out in outcomes:
            out.wrong(f"exit code {rc}")
        return outcomes
    with open(os.path.join(out_dir, "sweep.csv")) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if header != SWEEP_HEADER or len(body) != len(expected):
        for out in outcomes:
            out.wrong(f"sweep.csv has header {header} and {len(body)} rows, expected {len(expected)}")
        return outcomes
    all_converged = True
    for (nu, h), fields, out in zip(expected, body, outcomes):
        row = dict(zip(header, fields))
        if not (rel_gap(float(row["nu"]), nu) <= 1e-11 and abs(float(row["h"]) - h) <= 1e-11):
            out.wrong(f"row for nu={row['nu']} h={row['h']}, expected nu={nu!r} h={h!r}")
            continue
        total = float(row["total"])
        parts = float(row["exchange"]) + float(row["potential"]) + float(row["stray"])
        converged = row["converged"] == "true"
        all_converged &= converged
        out.key = sweep_key(nu, h, n, half_width)
        out.values = {"E": total, "converged": converged, "c": float(row["decay_c"])}
        if not (math.isfinite(total) and abs(parts - total) <= 1e-10 * max(1.0, abs(total))):
            out.wrong(f"total {total!r} is not the sum of its parts {parts!r}")
        ref.compare(out.key, total, converged, out)
        if not converged:
            out.fail(f"nu={nu:.6g} h={h:.6g} not converged (max_grad {row['max_grad']})")
    if (rc == 0) != all_converged:
        outcomes[0].wrong(f"exit code {rc} but all rows converged={all_converged}")
    return outcomes


def check_verify(out_dir: str, rc: int) -> Outcome:
    """verify: exit 0 and every check PASS."""
    out = Outcome()
    if not _exit_code(rc, (0, 3), out):
        return out
    report = _read_json(os.path.join(out_dir, "verify.json"))
    failing = sorted(name for name, c in report["checks"].items() if not c["passed"])
    passed = bool(report["passed"])
    out.values = {"c": report["checks"].get("decay_fit", {}).get("c_plus", math.nan)}
    if passed != (rc == 0) or passed != (not failing):
        out.wrong(f"exit code {rc}, passed={passed}, failing checks {failing}")
    elif failing:
        out.fail("verify FAIL: " + ", ".join(failing))
    return out


def check_path(out_dir: str, rc: int, e_a: float, e_b: float) -> Outcome:
    """path: certificate COINCIDE, path.csv ends on the two input energies."""
    out = Outcome()
    if not _exit_code(rc, (0,), out):
        return out
    verdict = _read_json(os.path.join(out_dir, "certificate.json"))
    with open(os.path.join(out_dir, "path.csv")) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != PATH_POINTS:
        out.wrong(f"path.csv has {len(rows)} points, expected {PATH_POINTS}")
        return out
    f0, f1 = float(rows[0]["f"]), float(rows[-1]["f"])
    out.values = {"f0": f0, "f1": f1, "min_f_second": verdict["min_f_second"]}
    # t = 1 is the first profile, t = 0 the second; f is printed to 12 digits
    if not (rel_gap(f1, e_a) <= 1e-11 and rel_gap(f0, e_b) <= 1e-11):
        out.wrong(f"path ends f(1)={f1!r}, f(0)={f0!r} but inputs have E={e_a!r}, {e_b!r}")
    if verdict["verdict"] != "COINCIDE":
        out.fail(f"certificate {verdict['verdict']}")
    return out


def check_oracle(stdout: str, rc: int, tol: float = 1e-4) -> Outcome:
    """oracle: exit 0 and "oracle: PASS"; a FAIL names the gaps above tol."""
    out = Outcome()
    if not _exit_code(rc, (0, 3), out):
        return out
    lines = stdout.strip().splitlines()
    verdict = lines[-1] if lines else ""
    gaps = {}
    for line in lines[:-1]:
        name, _, value = line.rpartition(":")
        gaps[name.strip()] = float(value)
    out.values = {"worst_gap": max(gaps.values(), default=math.nan)}
    if verdict not in ("oracle: PASS", "oracle: FAIL") or (verdict == "oracle: PASS") != (rc == 0):
        out.wrong(f"exit code {rc} with verdict line {verdict!r}")
    elif rc != 0:
        over = [f"{name} {gap:.4g} > {tol:g}" for name, gap in gaps.items() if gap > tol]
        out.fail("oracle FAIL: " + ", ".join(over))
    return out


def solve_key(nu: float, h: float, n: int, half_width: float, init: str, seed: int) -> str:
    return f"solve nu={nu!r} h={h!r} n={n} L={half_width!r} init={init} seed={seed}"


def sweep_key(nu: float, h: float, n: int, half_width: float) -> str:
    return f"sweep nu={nu!r} h={h!r} n={n} L={half_width!r}"
