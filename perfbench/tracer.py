"""Outside-in span tracer for the neelwall benchmark.

Spans are made without touching the package source: every public function
of a layer module is rebound, at each module attribute where it is looked
up, to a wrapper that records a span around the original call. Because the
package calls its own functions through module globals (``solver.minimize``
calls ``energy_gradient`` through ``neelwall.solver.energy_gradient``), the
rebinding also catches calls made inside the package. Two foreign entry
points are wrapped the same way:

* ``scipy.optimize.minimize`` as seen by ``neelwall.solver`` (span
  ``solver.lbfgs``), through a forwarding view bound to ``solver.scipy``;
* ``numpy.fft.rfft`` / ``numpy.fft.irfft`` in this process (span
  ``<layer>.fft``, named after the layer of the calling span).

Spans live in memory as ``[name, parent, start, end, op, attrs]`` lists and
are aggregated or written out when the run ends. A span's self time is its
duration minus the durations of its direct children; self times of all spans
therefore add up to the durations of the root spans (one per benchmark op).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("cli", "solver", "energy", "halflap", "model", "analysis", "greenfn", "path")

NAME, PARENT, START, END, OP, ATTRS = range(6)


class _Forward:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _solve_attrs(result):
    p, report = result
    return {"n": p.grid.n, "iterations": report.iterations, "converged": report.converged}


def _lbfgs_attrs(result):
    return {"nit": int(result.nit), "nfev": int(result.nfev)}


def _operator_attrs(result):
    return {"padded_len": int(result.padded_len)}


ATTR_HOOKS = {
    "solver.minimize": _solve_attrs,
    "solver.lbfgs": _lbfgs_attrs,
    "halflap.make_operator": _operator_attrs,
}


class Tracer:
    """Collects spans while installed; ``span()`` opens a harness span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.spans[idx][ATTRS] = hook(result)
            return result

        return traced

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = tracer.spans[tracer._stack[-1]][NAME] if tracer._stack else "bench"
            layer = caller.split(".", 1)[0]
            idx = tracer._open(layer + ".fft")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            # the real-space (padded) length: input of rfft, output of irfft
            padded = args[0] if fn.__name__ == "rfft" else result
            tracer.spans[idx][ATTRS] = {"len": int(padded.shape[-1])}
            return result

        return traced

    # -- installation -----------------------------------------------------
    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, package) -> None:
        """Rebind the public functions of every layer module of ``package``."""
        import numpy

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        homes = {mod.__name__: layer for layer, mod in modules.items()}
        wrapped: dict[object, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = homes.get(obj.__module__)
                if home is None:
                    continue
                if obj not in wrapped:
                    fname = obj.__name__
                    if home == "cli" and fname.startswith("cmd_"):
                        fname = fname[4:]
                    name = f"{home}.{fname}"
                    wrapped[obj] = self._wrap(name, obj, ATTR_HOOKS.get(name))
                self._patch(mod, attr, wrapped[obj])
        solver = modules["solver"]
        scipy_mod = getattr(solver, "scipy", None)
        if scipy_mod is not None:
            lbfgs = self._wrap("solver.lbfgs", scipy_mod.optimize.minimize, ATTR_HOOKS["solver.lbfgs"])
            view = _Forward(scipy_mod, optimize=_Forward(scipy_mod.optimize, minimize=lbfgs))
            self._patch(solver, "scipy", view)
        for fname in ("rfft", "irfft"):
            self._patch(numpy.fft, fname, self._wrap_fft(getattr(numpy.fft, fname)))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results ----------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "parent": s[PARENT],
                            "op": s[OP],
                            "start": s[START],
                            "end": s[END],
                            "attrs": s[ATTRS],
                        }
                    )
                    + "\n"
                )


RUNG_SIZES = (1025, 2049, 4097, 8193)
CLI_COMMANDS = ("solve", "verify", "path", "sweep", "oracle")

# Every per-layer metric the traced run prints, with its unit. BENCHMARK.json
# lists the same names.
PER_LAYER: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.self_s": "s",
    "solver.iterations": "count",
    **{f"solver.iterations.n{n}": "count" for n in RUNG_SIZES},
    **{f"solver.minimize_s.n{n}": "s" for n in RUNG_SIZES},
    "solver.minimize.calls": "count",
    "solver.evals": "count",
    "solver.evals_per_iter": "ratio",
    "solver.lbfgs_runs": "count",
    "solver.lbfgs.self_s": "s",
    "solver.lbfgs.s_per_iter": "s",
    "energy.energy.calls": "count",
    "energy.energy_gradient.calls": "count",
    "energy.eval_us": "us",
    "energy.el_residual.self_s": "s",
    "halflap.fft.calls": "count",
    "halflap.fft.self_s": "s",
    "halflap.fft.us_per_call": "us",
    "halflap.padded_len": "count",
    "halflap.apply_spectral.calls": "count",
    "halflap.apply_spectral.self_s": "s",
    "halflap.apply_spectral.us_per_call": "us",
    "halflap.pairing.calls": "count",
    "halflap.pairing.self_s": "s",
    "halflap.pairing.us_per_call": "us",
    "halflap.apply_quadrature.self_s": "s",
    "halflap.seminorm.self_s": "s",
    "analysis.check_bounds.self_s": "s",
    "analysis.fit_decay.self_s": "s",
    "analysis.tail_decay_check.self_s": "s",
    "analysis.stray_field_crosscheck.self_s": "s",
    "greenfn.fft.calls": "count",
    "greenfn.fold.self_s": "s",
    "greenfn.reconstruct.self_s": "s",
    "greenfn.decay_prediction.self_s": "s",
    "path.path_scan.calls": "count",
    "path.path_scan.self_s": "s",
    "path.uniqueness_certificate.self_s": "s",
    "model.recenter.self_s": "s",
    "model.save_profile.self_s": "s",
    "model.load_profile.self_s": "s",
    "cli.main.self_s": "s",
    **{f"cli.{cmd}.self_s": "s" for cmd in CLI_COMMANDS},
    **{f"cli.{cmd}.median_s": "s" for cmd in CLI_COMMANDS},
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.attributed_s": "s",
    "trace.unattributed_s": "s",
}

# Times every workload produces. Other times read 0 wherever a workload does
# not use the layer (solver on certify, path and greenfn on refine and sweep);
# they are printed as `layer` lines but left out of the result line, where a
# time that reads the same on every run is not a measurement. Counts and
# ratios are all in the result line: a count that repeats exactly, 0
# included, is a measurement.
EVERY_WORKLOAD_TIMES = {
    "cli.self_s", "energy.self_s", "halflap.self_s", "model.self_s", "bench.self_s",
    "cli.main.self_s", "model.recenter.self_s",
    "halflap.fft.self_s", "halflap.fft.us_per_call",
    "halflap.apply_spectral.self_s", "halflap.apply_spectral.us_per_call",
    "halflap.pairing.self_s", "halflap.pairing.us_per_call",
    "trace.wall_s", "trace.untraced_wall_s", "trace.attributed_s", "trace.unattributed_s",
}
RESULT_LAYER = [name for name, unit in PER_LAYER.items() if unit not in ("s", "us") or name in EVERY_WORKLOAD_TIMES]

# Span names whose metric name differs from the span name.
_ALIASES = {"halflap.seminorm": "halflap.seminorm_double_integral"}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(tracer: Tracer, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``wall_s`` is the traced pass's wall time and ``untraced_wall_s`` the wall
    time of the same ops run untraced; the remainder of ``wall_s`` not covered
    by span self times is reported as ``trace.unattributed_s``.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for s, st in zip(spans, selfs):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        durations.setdefault(name, []).append(s[END] - s[START])

    def c(name):
        return float(calls.get(_ALIASES.get(name, name), 0))

    def st(name):
        return self_s.get(_ALIASES.get(name, name), 0.0)

    def per_call_us(name):
        return 1e6 * st(name) / c(name) if c(name) else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    minimize = [s for s in spans if s[NAME] == "solver.minimize" and s[ATTRS]]
    m["solver.iterations"] = float(sum(s[ATTRS]["iterations"] for s in minimize))
    for n in RUNG_SIZES:
        at_n = [s for s in minimize if s[ATTRS]["n"] == n]
        m[f"solver.iterations.n{n}"] = float(sum(s[ATTRS]["iterations"] for s in at_n))
        m[f"solver.minimize_s.n{n}"] = _median([s[END] - s[START] for s in at_n])
    m["solver.minimize.calls"] = c("solver.minimize")
    lbfgs = [s for s in spans if s[NAME] == "solver.lbfgs" and s[ATTRS]]
    nit = sum(s[ATTRS]["nit"] for s in lbfgs)
    m["solver.evals"] = float(sum(s[ATTRS]["nfev"] for s in lbfgs))
    m["solver.evals_per_iter"] = m["solver.evals"] / nit if nit else 0.0
    m["solver.lbfgs_runs"] = float(len(lbfgs))
    m["solver.lbfgs.self_s"] = st("solver.lbfgs")
    m["solver.lbfgs.s_per_iter"] = st("solver.lbfgs") / nit if nit else 0.0

    m["energy.energy.calls"] = c("energy.energy")
    m["energy.energy_gradient.calls"] = c("energy.energy_gradient")
    # one evaluation = the energy and gradient calls made by one L-BFGS step
    lbfgs_ids = {i for i, s in enumerate(spans) if s[NAME] == "solver.lbfgs"}
    eval_time = 0.0
    eval_count = 0
    for s in spans:
        if s[PARENT] in lbfgs_ids and s[NAME] in ("energy.energy", "energy.energy_gradient"):
            eval_time += s[END] - s[START]
            eval_count += s[NAME] == "energy.energy_gradient"
    m["energy.eval_us"] = 1e6 * eval_time / eval_count if eval_count else 0.0
    m["energy.el_residual.self_s"] = st("energy.el_residual")

    m["halflap.fft.calls"] = c("halflap.fft")
    m["halflap.fft.self_s"] = st("halflap.fft")
    ops = [s for s in spans if s[NAME] == "halflap.make_operator" and s[ATTRS]]
    padded = max((s[ATTRS]["padded_len"] for s in ops), default=0)
    m["halflap.padded_len"] = float(padded)
    # FFT cost at the largest padded length the workload transforms
    at_len = [st for s, st in zip(spans, selfs) if s[NAME] == "halflap.fft" and s[ATTRS]["len"] == padded]
    m["halflap.fft.us_per_call"] = 1e6 * sum(at_len) / len(at_len) if at_len else 0.0
    for fn in ("apply_spectral", "pairing"):
        m[f"halflap.{fn}.calls"] = c(f"halflap.{fn}")
        m[f"halflap.{fn}.self_s"] = st(f"halflap.{fn}")
        m[f"halflap.{fn}.us_per_call"] = per_call_us(f"halflap.{fn}")
    m["greenfn.fft.calls"] = c("greenfn.fft")
    m["path.path_scan.calls"] = c("path.path_scan")
    for name in PER_LAYER:
        if name not in m and name.endswith(".self_s"):
            m[name] = st(name[: -len(".self_s")])
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.median_s"] = _median(durations.get(f"cli.{cmd}", []))

    attributed = sum(selfs)
    m["trace.spans"] = float(len(spans))
    m["trace.wall_s"] = wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_frac"] = wall_s / untraced_wall_s - 1.0 if untraced_wall_s else 0.0
    m["trace.attributed_s"] = attributed
    m["trace.unattributed_s"] = wall_s - attributed
    return {name: m[name] for name in PER_LAYER}
