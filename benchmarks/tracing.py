"""Spans around calls into logdiff's modules, and the per-layer metrics built from them.

The package itself is not instrumented.  Instead, :func:`install` replaces
each public function one logdiff module imports from another with a
recording wrapper under the name the caller binds it to (for example
``logdiff.harnack.integrate`` and ``logdiff.cli.read_slab``), and
:func:`uninstall` puts the originals back.  Calls a module makes to its own
functions are therefore not split, and a span's name is ``<layer>.<function>``
of the module that defines the function.

A span records its name, start, end, parent span, the benchmark repetition
it ran in, the exception type it raised and optional per-call counters.
Spans stay in memory until the run ends.  Parents come from one stack shared
by all threads, which is exact because the benchmark runs ``verify`` with a
single worker thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

# Modules whose public functions become spans when another logdiff module calls them.
LAYERS = (
    "solvers",
    "oracles",
    "grid",
    "functionals",
    "harnack",
    "analyticity",
    "limit_m",
    "reporting",
)
CALLERS = ("cli",) + LAYERS

SOLVES = ("solve_log_diffusion", "solve_porous_medium", "solve_quasilinear")
CHECKS = (
    "check_l1_harnack",
    "check_l1_harnack_pme",
    "check_pointwise_harnack",
    "check_energy_lemma",
    "check_energy_lemma_pme",
    "check_flux_corollary",
    "distributional_identity_check",
)
COMMANDS = ("solve", "verify", "msweep")

# Span names the per-layer metrics read; install() fails if one has no binding.
REQUIRED = (
    {f"solvers.{f}" for f in SOLVES}
    | {f"harnack.{f}" for f in CHECKS}
    | {f"cli.{c}" for c in COMMANDS}
    | {
        "oracles.eval",
        "oracles.sample_slab",
        "grid.read_slab",
        "grid.write_slab",
        "grid.integrate",
        "functionals.functional_set",
        "limit_m.run_m_sweep",
        "limit_m.save",
        "reporting.write_csv",
    }
)


class Span:
    __slots__ = ("name", "parent", "rep", "start", "end", "child", "error", "counts")

    def __init__(self, name, parent, rep):
        self.name = name
        self.parent = parent
        self.rep = rep
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0  # time covered by child spans
        self.error = None
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """In-memory span store; ``rep`` tags each span with its repetition."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep = None
        self._stack: list[int] = []
        self._patches: list = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self._run(name, fn, _COUNTERS.get(name), args, kwargs)

    def _run(self, name, fn, counter, args, kwargs):
        span = Span(name, self._stack[-1] if self._stack else -1, self.rep)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child += span.duration
        if counter is not None:
            span.counts = counter(args, out)
        return out

    def _patch(self, owner, attr, name, counter=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._run(name, original, counter, args, kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        """Wrap every cross-module logdiff binding, the CLI commands and the oracle methods."""
        from logdiff import cli, limit_m, oracles, solvers

        names = set()
        for caller, attr, name in bindings():
            self._patch(caller, attr, name, _COUNTERS.get(name))
            names.add(name)
        for command in COMMANDS:
            self._patch(cli, f"cmd_{command}", f"cli.{command}")
            names.add(f"cli.{command}")
        for cls in oracles.FIXTURES.values():
            self._patch(cls, "eval", "oracles.eval")
        self._patch(oracles.ExactSolution, "sample_slab", "oracles.sample_slab")
        self._patch(limit_m.MSweepResult, "save", "limit_m.save")
        names |= {"oracles.eval", "oracles.sample_slab", "limit_m.save"}
        if hasattr(solvers, "spsolve"):
            self._patch(solvers, "spsolve", "solvers.spsolve")
        missing = REQUIRED - names
        if missing:
            self.uninstall()
            raise RuntimeError(f"no logdiff binding to trace for {sorted(missing)}")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class NullTracer:
    """Stands in for :class:`Tracer` in untraced repetitions."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def bindings():
    """``(caller module, bound name, span name)`` for each public logdiff function
    that one logdiff module imports from another."""
    out = []
    for caller_name in CALLERS:
        caller = importlib.import_module(f"logdiff.{caller_name}")
        for attr, obj in sorted(vars(caller).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            package, _, layer = obj.__module__.rpartition(".")
            if package == "logdiff" and layer in LAYERS and layer != caller_name:
                out.append((caller, attr, f"{layer}.{obj.__name__}"))
    return out


def _slab_counts(args, slab):
    return {
        "newton_iters": int(slab.meta.get("newton_iters", 0)),
        "steps": slab.nlevels - 1,
        "floor_triggers": int(slab.meta.get("floor_triggers", 0)),
    }


def _slab_file_bytes(args, out):
    path = args[0] if isinstance(args[0], (str, os.PathLike)) else args[1]
    return {"bytes": os.path.getsize(path)}


def _csv_rows(args, out):
    return {"rows": len(args[1])}


_COUNTERS = {
    **{f"solvers.{f}": _slab_counts for f in SOLVES},
    "grid.read_slab": _slab_file_bytes,
    "grid.write_slab": _slab_file_bytes,
    "reporting.write_csv": _csv_rows,
}


class _Reduce:
    """Per-repetition sums, medians over repetitions, percentiles over calls.

    A layer's cost per run unit is the median over the traced setup
    repetitions plus the median over the traced timed repetitions, so work a
    layer does in set-up (sampling and writing the input slab) is counted
    once, next to the work it does per timed operation.
    """

    def __init__(self, tracer: Tracer, reps):
        self.reps = reps
        self.by_rep = {rep: {} for rep in reps}
        for span in tracer.spans:
            if span.rep in self.by_rep:
                self.by_rep[span.rep].setdefault(span.name, []).append(span)

    def total(self, match, quantity, keep=None):
        """Sum of ``quantity`` over the spans whose name ``match``es (and that ``keep`` accepts)."""
        out = 0.0
        for phase in ("setup", "op"):
            per_rep = [
                sum(
                    quantity(s)
                    for name, spans in self.by_rep[rep].items()
                    if match(name)
                    for s in spans
                    if keep is None or keep(s)
                )
                for rep in self.reps
                if rep[0] == phase
            ]
            if per_rep:
                out += float(np.median(per_rep))
        return out

    def durations_ms(self, name):
        return [1e3 * s.duration for rep in self.reps for s in self.by_rep[rep].get(name, ())]


def _named(name):
    return lambda n: n == name


def _prefixed(prefix):
    return lambda n: n.startswith(prefix)


def _count(key):
    return lambda s: (s.counts or {}).get(key, 0)


def _one(s):
    return 1


def _dur(s):
    return s.duration


def _self(s):
    return s.self_time


def _errors(s):
    return 1 if s.error else 0


def _pcts(ms):
    if not ms:
        return 0.0, 0.0
    p50, p99 = np.percentile(ms, [50, 99])
    return float(p50), float(p99)


def layer_metrics(tracer: Tracer, reps) -> dict:
    """Per-layer metrics ``name -> (value, unit)`` from the spans of ``reps``."""
    r = _Reduce(tracer, reps)
    m = {}
    solver = _prefixed("solvers.solve_")
    for f in SOLVES:
        m[f"solvers.{f}.s"] = (r.total(_named(f"solvers.{f}"), _dur), "s")
    iters = r.total(solver, _count("newton_iters"))
    m["solvers.newton_iters"] = (iters, "count")
    m["solvers.steps"] = (r.total(solver, _count("steps")), "count")
    solve_s = r.total(solver, _dur)
    m["solvers.s_per_newton_iter"] = (solve_s / iters if iters else 0.0, "s")
    m["solvers.floor_triggers"] = (r.total(solver, _count("floor_triggers")), "count")
    m["solvers.failures"] = (r.total(solver, _errors), "count")
    m["solvers.spsolve.calls"] = (r.total(_named("solvers.spsolve"), _one), "count")
    m["solvers.spsolve.s"] = (r.total(_named("solvers.spsolve"), _dur), "s")

    spans = tracer.spans
    eval_ = _named("oracles.eval")

    def from_solver(s):
        return s.parent >= 0 and spans[s.parent].name.startswith("solvers.solve_")

    m["oracles.boundary_eval.calls"] = (r.total(eval_, _one, from_solver), "count")
    m["oracles.boundary_eval.s"] = (r.total(eval_, _dur, from_solver), "s")
    m["oracles.sample_slab.s"] = (r.total(_named("oracles.sample_slab"), _dur), "s")

    slab_io = lambda n: n in ("grid.read_slab", "grid.write_slab")  # noqa: E731
    m["grid.read_slab.s"] = (r.total(_named("grid.read_slab"), _dur), "s")
    m["grid.write_slab.s"] = (r.total(_named("grid.write_slab"), _dur), "s")
    m["grid.slab_bytes"] = (r.total(slab_io, _count("bytes")), "B")
    m["grid.integrate.calls"] = (r.total(_named("grid.integrate"), _one), "count")
    m["grid.integrate.s"] = (r.total(_named("grid.integrate"), _dur), "s")

    functional = _prefixed("functionals.")
    m["functionals.calls"] = (r.total(functional, _one), "count")
    m["functionals.s"] = (r.total(functional, _dur), "s")
    m["functionals.functional_set.s"] = (
        r.total(_named("functionals.functional_set"), _dur),
        "s",
    )

    for f in CHECKS:
        name = f"harnack.{f}"
        p50, p99 = _pcts(r.durations_ms(name))
        m[f"{name}.ms_p50"] = (p50, "ms")
        m[f"{name}.ms_p99"] = (p99, "ms")
        m[f"{name}.self_ms"] = (1e3 * r.total(_named(name), _self), "ms")
        m[f"{name}.errors"] = (r.total(_named(name), _errors), "count")

    name = "analyticity.analyticity_report"
    p50, p99 = _pcts(r.durations_ms(name))
    m[f"{name}.ms_p50"] = (p50, "ms")
    m[f"{name}.ms_p99"] = (p99, "ms")
    m[f"{name}.errors"] = (r.total(_named(name), _errors), "count")

    m["limit_m.run_m_sweep.self_s"] = (
        r.total(_named("limit_m.run_m_sweep"), _self),
        "s",
    )
    m["limit_m.save.s"] = (r.total(_named("limit_m.save"), _dur), "s")
    for c in COMMANDS:
        m[f"cli.{c}.self_s"] = (r.total(_named(f"cli.{c}"), _self), "s")
    m["reporting.write_csv.s"] = (r.total(_named("reporting.write_csv"), _dur), "s")
    m["reporting.rows"] = (r.total(_named("reporting.write_csv"), _count("rows")), "count")
    return m
