"""The four benchmark workloads: set-up, one timed operation, and output checks.

Each workload drives logdiff from outside the package, through the ``logdiff``
CLI entry point (``logdiff.cli.main``) or its public functions, and checks
every output against an independent reference.  ``FULL`` holds the sizes the
benchmark measures and ``SMOKE`` the smallest sizes at which the same code
paths and checks still run.

Counting: an *operation* is one CLI invocation or one public-function call
made by the benchmark (a batch of ``analyticity_report`` calls counts as
one); it fails when the CLI exits non-zero or the call raises.  An *item* is
one probe or one solve; a probe the checker refuses (``GeometryError`` /
``ParameterError`` recorded in the report's ``error`` column) and a solve
that raises ``SolverError`` are item errors, i.e. outcomes the program
reports, not crashes.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from logdiff import (
    BarenblattFD,
    Cube,
    Grid,
    Lump2D,
    QuasilinearFlux,
    SolverConfig,
    integrate,
    sample_cylinders,
    solve_porous_medium,
    solve_quasilinear,
)
from logdiff.analyticity import analyticity_report
from logdiff.cli import VERIFY_KINDS, main as cli_main
from logdiff.errors import GeometryError, ParameterError, SolverError
from logdiff.grid import read_slab, write_slab
from logdiff.limit_m import MSweepResult, check_uniform_conditions

LUMP = Lump2D(c=1.0, T=1.0)
HORIZON = 0.5

FULL = {
    "lump_cells": 64,
    "verify_cells": 64,
    "verify_levels": 129,
    "probes": 300,
    "msweep_cells": 48,
    "baren_cells": 16,
    "baren_steps": 16,
}
SMOKE = {
    "lump_cells": 16,
    "verify_cells": 16,
    "verify_levels": 17,
    "probes": 10,
    "msweep_cells": 16,
    "baren_cells": 8,
    "baren_steps": 4,
}

# Largest accepted oracle_rel_err per workload (the run fails above it): about
# twice the value measured with numpy 2.4 / scipy 1.17 on x86-64, which is
# 5.4e-5 for the 64^2 lump solve, 9.5e-5 for the 48^2 log solve in msweep,
# 1.6e-4 for the trapezoid cube masses on the 64^2 slab and 1.15e-2 for the
# 16^3 Barenblatt solves.
ORACLE_GATE = {
    "lump2d-solve": 1e-4,
    "verify-battery": 3e-4,
    "msweep": 2e-4,
    "barenblatt3d": 2.5e-2,
}
SMOKE_ORACLE_GATE = 0.1

# Report columns that hold NaN by design: the exponent m on logarithmic
# kinds, and the pointwise constants that only a family fit fills in.
NAN_BY_DESIGN = {
    "l1": {"m"},
    "energy": {"m"},
    "flux": {"m"},
    "pointwise": {"fitted_c1", "fitted_c2"},
}


@dataclass
class Rep:
    """Counts and outputs of one repetition of the timed operation."""

    operations: int = 0
    failed: int = 0
    items: int = 0
    item_errors: int = 0
    digests: dict = field(default_factory=dict)
    oracle_rel_err: float = 0.0
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _slab_digest(slab) -> str:
    meta = json.dumps(slab.meta, sort_keys=True, default=str).encode()
    return _sha(slab.times.tobytes() + slab.values.tobytes() + meta)


def _digest_outputs(out: Path, rep: Rep, prefix: str = "") -> None:
    """Digest every file one CLI command wrote to ``out``, except its run manifest,
    which holds a timestamp by design."""
    for path in sorted(out.rglob("*")):
        if path.is_file() and path != out / "manifest.json":
            rep.digests[prefix + str(path.relative_to(out))] = _sha(path.read_bytes())


def _rel_err(values, exact) -> float:
    return float(np.abs(values - exact).max() / np.abs(exact).max())


def _cli(args, rep: Rep, items: int) -> None:
    """One CLI invocation; its printed summary is kept off the benchmark's stdout."""
    rep.operations += 1
    rep.items += items
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([str(a) for a in args])
    if code != 0:
        rep.failed += 1
        rep.item_errors += items
        rep.problems.append(f"logdiff {args[0]} exited with {code}")


def _ini(path: Path, cells: int, dt: float, extra: str = "") -> None:
    path.write_text(
        f"[grid]\ndim = 2\nedge = 1.0\ncells = {cells}\n\n"
        f"[initial]\nfixture = lump2d\nc = {LUMP.c!r}\nT = {LUMP.T!r}\n\n"
        f"[solver]\nequation = log-diffusion\ndt = {dt!r}\nhorizon = {HORIZON!r}\n"
        "boundary = dirichlet-from-oracle\n" + extra
    )


def _lump_grid(cells: int) -> Grid:
    return Grid.regular(2, 1.0, 1.0 / cells)


class Workload:
    name = ""

    def __init__(self, size: dict, seed: int, smoke: bool):
        self.size = size
        self.seed = seed
        self.gate = SMOKE_ORACLE_GATE if smoke else ORACLE_GATE[self.name]

    def setup(self, work: Path, tracer) -> None:
        """Write the inputs into ``work``; repeated, so it must be idempotent."""

    def parts(self, out: Path, tracer, rep: Rep) -> list:
        """The timed operation as a list of calls that write under ``out``
        and count into ``rep``; run.py times each call."""
        raise NotImplementedError

    def check(self, out: Path, rep: Rep) -> None:
        """Untimed: digest and check the outputs of the parts."""

    def _oracle(self, rep: Rep, err: float) -> None:
        rep.oracle_rel_err = max(rep.oracle_rel_err, err)
        if not err <= self.gate:
            rep.problems.append(f"oracle_rel_err {err:.3e} exceeds {self.gate:.1e}")


class LumpSolve(Workload):
    """``logdiff solve`` of the 2D lump, Dirichlet data from the oracle, dt = 16 h^2."""

    name = "lump2d-solve"

    def setup(self, work, tracer):
        cells = self.size["lump_cells"]
        self.ini = work / "solve.ini"
        _ini(self.ini, cells, 16.0 / cells**2)

    def parts(self, out, tracer, rep):
        args = ["solve", "--config", self.ini, "--out", out, "--threads", 1]
        return [functools.partial(_cli, args, rep, 1)]

    def check(self, out, rep):
        if rep.failed:
            return
        _digest_outputs(out, rep)
        slab = read_slab(out / "slab.slab")
        steps = int(round(HORIZON * self.size["lump_cells"] ** 2 / 16.0))
        if slab.nlevels != steps + 1:
            rep.problems.append(f"solve wrote {slab.nlevels} levels, expected {steps + 1}")
        exact = LUMP.sample(slab.grid, float(slab.times[-1])).values
        self._oracle(rep, _rel_err(slab.values[-1], exact))


def lump_cube_mass(center, edge: float, t: float) -> float:
    """Exact mass of the lump over the axis-aligned square ``center +- edge/2`` at ``t``.

    The inner integral of ``(c + x^2 + y^2)^-2`` in y is closed form; the outer
    one uses 64-point Gauss-Legendre, exact to roundoff because the integrand
    is analytic on a neighbourhood of the interval.
    """
    c = LUMP.c
    nodes, weights = np.polynomial.legendre.leggauss(64)
    x0, x1 = center[0] - edge / 2, center[0] + edge / 2
    y0, y1 = center[1] - edge / 2, center[1] + edge / 2
    x = 0.5 * (x1 - x0) * nodes + 0.5 * (x1 + x0)
    a2 = c + x * x
    a = np.sqrt(a2)

    def antiderivative(y):
        return y / (2 * a2 * (a2 + y * y)) + np.arctan(y / a) / (2 * a2 * a)

    inner = antiderivative(y1) - antiderivative(y0)
    return 8 * c * (LUMP.T - t) * 0.5 * (x1 - x0) * float(weights @ inner)


class VerifyBattery(Workload):
    """All seven ``logdiff verify`` kinds plus ``analyticity_report`` on one sampled lump slab."""

    name = "verify-battery"

    def setup(self, work, tracer):
        cells, levels = self.size["verify_cells"], self.size["verify_levels"]
        grid = _lump_grid(cells)
        times = np.linspace(0.0, HORIZON, levels)
        slab = LUMP.sample_slab(grid, times)
        tracer.call("grid.write_slab", write_slab, slab, work / "lump.slab")
        self.ini = work / "verify.ini"
        _ini(
            self.ini,
            cells,
            HORIZON / (levels - 1),
            f"\n[verify]\nslab = lump.slab\ncount = {self.size['probes']}\n",
        )
        self.slab = slab
        self.probes = sample_cylinders(
            grid, times, np.random.default_rng(self.seed), self.size["probes"]
        )

    def parts(self, out, tracer, rep):
        n = self.size["probes"]
        calls = [
            functools.partial(
                _cli,
                ["verify", kind, "--config", self.ini, "--out", out / kind,
                 "--seed", self.seed, "--threads", 1],
                rep,
                n,
            )
            for kind in VERIFY_KINDS
        ]
        return calls + [functools.partial(self._analyticity, tracer, rep)]

    def _analyticity(self, tracer, rep):
        """The same probes through the analyticity workflow."""
        rep.operations += 1
        rep.items += len(self.probes)
        for center, rho, _, t1 in self.probes:
            try:
                tracer.call(
                    "analyticity.analyticity_report",
                    analyticity_report, self.slab, center, t1, rho,
                )
            except (GeometryError, ParameterError):
                rep.item_errors += 1

    def check(self, out, rep):
        for kind in VERIFY_KINDS:
            path = out / kind / "report.csv"
            if not path.is_file():
                continue
            _digest_outputs(out / kind, rep, f"{kind}/")
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != self.size["probes"]:
                rep.problems.append(f"verify {kind}: {len(rows)} rows")
            exempt = NAN_BY_DESIGN.get(kind, set()) | {"error"}
            for row in rows:
                if row["error"]:
                    rep.item_errors += 1
                    continue
                for col, cell in row.items():
                    if col in exempt:
                        continue
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    if not math.isfinite(value):
                        rep.problems.append(f"verify {kind} probe {row['probe']}: {col} = {cell}")
            if kind == "l1":
                self._check_masses(rows, rep)

    def _check_masses(self, rows, rep):
        """Trapezoid cube masses in the l1 report against the exact lump masses."""
        worst = 0.0
        for row in rows:
            if row["error"]:
                continue
            center = tuple(float(c) for c in row["center"].split(";"))
            rho = float(row["rho"])
            # the lump decays in time, so the sup over the window is at its start
            # and the inf at its end
            for got, edge, t in (
                (float(row["lhs"]), rho, float(row["t_start"])),
                (float(row["rhs_mass"]), 2.0 * rho, float(row["t_end"])),
            ):
                exact = lump_cube_mass(center, edge, t)
                worst = max(worst, abs(got - exact) / exact)
        self._oracle(rep, worst)


class MSweep(Workload):
    """``logdiff msweep`` on the lump: one log solve and four power solves as m -> 0."""

    name = "msweep"
    M_VALUES = (0.4, 0.2, 0.1, 0.05)

    def setup(self, work, tracer):
        self.ini = work / "msweep.ini"
        m_values = " ".join(repr(m) for m in self.M_VALUES)
        _ini(self.ini, self.size["msweep_cells"], 1.0 / 64, f"\n[msweep]\nm_values = {m_values}\n")

    def parts(self, out, tracer, rep):
        args = ["msweep", "--config", self.ini, "--out", out, "--threads", 1]
        return [functools.partial(_cli, args, rep, 1 + len(self.M_VALUES))]

    def check(self, out, rep):
        if rep.failed:
            return
        _digest_outputs(out, rep)
        result = MSweepResult.load(out / "msweep")
        failed = [e.m for e in result.entries if not e.ok]
        rep.item_errors += len(failed)
        if failed:
            rep.problems.append(f"msweep solves failed at m = {failed}")
        dists = [e.l1_distance for e in result.entries]
        if not all(b < a for a, b in zip(dists, dists[1:])):
            rep.problems.append(f"msweep L1 distances not strictly decreasing: {dists}")
        verdict = check_uniform_conditions(result, r=2.0, p=5.0).verdict
        if verdict != "bounded":
            rep.problems.append(f"msweep uniform conditions read {verdict!r}")
        log_slab = result.log_slab
        exact = LUMP.sample(log_slab.grid, float(log_slab.times[-1])).values
        self._oracle(rep, _rel_err(log_slab.values[-1], exact))


class Barenblatt3D(Workload):
    """Three 3D solves of the time-dilated Barenblatt profile, m = 0.5, dt = 4 h^2."""

    name = "barenblatt3d"
    M = 0.5

    def setup(self, work, tracer):
        cells = self.size["baren_cells"]
        self.grid = Grid.regular(3, 1.0, 1.0 / cells)
        self.sol = BarenblattFD(m=self.M)
        dt = 4.0 / cells**2
        self.horizon = self.size["baren_steps"] * dt
        self.initial = self.sol.sample(self.grid, 0.0)
        self.dirichlet = SolverConfig(dt=dt, boundary_values=self.sol)
        self.neumann = SolverConfig(dt=dt, boundary="neumann-zero-flux")
        self.flux = QuasilinearFlux("diagonal-perturbed", m=self.M, a=(1.0, 1.0, 1.0))

    def parts(self, out, tracer, rep):
        self.slabs = {}
        solves = (
            ("pme-dirichlet", "solvers.solve_porous_medium", solve_porous_medium,
             (self.initial, self.M, self.dirichlet, self.horizon)),
            ("flux-dirichlet", "solvers.solve_quasilinear", solve_quasilinear,
             (self.initial, self.flux, self.dirichlet, self.horizon)),
            ("flux-neumann", "solvers.solve_quasilinear", solve_quasilinear,
             (self.initial, self.flux, self.neumann, self.horizon)),
        )
        return [functools.partial(self._solve, *solve, tracer, rep) for solve in solves]

    def _solve(self, label, name, fn, args, tracer, rep):
        rep.operations += 1
        rep.items += 1
        try:
            self.slabs[label] = tracer.call(name, fn, *args)
        except SolverError as exc:
            rep.failed += 1
            rep.item_errors += 1
            rep.problems.append(f"{label}: {exc}")

    def check(self, out, rep):
        exact = self.sol.sample(self.grid, self.horizon).values
        for label, slab in self.slabs.items():
            rep.digests[label] = _slab_digest(slab)
            if label.endswith("dirichlet"):
                self._oracle(rep, _rel_err(slab.values[-1], exact))
        if "flux-neumann" in self.slabs:
            # reported, not gated: the flux-form engine's Neumann corner weights
            # do not conserve the trapezoid mass
            slab = self.slabs["flux-neumann"]
            whole = Cube(self.grid.center, self.grid.edge)
            m0 = integrate(slab.values[0], self.grid, whole)
            m1 = integrate(slab.values[-1], self.grid, whole)
            rep.values["neumann_mass_drift"] = abs(m1 - m0) / m0
        self.slabs = {}


WORKLOADS = {w.name: w for w in (LumpSolve, VerifyBattery, MSweep, Barenblatt3D)}
