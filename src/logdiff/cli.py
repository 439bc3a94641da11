"""Experiment runner: solve, verify, msweep, and oracle-check subcommands.

Configuration is a single INI file; every recognized key, including applied
defaults, is echoed into the run manifest so a run is self-describing, and a
section or key that no command reads, an ``[initial]`` parameter that the
chosen fixture does not take, a ``[verify] count`` below 1, and ``center``,
``rho`` or ``window`` (which place one explicit probe) with ``count`` above 1
are config errors.  CSV outputs are byte-identical across reruns with the same
config and seed: probe placement is seeded, probes run one after another in one
thread, and floats are serialized with ``repr``.  ``--threads`` is accepted and
recorded in the manifest but starts no workers: the checkers hold the interpreter
lock, so worker threads only add contention.  Column sets are documented in
``schema/columns.md`` shipped inside the package.

``[solver] equation`` names the one flux that both ``solve`` and ``verify
flux`` use: ``log-diffusion``, ``pme`` (``m`` required) or ``quasilinear``, the
diagonal-perturbed flux with ``m`` and one constant ``a`` per axis (default
ones).  A list-valued key holds as many values as its reader needs, two for a
``window`` and one per grid axis for a ``center`` or ``a``; another number is
a config error.
``[solver] m`` defaults to 0.2 wherever it is read: by ``quasilinear`` and, unless
``[verify] m`` is set, by the pme verify kinds.

Exit codes: 0 success, 2 config error (a ``[solver]`` control out of range, and
``--meshes`` below 2 cells or repeated, among them), 3 solver failure (stderr
names the failing step and its Newton residual max-norms), 4 I/O error (a slab
that cannot be read; an output that cannot be written, caught before any work).
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import errno
import hashlib
import math
import os
import sys
from collections import Counter
from dataclasses import fields as dc_fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, GeometryError, ParameterError, SolverError
from .grid import Cube, Cutoff, Grid, read_slab, write_slab
from .oracles import FIXTURES, build_fixture, fit_order, residual_check
from .solvers import QuasilinearFlux, SolverConfig, solve_quasilinear
from .harnack import (
    DistributionalCheck,
    EnergyReport,
    FluxReport,
    HarnackReport,
    PointwiseHarnackReport,
    _attempt,
    check_flux_corollary,
    check_pointwise_harnack,
    distributional_identity_check,
    energy_lemma_batch,
    energy_lemma_pme_batch,
    flux_corollary_batch,
    l1_harnack_batch,
    l1_harnack_pme_batch,
    sample_cylinders,
)
from .limit_m import run_m_sweep
from .reporting import write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

class ConfigProblem(Exception):
    """Anything wrong with the config file or its values."""


def _parse_floats(raw: str, n: int | None = None) -> tuple:
    """A list of floats, of length ``n`` if given."""
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    if n is not None and len(parts) != n:
        raise ValueError(f"need {n} values, got {len(parts)}")
    return tuple(float(p) for p in parts)


class Cfg:
    """Config accessor that records every effective value for the manifest."""

    def __init__(self, cp: configparser.ConfigParser, base_dir: Path):
        self.cp = cp
        self.base_dir = base_dir
        self.echo: dict = {}

    def _record(self, section: str, key: str, value):
        out = value
        if isinstance(out, tuple):
            out = list(out)
        self.echo.setdefault(section, {})[key] = out

    def get(self, section: str, key: str, default=None, cast=str, required=False):
        assert key in _KNOWN_KEYS.get(section, ()), f"[{section}] {key} is not in _KNOWN_KEYS"
        if self.cp.has_option(section, key):
            raw = self.cp.get(section, key)
            try:
                value = cast(raw)
            except ValueError as exc:
                raise ConfigProblem(f"bad value for [{section}] {key}: {exc}")
        elif required:
            raise ConfigProblem(f"missing required config key [{section}] {key}")
        else:
            value = default
        self._record(section, key, value)
        return value

    def path(self, section: str, key: str, required=False):
        """A path value resolved against the config file's directory."""
        raw = self.get(section, key, default=None, cast=str, required=required)
        if raw is None:
            return None
        p = Path(raw)
        return p if p.is_absolute() else self.base_dir / p


def load_config(path) -> Cfg:
    p = Path(path)
    if not p.is_file():
        raise ConfigProblem(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        cp.read_string(p.read_text())
    except configparser.Error as exc:
        raise ConfigProblem(f"config parse error: {exc}")
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigProblem(f"unknown config section [{section}]")
        unknown = sorted(set(cp.options(section)) - _KNOWN_KEYS[section])
        if unknown:
            raise ConfigProblem(f"unknown config key(s) in [{section}]: {', '.join(unknown)}")
    return Cfg(cp, p.parent.resolve())


def _config_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def _build_grid(cfg: Cfg) -> Grid:
    dim = cfg.get("grid", "dim", 2, int)
    edge = cfg.get("grid", "edge", 1.0, float)
    cells = cfg.get("grid", "cells", 64, int)
    if cells < 2:
        raise ConfigProblem("[grid] cells must be >= 2")
    center = cfg.get("grid", "center", (0.0,) * dim, lambda raw: _parse_floats(raw, dim))
    return Grid.regular(dim, edge, edge / cells, center)


# each fixture's [initial] keys: its dataclass fields, a list where the default is one
_FIXTURE_PARAMS = {
    name: {f.name: _parse_floats if isinstance(f.default, tuple) else float for f in dc_fields(cls)}
    for name, cls in FIXTURES.items()
}

# every key some command reads (Cfg.get asserts it), by section; others are rejected
_KNOWN_KEYS = {
    "grid": {"dim", "edge", "cells", "center"},
    "initial": {"fixture", "t0"}.union(*_FIXTURE_PARAMS.values()),
    "solver": {"equation", "boundary", "dt", "horizon", "newton_tol", "newton_max_iter",
               "max_damping", "m", "a"},
    "verify": {"slab", "count", "center", "rho", "window", "sigma", "m", "q", "p", "r",
               "eps"},
    "msweep": {"m_values", "rho", "window", "e_o_edge", "q", "p", "r", "eps", "sigma"},
}


def _fixture_params(cfg: Cfg, name: str) -> dict:
    """The ``[initial]`` parameters of fixture ``name`` that the config sets;
    a parameter that only other fixtures take is a config error."""
    takes = _FIXTURE_PARAMS.get(name, {})
    others = set().union(*_FIXTURE_PARAMS.values()) - set(takes)
    foreign = sorted(key for key in others if cfg.cp.has_option("initial", key))
    if foreign and name in _FIXTURE_PARAMS:  # an unknown name is build_fixture's error
        raise ConfigProblem(
            f"[initial] {', '.join(foreign)}: not a parameter of fixture {name!r}"
        )
    return {
        key: cfg.get("initial", key, cast=cast)
        for key, cast in takes.items()
        if cfg.cp.has_option("initial", key)
    }


def _build_initial(cfg: Cfg, grid: Grid):
    """Returns (field, fixture) for the configured initial data."""
    name = cfg.get("initial", "fixture", "lump2d", str)
    t0 = cfg.get("initial", "t0", 0.0, float)
    sol = build_fixture(name, **_fixture_params(cfg, name))
    return sol.sample(grid, t0), sol


def _build_solver_config(cfg: Cfg, fixture) -> SolverConfig:
    return SolverConfig(
        dt=cfg.get("solver", "dt", required=True, cast=float),
        newton_tol=cfg.get("solver", "newton_tol", 1e-10, float),
        newton_max_iter=cfg.get("solver", "newton_max_iter", 25, int),
        max_damping=cfg.get("solver", "max_damping", 30, int),
        boundary=cfg.get("solver", "boundary", "dirichlet-from-oracle", str),
        boundary_values=fixture,
    )


def _finite_float(raw: str) -> float:
    """A float that is neither NaN nor infinite."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw.strip()}")
    return value


def _probe_constants(cfg: Cfg, section: str, dim: int) -> dict:
    """The probe constants that [verify] and [msweep] both read, with their one default;
    each must be finite, and ``p`` defaults to ``max(5, N + 3)``, as the pointwise bound
    needs ``p > N + 2``."""
    defaults = {"sigma": 0.5, "q": 2.0, "p": max(5.0, dim + 3.0), "r": 2.0, "eps": 0.1}
    return {k: cfg.get(section, k, v, _finite_float) for k, v in defaults.items()}


def _solver_m(cfg: Cfg, required=False) -> float:
    """``[solver] m``, the one reading of it and its one default."""
    return cfg.get("solver", "m", 0.2, float, required=required)


def _build_flux(cfg: Cfg, grid: Grid) -> QuasilinearFlux:
    """The flux that ``[solver] equation`` names (module docstring), with one
    coefficient per axis of ``grid``."""
    equation = cfg.get("solver", "equation", "log-diffusion", str)
    if equation == "log-diffusion":
        return QuasilinearFlux("log-diffusion")
    if equation == "pme":
        return QuasilinearFlux("pme", m=_solver_m(cfg, required=True))
    if equation != "quasilinear":
        raise ConfigProblem(f"unknown [solver] equation {equation!r}")
    a = cfg.get("solver", "a", (1.0,) * grid.dim, lambda raw: _parse_floats(raw, grid.dim))
    return QuasilinearFlux("diagonal-perturbed", m=_solver_m(cfg), a=a, c_o=min(a), c_1=max(a))


def _manifest(out_dir: Path, command: str, run_id: str, cfg_echo: dict, threads: int, seed: int):
    files = sorted(
        str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file()
    )
    files.append("manifest.json")
    payload = {
        "run_id": run_id,
        "command": command,
        "config": cfg_echo,
        "threads": threads,
        "seed": seed,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "files": sorted(set(files)),
    }
    write_json(out_dir / "manifest.json", payload)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    grid = _build_grid(cfg)
    initial, fixture = _build_initial(cfg, grid)
    solver_cfg = _build_solver_config(cfg, fixture)
    flux = _build_flux(cfg, grid)
    horizon = cfg.get("solver", "horizon", required=True, cast=float)
    slab = solve_quasilinear(initial, flux, solver_cfg, horizon)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_slab(slab, out / "slab.slab")
    meta_echo = {
        k: v for k, v in slab.meta.items() if isinstance(v, (int, float, str, bool, list))
    }
    cfg.echo["result"] = {"meta": meta_echo, "nlevels": slab.nlevels}
    _manifest(out, "solve", _config_hash(args.config), cfg.echo, args.threads, args.seed)
    meta = slab.meta
    print(
        f"solve: wrote {out / 'slab.slab'} ({slab.nlevels} levels; {meta['newton_iters']} Newton, "
        f"{meta['linear_iters']} PCG iterations, {meta['linear_cap_hits']} linear cap hits)"
    )
    return EXIT_OK


def _each(check):
    """A batch that runs ``check(slab, center, rho, window, opts)`` probe by probe."""
    return lambda s, probes, o: [_attempt(check, s, *probe, o) for probe in probes]


# verify kind -> (report class, radius scale for sampled probes, batch).  A batch
# takes (slab, probes, opts), probes a list of (center, rho, window) and opts the
# [verify] values, and returns per probe its report or the GeometryError or
# ParameterError it raised.  The l1, energy and flux kinds read their statistics
# in one sweep per batch.  Sampled radii shrink where the check needs room around
# the probe (8x cube for pointwise, 4x for energy), keeping every cube mesh-aligned.
_VERIFY = {
    "l1": (HarnackReport, 1.0, lambda s, probes, o: l1_harnack_batch(s, probes)),
    "l1-pme": (HarnackReport, 1.0, lambda s, probes, o: l1_harnack_pme_batch(s, o.m, probes)),
    "pointwise": (
        PointwiseHarnackReport, 0.25,
        _each(lambda s, c, rho, w, o: check_pointwise_harnack(
            s, c, w[1], rho, q=o.q, eps=o.eps, p=o.p, r=o.r
        )),
    ),
    "energy": (
        EnergyReport, 0.5, lambda s, probes, o: energy_lemma_batch(s, probes, o.sigma)
    ),
    "energy-pme": (
        EnergyReport, 0.5,
        lambda s, probes, o: energy_lemma_pme_batch(s, o.m, probes, o.sigma),
    ),
    "flux": (
        FluxReport, 1.0,
        lambda s, probes, o: flux_corollary_batch(s, o.flux, probes, o.sigma),
    ),
    "distributional": (
        DistributionalCheck, 1.0,
        _each(lambda s, c, rho, w, o: distributional_identity_check(
            Cutoff(c, rho, o.sigma), s.grid, v_field=s.values[-1]
        )),
    ),
}
VERIFY_KINDS = tuple(_VERIFY)
# benchmarks/tracing.py times the checks under the names cli binds; the flux kind runs
# as its batch, so its single-probe check is bound here for the tracer only
_TRACED_NAMES = (check_flux_corollary,)


def _verify_probes(cfg: Cfg, slab, kind: str, seed: int):
    """Probe cylinders for a verify run: explicit single or seeded batch."""
    grid = slab.grid
    count = cfg.get("verify", "count", 1, int)
    if count < 1:
        raise ConfigProblem(f"[verify] count must be >= 1, got {count}")
    explicit = [k for k in ("center", "rho", "window") if cfg.cp.has_option("verify", k)]
    if count > 1 and explicit:
        raise ConfigProblem(f"[verify] {', '.join(explicit)}: set only with count = 1, got {count}")
    if count == 1:
        center = cfg.get("verify", "center", grid.center, lambda raw: _parse_floats(raw, grid.dim))
        rho = cfg.get("verify", "rho", grid.edge / 4.0, float)
        window = cfg.get(
            "verify", "window", (float(slab.times[0]), float(slab.times[-1])),
            lambda raw: _parse_floats(raw, 2),
        )
        return [(tuple(center), rho, float(window[0]), float(window[1]))]
    rng = np.random.default_rng(seed)
    scale = _VERIFY[kind][1]
    return [
        (c, r * scale, a, b) for c, r, a, b in sample_cylinders(grid, slab.times, rng, count)
    ]


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    kind = args.kind
    slab_path = cfg.path("verify", "slab", required=True)
    try:
        slab = read_slab(slab_path)
    except (OSError, ParameterError) as exc:
        print(f"verify: cannot read slab {slab_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    opts = SimpleNamespace(
        **_probe_constants(cfg, "verify", slab.grid.dim),
        m=cfg.get("verify", "m", _solver_m(cfg), float),
        flux=_build_flux(cfg, slab.grid) if kind == "flux" else None,
    )
    report_cls, _, batch = _VERIFY[kind]
    probes = _verify_probes(cfg, slab, kind, args.seed)
    columns = [f.name for f in dc_fields(report_cls)] + ["probe", "error"]
    rows = []
    errors = Counter()
    results = batch(slab, [(center, rho, (t0, t1)) for center, rho, t0, t1 in probes], opts)
    for index, got in enumerate(results):
        row = dict.fromkeys(columns)
        row.update(probe=index, error="")
        if isinstance(got, Exception):
            row["error"] = str(got)
            errors[type(got).__name__] += 1
        else:
            row.update((k, v) for k, v in got.to_row().items() if k in row)
        rows.append(row)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "report.csv", rows, columns=columns)
    errors = dict(sorted(errors.items()))
    cfg.echo["verify_effective"] = {"kind": kind, "probes": len(probes), "errors": errors}
    _manifest(out, f"verify-{kind}", _config_hash(args.config), cfg.echo, args.threads, args.seed)
    n_err = sum(errors.values())
    detail = ": " + ", ".join(f"{name} {n}" for name, n in errors.items()) if errors else ""
    print(f"verify {kind}: {len(rows)} rows ({n_err} probe errors{detail}) -> {out / 'report.csv'}")
    return EXIT_OK


def cmd_msweep(args) -> int:
    cfg = load_config(args.config)
    grid = _build_grid(cfg)
    initial, fixture = _build_initial(cfg, grid)
    solver_cfg = _build_solver_config(cfg, fixture)
    horizon = cfg.get("solver", "horizon", required=True, cast=float)
    m_values = cfg.get("msweep", "m_values", (0.4, 0.2, 0.1, 0.05, 0.025), _parse_floats)
    rho = cfg.get("msweep", "rho", grid.edge / 4.0, float)
    window = cfg.get(
        "msweep", "window", (horizon / 2.0, horizon), lambda raw: _parse_floats(raw, 2)
    )
    e_o_edge = cfg.get("msweep", "e_o_edge", grid.edge / 4.0, float)
    result = run_m_sweep(
        initial,
        m_values,
        solver_cfg,
        horizon,
        rho=rho,
        window=window,
        e_o=Cube(grid.center, e_o_edge),
        **_probe_constants(cfg, "msweep", grid.dim),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.save(out / "msweep")
    _manifest(out, "msweep", _config_hash(args.config), cfg.echo, args.threads, args.seed)
    failures = [e.m for e in result.entries if not e.ok]
    status = f", failed at m = {failures}" if failures else ""
    print(f"msweep: {len(result.entries)} entries{status} -> {out / 'msweep'}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    meshes = args.meshes or (32, 64, 128)
    if min(meshes) < 2:
        raise ConfigProblem(f"--meshes must be >= 2 cells per edge, got {min(meshes)}")
    if len(set(meshes)) < len(meshes):
        raise ConfigProblem(f"--meshes must not repeat a mesh, got {' '.join(map(str, meshes))}")
    params = {}
    cfg_echo: dict = {}
    if args.config is not None:
        cfg = load_config(args.config)
        params = _fixture_params(cfg, args.fixture)
        cfg_echo = cfg.echo
    sol = build_fixture(args.fixture, **params)
    edge = 1.0
    t0 = 0.0
    dim = len(sol.a) if args.fixture == "exp_steady" else 2
    rows = []
    spacings, residuals = [], []
    for cells in meshes:
        grid = Grid.regular(dim, edge, edge / cells)
        res = residual_check(sol, grid, t0)
        rows.append({"cells": cells, "spacing": grid.spacing, "residual": res})
        spacings.append(grid.spacing)
        residuals.append(res)
    try:
        order = fit_order(spacings, residuals)
    except ParameterError:
        order = float("nan")
    for row in rows:
        row["order"] = order
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "oracle.csv", rows, columns=["cells", "spacing", "residual", "order"])
    run_id = _config_hash(args.config) if args.config else "no-config"
    cfg_echo.setdefault("oracle", {})["fixture"] = args.fixture
    cfg_echo["oracle"]["meshes"] = list(meshes)
    _manifest(out, "oracle-check", run_id, cfg_echo, args.threads, args.seed)
    print(f"oracle-check {args.fixture}: order = {order:.4f} -> {out / 'oracle.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="path to the INI config file")
    common.add_argument("--out", default="runs", help="output directory")
    common.add_argument("--threads", type=int, default=1, help="recorded in the manifest; probes run in one thread")
    common.add_argument("--seed", type=int, default=0, help="seed for probe placement")
    parser = argparse.ArgumentParser(
        prog="logdiff",
        description="Numerical laboratory for logarithmic and power diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common], help="run a solver per config")
    pv = sub.add_parser("verify", parents=[common], help="evaluate inequality checkers")
    pv.add_argument("kind", choices=VERIFY_KINDS)
    sub.add_parser("msweep", parents=[common], help="sweep the power exponent toward 0")
    po = sub.add_parser("oracle-check", parents=[common], help="residual order study")
    po.add_argument("fixture", help=f"fixture name ({', '.join(FIXTURES)})")
    po.add_argument("--meshes", type=int, nargs="+", default=None, help="cells per edge")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "msweep": cmd_msweep,
        "oracle-check": cmd_oracle_check,
    }
    needs_config = args.command in ("solve", "verify", "msweep")
    if needs_config and args.config is None:
        print(f"{args.command}: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # before any work: --out, or else its nearest existing ancestor, is a writable directory
        there = next(p for p in (Path(args.out), *Path(args.out).parents) if p.exists())
        if not (there.is_dir() and os.access(there, os.W_OK | os.X_OK)):
            code = errno.EACCES if there.is_dir() else errno.ENOTDIR
            raise OSError(code, "output is not a writable directory", str(there))
        return handlers[args.command](args)
    except (ConfigProblem, ParameterError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.step is not None:
            norms = ", ".join(f"{norm:.3e}" for norm in exc.history)
            print(f"failed step: {exc.step}; its Newton residuals: {norms}", file=sys.stderr)
        return EXIT_SOLVER
    except GeometryError as exc:
        print(f"config error (geometry): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
