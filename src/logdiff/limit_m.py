"""Small-exponent program: sweeps of the power solver toward the log solver.

``u_t = Lap((u^m - 1)/m)`` tends formally to ``u_t = Lap(ln u)`` as m -> 0.
This module quantifies the convergence on concrete data: per-m space-time L1
distances, the functional and mass-inequality reports, the uniform-norm
conditions (sup-in-time L^r of u and L^p of the nonlinearity w = (u^m-1)/m),
and the mass lower bound at the final time.  Reference curves carry a nominal
1/m factor, since the classical constant degenerates at that rate while the
measured constants are expected to stay put.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ParameterError, SolverError
from .grid import (
    Cube,
    Field,
    SpaceTimeSlab,
    _trapezoid,
    integrate,
    read_slab,
    write_slab,
)
from .functionals import FunctionalSet, _level_integrals, _power_oscillation, functional_set
from .harnack import (
    check_energy_lemma,
    check_energy_lemma_pme,
    check_l1_harnack,
    check_l1_harnack_pme,
)
from .solvers import SolverConfig, solve_log_diffusion, solve_porous_medium
from .reporting import Row, write_csv, write_json, read_json


@dataclass
class MSweepEntry(Row):
    """Per-exponent record of one sweep member."""

    m: float
    ok: bool
    failure: str
    l1_distance: float
    gamma_star: float
    gamma_ref: float
    energy_ratio: float
    u_norm: float
    w_norm: float
    mass_floor: float
    functional_set: FunctionalSet | None = field(
        default=None, repr=False, metadata={"row": False}
    )

    def to_row(self) -> dict:
        # a failed solve has no functional set: its fs_* cells are NaN
        fs, names = self.functional_set, [f.name for f in fields(FunctionalSet)]
        fs_row = fs.to_row() if fs is not None else dict.fromkeys(names, math.nan)
        return {**super().to_row(), **{f"fs_{k}": v for k, v in fs_row.items()}}


@dataclass
class MSweepResult:
    """A full sweep: shared probe geometry, per-m entries, and both solves.

    ``entries`` is ordered by strictly decreasing m.  Failed solves keep
    their slot with ``ok = False`` and NaN metrics so that column sets stay
    fixed.
    """

    m_values: tuple
    center: tuple
    rho: float
    window: tuple
    e_o_center: tuple
    e_o_edge: float
    q: float
    p: float
    r: float
    eps: float
    sigma: float
    horizon: float
    log_gamma_star: float
    log_energy_ratio: float
    entries: list = field(default_factory=list)
    log_slab: SpaceTimeSlab | None = field(default=None, repr=False)
    pme_slabs: dict = field(default_factory=dict, repr=False)

    def rows(self) -> list:
        return [e.to_row() for e in self.entries]

    def save(self, directory) -> None:
        """Persist as a directory: slab per m, summary CSV, manifest."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        files = {}
        if self.log_slab is not None:
            write_slab(self.log_slab, directory / "logdiff.slab")
            files["logdiff"] = "logdiff.slab"
        for i, m in enumerate(self.m_values):
            if m in self.pme_slabs:
                name = f"pme_{i}.slab"
                write_slab(self.pme_slabs[m], directory / name)
                files[f"pme_{i}"] = name
        rows = self.rows()
        write_csv(directory / "summary.csv", rows)
        manifest = {}
        for k in _MANIFEST_HEAD:
            v = getattr(self, k)
            manifest[k] = list(v) if isinstance(v, tuple) else v
        manifest["files"] = files
        manifest["entries"] = [
            {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in row.items()}
            for row in rows
        ]
        write_json(directory / "manifest.json", manifest)

    @staticmethod
    def load(directory) -> "MSweepResult":
        """Read a sweep written by :meth:`save`, each ``ok`` entry's functional set included.

        Raises ParameterError if the manifest lacks a key, holds an entry
        whose m is not in ``m_values``, or lists a slab file that is missing.
        """
        directory = Path(directory)
        path = directory / "manifest.json"
        man = read_json(path)
        _require(man, _MANIFEST_HEAD + ["files", "entries"], f"sweep manifest {path}")
        result = MSweepResult(
            **{k: tuple(man[k]) if isinstance(man[k], list) else man[k] for k in _MANIFEST_HEAD}
        )
        keys = [f.name for f in fields(MSweepEntry) if f.metadata.get("row", True)]
        keys += [f"fs_{f.name}" for f in fields(FunctionalSet)]
        for rec in man["entries"]:
            _require(rec, keys, f"an entry of sweep manifest {path}")
            if rec["m"] not in result.m_values:
                raise ParameterError(
                    f"sweep manifest {path} has an entry for m = {rec['m']}, "
                    f"which is not in m_values {result.m_values}"
                )
            values = {k: math.nan if rec[k] is None else rec[k] for k in keys}
            fs = {k[3:]: values.pop(k) for k in keys if k.startswith("fs_")}
            values.update(ok=bool(rec["ok"]), failure=rec["failure"] or "")
            if values["ok"]:  # a failed solve has no functional set
                fs["center"] = tuple(float(c) for c in fs["center"].split(";"))
                values["functional_set"] = FunctionalSet(**fs)
            result.entries.append(MSweepEntry(**values))
        files = man["files"]
        missing = [name for name in files.values() if not (directory / name).is_file()]
        if missing:
            raise ParameterError(f"sweep manifest {path} lists missing slab files {missing}")
        if "logdiff" in files:
            result.log_slab = read_slab(directory / files["logdiff"])
        for i, m in enumerate(result.m_values):
            key = f"pme_{i}"
            if key in files:
                result.pme_slabs[m] = read_slab(directory / files[key])
        return result


# the MSweepResult fields that the manifest holds as top-level keys
_MANIFEST_HEAD = [
    f.name for f in fields(MSweepResult) if f.name not in ("entries", "log_slab", "pme_slabs")
]


def _require(record: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in record]
    if missing:
        raise ParameterError(f"{where} lacks the keys {missing}")


def _l1_distance(a: SpaceTimeSlab, b: SpaceTimeSlab, cube: Cube, window) -> float:
    """Space-time L1 distance over ``cube x window`` (shared levels)."""
    idx_a, idx_b = a.window_indices(*window), b.window_indices(*window)
    if idx_a.size != idx_b.size or not np.allclose(a.times[idx_a], b.times[idx_b], atol=1e-12):
        raise ParameterError("slabs do not share time levels on the window")
    shift = int(idx_b[0] - idx_a[0])
    sl = b.grid.cube_slices(cube)

    def distance(ks, u, out):
        return np.abs(u - b.values[(slice(ks.start + shift, ks.stop + shift),) + sl], out=out)

    return float(_trapezoid(_level_integrals(a, sl, idx_a, distance), a.dt))


def _uniform_norms(slab: SpaceTimeSlab, cube: Cube, m: float, r: float, p: float):
    """Sup over all levels of the cube ``L^r`` norm of u and ``L^p`` norm of ``w = (u^m-1)/m``;
    ``|w|`` is the oscillation integrand at ``M = 1``, so ``w`` goes through that pass."""
    nodes, levels = slab.grid.cube_slices(cube), np.arange(slab.nlevels)
    u_vals = _level_integrals(slab, nodes, levels, lambda ks, u, out: np.abs(u) ** r)
    w_norm = _power_oscillation(slab, cube, nodes, levels, 1.0, p, m, normalized=False)[1]
    return float(np.max(u_vals ** (1.0 / r))), w_norm


def run_m_sweep(
    initial: Field,
    m_values,
    config: SolverConfig,
    horizon: float,
    *,
    rho: float | None = None,
    window=None,
    e_o: Cube | None = None,
    q: float = 2.0,
    p: float = 5.0,
    r: float = 2.0,
    eps: float = 0.1,
    sigma: float = 0.5,
) -> MSweepResult:
    """Solve the log equation once and the power equation per m; compare.

    Every probe is centered on the grid.  Defaults: the comparison cube is
    the doubled cube of a quarter-edge radius, the window is the second half
    of the horizon, and the mass cube is the quarter-edge cube.  A solver
    failure records the entry with ``ok = False`` and continues the sweep.
    """
    m_values = tuple(float(m) for m in m_values)
    if any(not 0 < m < 1 for m in m_values):
        raise ParameterError("every m must lie in (0, 1)")
    if any(b >= a for a, b in zip(m_values, m_values[1:])):
        raise ParameterError("m_values must be strictly decreasing")
    grid = initial.grid
    center = grid.center
    if rho is None:
        rho = grid.edge / 4.0
    if window is None:
        window = (horizon / 2.0, horizon)
    window = (float(window[0]), float(window[1]))
    if e_o is None:
        e_o = Cube(center, grid.edge / 4.0)
    rho_energy = rho / 2.0
    log_slab = solve_log_diffusion(initial, config, horizon)
    log_harnack = check_l1_harnack(log_slab, center, rho, window)
    log_energy = check_energy_lemma(log_slab, center, rho_energy, sigma, window)
    comparison = Cube(center, 2.0 * rho)
    result = MSweepResult(
        m_values=m_values,
        center=center,
        rho=rho,
        window=window,
        e_o_center=e_o.center,
        e_o_edge=e_o.edge,
        q=q,
        p=p,
        r=r,
        eps=eps,
        sigma=sigma,
        horizon=float(horizon),
        log_gamma_star=log_harnack.gamma_star,
        log_energy_ratio=log_energy.ratio,
        log_slab=log_slab,
    )
    nanf = float("nan")
    for m in m_values:
        try:
            slab = solve_porous_medium(initial, m, config, horizon)
        except SolverError as exc:
            result.entries.append(
                MSweepEntry(
                    m=m, ok=False, failure=str(exc),
                    l1_distance=nanf, gamma_star=nanf, gamma_ref=1.0 / m,
                    energy_ratio=nanf, u_norm=nanf, w_norm=nanf, mass_floor=nanf,
                )
            )
            continue
        result.pme_slabs[m] = slab
        harnack = check_l1_harnack_pme(slab, m, center, rho, window)
        try:
            energy_ratio = check_energy_lemma_pme(
                slab, m, center, rho_energy, sigma, window
            ).ratio
        except ParameterError:
            energy_ratio = nanf
        fs = functional_set(
            slab, center, rho, window, q=q, p=p, r=r, eps=eps, sigma=sigma, m=m
        )
        u_norm, w_norm = _uniform_norms(slab, comparison, m, r, p)
        mass = integrate(slab.values[-1], grid, e_o)
        result.entries.append(
            MSweepEntry(
                m=m,
                ok=True,
                failure="",
                l1_distance=_l1_distance(slab, log_slab, comparison, window),
                gamma_star=harnack.gamma_star,
                gamma_ref=1.0 / m,
                energy_ratio=energy_ratio,
                u_norm=u_norm,
                w_norm=w_norm,
                mass_floor=mass,
                functional_set=fs,
            )
        )
    return result


@dataclass
class UniformVerdict(Row):
    """Boundedness verdict for the sup-in-time norm families."""

    r: float
    p: float
    verdict: str
    u_max: float
    u_median: float
    w_max: float
    w_median: float
    warning: str


def check_uniform_conditions(
    result: MSweepResult, r: float | None = None, p: float | None = None
) -> UniformVerdict:
    """Bounded iff each norm family's max is <= 1.5x its median over m.

    Recomputes the norms from the stored power slabs at ``r``/``p`` (the
    sweep's own when not given); warns when the integrability exponents sit
    at or below the hypotheses' thresholds (``r > max(1, N/2)``, ``p > N+2``).
    """
    if result.log_slab is None and not result.pme_slabs:
        raise ParameterError("sweep result carries no slabs to measure")
    grid = (result.log_slab or next(iter(result.pme_slabs.values()))).grid
    N = grid.dim
    r = result.r if r is None else float(r)
    p = result.p if p is None else float(p)
    comparison = Cube(result.center, 2.0 * result.rho)
    norms = [
        _uniform_norms(result.pme_slabs[m], comparison, m, r, p)
        for m in result.m_values
        if m in result.pme_slabs
    ]
    if not norms:
        raise ParameterError("no successful sweep entries to check")
    u_norms, w_norms = zip(*norms)
    u_max, u_med = float(np.max(u_norms)), float(np.median(u_norms))
    w_max, w_med = float(np.max(w_norms)), float(np.median(w_norms))
    bounded = u_max <= 1.5 * u_med and w_max <= 1.5 * w_med
    warning = ""
    if r <= max(1.0, N / 2.0):
        warning = f"r = {r} does not exceed max(1, N/2) = {max(1.0, N / 2.0)}"
    elif p <= N + 2:
        warning = f"p = {p} does not exceed N + 2 = {N + 2}"
    return UniformVerdict(
        r=r,
        p=p,
        verdict="bounded" if bounded else "unbounded",
        u_max=u_max,
        u_median=u_med,
        w_max=w_max,
        w_median=w_med,
        warning=warning,
    )


@dataclass
class MassBoundVerdict(Row):
    """Minimum final-time mass over the sweep versus a required floor."""

    e_o_center: tuple
    e_o_edge: float
    sigma_floor: float
    min_mass: float
    passed: bool


def check_mass_lower_bound(
    result: MSweepResult, e_o: Cube, sigma_floor: float
) -> MassBoundVerdict:
    """Compare ``min over m`` of the final-level mass on ``e_o`` to the floor."""
    masses = []
    for m in result.m_values:
        if m in result.pme_slabs:
            slab = result.pme_slabs[m]
            masses.append(integrate(slab.values[-1], slab.grid, e_o))
    if not masses:
        raise ParameterError("no successful sweep entries to check")
    min_mass = min(masses)
    return MassBoundVerdict(
        e_o_center=e_o.center,
        e_o_edge=e_o.edge,
        sigma_floor=float(sigma_floor),
        min_mass=min_mass,
        passed=bool(min_mass >= sigma_floor),
    )
