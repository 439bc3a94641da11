"""Empirical checkers for the mass, energy, flux, and pointwise inequalities.

Each checker evaluates both sides of one inequality on concrete data and
reports the smallest constant that would make it hold, instead of asserting
any particular constant.  The interesting question is always stability: the
ratio should stay bounded under mesh refinement, under shrinking of the
diffusion exponent m, and across probe locations.

``m = 0`` is the logarithmic case of each power-type checker: one
m-parameterised body serves both equations (:func:`check_l1_harnack`,
:func:`check_energy_lemma`, :func:`check_flux_corollary`), and the ``_pme``
names only validate ``m > 0`` and call it.

The l1, energy and flux checks run on batches of probes ``(center, rho,
window)``: each probe is resolved, one sweep of
``functionals._probe_stats`` reads the statistics of all of them, and each is
finished into its report.  A batch returns, per probe, the report or the
GeometryError or ParameterError that probe raises, so one bad probe does not
end its batch; the single-probe checks are the batch of one and raise it.

Report objects are flat dataclasses subclassing :class:`logdiff.reporting.Row`,
whose ``to_row()`` serializes batches to deterministic CSV rows.  Unused
entries (for instance power-law fields on a logarithmic check) are NaN rather
than omitted, keeping column sets fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError
from .grid import (
    Cube,
    Cutoff,
    Grid,
    SpaceTimeSlab,
    _trapezoid,
    laplacian,
)
from .functionals import (
    _check_finite,
    _check_m,
    _degeneracy_ratio,
    _flux_integral,
    _gradient_energy,
    _intrinsic_window,
    _only,
    _power_oscillation,
    _probe_nodes,
    _probe_stats,
    _window,
    ess_sup,
    time_scaling_exponent,
)
from .reporting import Row


def _check_window(slab: SpaceTimeSlab, window) -> tuple[float, float, np.ndarray]:
    """``(t0, t1, levels)`` of a window ``t0 < t1`` inside the slab's time range."""
    t0, t1 = float(window[0]), float(window[1])
    tol = 1e-9 * max(1.0, abs(float(slab.times[-1])))
    if t0 < slab.times[0] - tol or t1 > slab.times[-1] + tol:
        raise GeometryError(
            f"window ({t0:.6g}, {t1:.6g}] leaves the slab range "
            f"[{slab.times[0]:.6g}, {slab.times[-1]:.6g}]"
        )
    t0, t1 = _window(window)
    return t0, t1, slab.window_indices(t0, t1)


def _time_exponent(N: int, m: float) -> float:
    """``N(m-1) + 2``, which the power-type bounds (``m > 0``) need positive."""
    lam = time_scaling_exponent(N, m)
    if m > 0.0 and lam <= 0:
        raise ParameterError(f"need N(m-1)+2 > 0, got {lam:.6g}")
    return lam


def _attempt(fn, *args):
    """``fn(*args)``, or a copy of the GeometryError or ParameterError it raises.  The
    copy has no traceback: one kept with a batch's results would tie the frames that
    raised it, and the slab they hold, into a cycle only the garbage collector frees."""
    try:
        return fn(*args)
    except (GeometryError, ParameterError) as exc:
        return type(exc)(*exc.args)


def _batch(slab: SpaceTimeSlab, probes, resolve, m: float) -> list:
    """``resolve(center, rho, window)`` of each probe gives its ``_probe_stats`` block
    and a ``finish`` of its statistics; the blocks of the probes that resolve share one
    sweep at exponent ``m`` (0: the log means), and each result is a report or the
    error its probe raised first."""
    resolved = [_attempt(resolve, *probe) for probe in probes]
    ok = [r for r in resolved if not isinstance(r, Exception)]
    stats = iter(_probe_stats(slab, [block for block, _ in ok], m))
    out = []
    for r in resolved:
        if not isinstance(r, Exception):
            got = next(stats)
            r = got if isinstance(got, Exception) else _attempt(r[1], *got)
        out.append(r)
    return out


def _power_m(m: float, top: float, what: str) -> float:
    """``m``; ParameterError naming ``what`` unless ``0 < m < top``."""
    if not 0 < m < top:
        raise ParameterError(what)
    return m


@dataclass
class HarnackReport(Row):
    """Both sides of a local-mass inequality and the minimal constant.

    ``lhs <= gamma_star * (rhs_mass + rhs_time)`` holds with equality by
    construction.  ``kind`` is ``l1-log`` or ``l1-pme``; the time term carries
    the exponent ``1/(1-m)`` in the power case.
    """

    kind: str
    center: tuple
    rho: float
    t_start: float
    t_end: float
    m: float
    lhs: float
    rhs_mass: float
    rhs_time: float
    gamma_star: float
    sup_u: float
    lambda_1: float
    lambda_2: float


def check_l1_harnack(
    slab: SpaceTimeSlab, center, rho: float, window, m: float = 0.0
) -> HarnackReport:
    """Local-mass inequality: sup of the K_rho mass vs inf of the K_2rho mass.

    ``lhs = sup_tau int_{K_rho} u``, ``rhs_mass = inf_tau int_{K_2rho} u``,
    ``rhs_time = ((t - s) / rho^lam)^(1/(1-m))`` with ``lam = N(m-1) + 2``;
    ``gamma_star = lhs / (rhs_mass + rhs_time)`` is the minimal admissible
    constant.  ``m = 0`` is the logarithmic case (kind ``l1-log``, time term
    ``(t - s)/rho^(2-N)``, ``m`` reported as NaN); ``0 < m < 1`` the power
    case (kind ``l1-pme``), which needs ``lam > 0``.  ``sup_u``, ``lambda_1``
    and ``lambda_2`` are measured over ``K_2rho x window``; they parameterize
    the constant, not the inequality itself.
    """
    return _only(l1_harnack_batch(slab, [(center, rho, window)], m))


def l1_harnack_batch(slab: SpaceTimeSlab, probes, m: float = 0.0) -> list:
    """:func:`check_l1_harnack` of each ``(center, rho, window)`` of ``probes`` in one
    statistics sweep: its report, or the error it raises."""
    return _batch(slab, probes, lambda *probe: _l1_probe(slab, m, *probe), 0.0)


def _l1_probe(slab: SpaceTimeSlab, m: float, center, rho: float, window):
    """The resolve step of :func:`check_l1_harnack`: ``(block, finish)``."""
    _check_m(m)
    if not 0.0 < rho < math.inf:
        raise ParameterError(f"rho must be finite and positive, got {rho:.6g}")
    t0, t1, levels = _check_window(slab, window)
    lam = _time_exponent(slab.grid.dim, m)
    rhs_time = ((t1 - t0) / rho**lam) ** (1.0 / (1.0 - m))

    def finish(M, l1, l2, lhs, rhs_mass):
        denom = rhs_mass + rhs_time
        return HarnackReport(
            kind="l1-pme" if m > 0.0 else "l1-log",
            center=tuple(center),
            rho=rho,
            t_start=t0,
            t_end=t1,
            m=m if m > 0.0 else float("nan"),
            lhs=lhs,
            rhs_mass=rhs_mass,
            rhs_time=rhs_time,
            gamma_star=lhs / denom if denom > 0 else math.inf,
            sup_u=M,
            lambda_1=l1,
            lambda_2=l2,
        )

    return (center, rho, *_probe_nodes(slab.grid, center, rho, 0.0), levels), finish


def check_l1_harnack_pme(
    slab: SpaceTimeSlab, m: float, center, rho: float, window
) -> HarnackReport:
    """The power-diffusion case ``0 < m < 1`` of :func:`check_l1_harnack`;
    its components converge to the logarithmic report's as m -> 0."""
    return _only(l1_harnack_pme_batch(slab, m, [(center, rho, window)]))


def l1_harnack_pme_batch(slab: SpaceTimeSlab, m: float, probes) -> list:
    """:func:`check_l1_harnack_pme` of each probe, as :func:`l1_harnack_batch`."""
    what = "m must be in (0, 1)"
    return _batch(slab, probes, lambda *probe: _l1_probe(slab, _power_m(m, 1.0, what), *probe), 0.0)


@dataclass
class EnergyReport(Row):
    """Gradient energy vs its mass + oscillation bound; ratio is the
    empirical constant surrogate."""

    kind: str
    center: tuple
    rho: float
    sigma: float
    t_start: float
    t_end: float
    m: float
    lhs: float
    rhs_mass_term: float
    rhs_time_term: float
    ratio: float
    sup_u: float
    lambda_1: float
    lambda_2: float
    s_sigma: float


def _ratio(lhs: float, rhs: float) -> float:
    """``lhs / rhs``; for ``rhs <= 0``, 0 if lhs is 0 and inf otherwise."""
    return lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)


def check_energy_lemma(
    slab: SpaceTimeSlab, center, rho: float, sigma: float, window, m: float = 0.0
) -> EnergyReport:
    """Gradient energy against its mass + oscillation bound with unit constants.

    lhs integrates ``zeta^2 |Du|^2 / u^(2-m/2)`` with the standard cutoff of
    width ``sigma rho``; the right side is

    ``(1 + L1) rho^(Nm/2) S^(1-m/2)
      + (L1^2 + L2^2) S^(m/2) (t-s) / (sigma^2 rho^(N(m/2-1)+2))``

    and ``ratio`` is lhs over it.  ``m = 0`` is the logarithmic case (kind
    ``energy-log``, ``m`` reported as NaN): ``|Du|^2/u^2`` against
    ``(1+L1)S + (L1^2+L2^2)(t-s)/(sigma^2 rho^(2-N))`` with the log
    oscillation means over ``K_2rho x window``.  ``0 < m < 2/3`` is the power
    case (kind ``energy-pme``), with the half-exponent oscillation integrals
    (plain integrals, not means).  The sup of u is taken over ``K_2rho x
    window`` too.
    """
    return _only(energy_lemma_batch(slab, [(center, rho, window)], sigma, m))


def energy_lemma_batch(slab: SpaceTimeSlab, probes, sigma: float, m: float = 0.0) -> list:
    """:func:`check_energy_lemma` of each ``(center, rho, window)`` of ``probes`` in one
    statistics sweep: its report, or the error it raises."""
    return _batch(slab, probes, lambda *probe: _energy_probe(slab, m, sigma, *probe), m)


def _energy_probe(slab: SpaceTimeSlab, m: float, sigma: float, center, rho: float, window):
    """The resolve step of :func:`check_energy_lemma`: ``(block, finish)``."""
    if not 0.0 <= m < 2.0 / 3.0:
        raise ParameterError(f"the energy bound needs 0 <= m < 2/3, got {m:.6g}")
    if not 0.0 < sigma < 1.0:
        raise ParameterError("sigma must lie in (0, 1) for the energy bound")
    t0, t1, levels = _check_window(slab, window)
    slab.grid.cube_slices(Cube(tuple(center), 4.0 * rho))  # GeometryError unless K_4rho fits
    N = slab.grid.dim
    outer, inner = _probe_nodes(slab.grid, center, rho, sigma)  # inner: the cutoff's support

    def finish(M, l1, l2, s_sig, _):
        lhs = _gradient_energy(slab, Cutoff(tuple(center), rho, sigma), inner, levels, m)
        mass_term = (1.0 + l1) * rho ** (N * m / 2.0) * s_sig ** (1.0 - m / 2.0)
        time_term = (
            (l1**2 + l2**2)
            * s_sig ** (m / 2.0)
            * (t1 - t0)
            / (sigma**2 * rho ** time_scaling_exponent(N, m / 2.0))
        )
        return EnergyReport(
            kind="energy-pme" if m > 0.0 else "energy-log",
            center=tuple(center),
            rho=rho,
            sigma=sigma,
            t_start=t0,
            t_end=t1,
            m=m if m > 0.0 else float("nan"),
            lhs=lhs,
            rhs_mass_term=mass_term,
            rhs_time_term=time_term,
            ratio=_ratio(lhs, mass_term + time_term),
            sup_u=M,
            lambda_1=l1,
            lambda_2=l2,
            s_sigma=s_sig,
        )

    return (center, rho, outer, inner, levels), finish


def check_energy_lemma_pme(
    slab: SpaceTimeSlab, m: float, center, rho: float, sigma: float, window
) -> EnergyReport:
    """The power-diffusion case ``0 < m < 2/3`` of :func:`check_energy_lemma`."""
    return _only(energy_lemma_pme_batch(slab, m, [(center, rho, window)], sigma))


def energy_lemma_pme_batch(slab: SpaceTimeSlab, m: float, probes, sigma: float) -> list:
    """:func:`check_energy_lemma_pme` of each probe, as :func:`energy_lemma_batch`."""
    what = "power energy bound needs 0 < m < 2/3"

    def resolve(*probe):
        return _energy_probe(slab, _power_m(m, 2.0 / 3.0, what), sigma, *probe)

    return _batch(slab, probes, resolve, m)


@dataclass
class FluxReport(Row):
    """Space-time L1 of the flux against its oscillation/mass/time bound."""

    kind: str
    center: tuple
    rho: float
    sigma: float
    t_start: float
    t_end: float
    m: float
    lhs: float
    rhs: float
    ratio: float
    sup_u: float
    lambda_1: float
    lambda_2: float
    s_sigma: float
    time_ratio: float


def check_flux_corollary(
    slab: SpaceTimeSlab, flux, rho: float, sigma: float, window, center=None
) -> FluxReport:
    """``(1/rho) iint_{K_rho} |A|`` against the corollary bound for the flux kind.

    Logarithmic-type fluxes (``m == 0``) use

    ``max{(1+L1)^(1/2), (L1^2+L2^2)^(1/2)} [S + sigma^-2 T]^(1/2) T^(1/2)``

    with ``T = (t-s)/rho^(2-N)``; power-type fluxes use

    ``sigma^-1 (L_{m/2,1}^2 + L_{m/2,2}^2)^(1/2) T S^m
      + (1 + L_{m/2,1})^(1/2) T^(1/2) S^((m+1)/2)``

    with ``T = (t-s)/rho^(N(m-1)+2)`` and plain-integral oscillations.
    """
    center = slab.grid.center if center is None else center
    return _only(flux_corollary_batch(slab, flux, [(center, rho, window)], sigma))


def flux_corollary_batch(slab: SpaceTimeSlab, flux, probes, sigma: float) -> list:
    """:func:`check_flux_corollary` of each ``(center, rho, window)`` of ``probes`` in one
    statistics sweep: its report, or the error it raises."""
    m = float(flux.m)
    return _batch(slab, probes, lambda *probe: _flux_probe(slab, flux, m, sigma, *probe), m)


def _flux_probe(slab: SpaceTimeSlab, flux, m: float, sigma: float, center, rho: float, window):
    """The resolve step of :func:`check_flux_corollary`: ``(block, finish)``."""
    if not 0.0 < sigma < 1.0:
        raise ParameterError("sigma must lie in (0, 1) for the flux bound")
    grid = slab.grid
    t0, t1, levels = _check_window(slab, window)
    outer, inner = _probe_nodes(grid, center, rho, sigma)
    base = grid.cube_slices(Cube(tuple(center), rho))

    def finish(M, l1, l2, s_sig, _):
        lhs = _flux_integral(slab, flux, base, levels) / rho
        T = (t1 - t0) / rho ** _time_exponent(grid.dim, m)
        if m == 0.0:
            osc = max(math.sqrt(1.0 + l1), math.sqrt(l1**2 + l2**2))
            rhs = osc * math.sqrt(s_sig + T / sigma**2) * math.sqrt(T)
        else:
            rhs = (
                math.sqrt(l1**2 + l2**2) * T * s_sig**m / sigma
                + math.sqrt(1.0 + l1) * math.sqrt(T) * s_sig ** ((m + 1.0) / 2.0)
            )
        return FluxReport(
            kind={"log-diffusion": "flux-log", "pme": "flux-pme"}.get(flux.kind, "flux-quasilinear"),
            center=tuple(center),
            rho=rho,
            sigma=sigma,
            t_start=t0,
            t_end=t1,
            m=m if m != 0.0 else float("nan"),
            lhs=lhs,
            rhs=rhs,
            ratio=_ratio(lhs, rhs),
            sup_u=M,
            lambda_1=l1,
            lambda_2=l2,
            s_sigma=s_sig,
            time_ratio=T,
        )

    return (center, rho, outer, inner, levels), finish


@dataclass
class JensenCheck(Row):
    """Convexity bound tying the sup, the mass, and the L1 log-oscillation.

    ``ln(M / (S_sigma / rho^N)) <= 2^N Lambda_1`` holds for every admissible
    cylinder; ``margin = rhs - lhs`` should never be negative beyond roundoff.
    """

    center: tuple
    rho: float
    sigma: float
    t_start: float
    t_end: float
    sup_u: float
    s_sigma: float
    normalized_mass: float
    lambda_1: float
    lhs: float
    rhs: float
    margin: float
    satisfied: bool


def jensen_check(
    slab: SpaceTimeSlab, center, rho: float, sigma: float, window
) -> JensenCheck:
    t0, t1, levels = _check_window(slab, window)
    N = slab.grid.dim
    nodes = _probe_nodes(slab.grid, center, rho, sigma)
    M, l1, _, s_sig, _ = _only(_probe_stats(slab, [(center, rho, *nodes, levels)]))
    norm_mass = s_sig / rho**N
    lhs = math.log(M / norm_mass)
    rhs = 2.0**N * l1
    margin = rhs - lhs
    tol = 1e-9 * max(1.0, abs(rhs))
    return JensenCheck(
        center=tuple(center),
        rho=rho,
        sigma=sigma,
        t_start=t0,
        t_end=t1,
        sup_u=M,
        s_sigma=s_sig,
        normalized_mass=norm_mass,
        lambda_1=l1,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        satisfied=bool(lhs <= rhs + tol),
    )


def sample_cylinders(grid: Grid, times, rng, count: int):
    """Mesh-aligned random probe cylinders ``(center, rho, t0, t1)``.

    Radii are multiples of four cells so that the base cube, its doubling,
    and the ``(1+sigma)`` dilation with sigma = 0.5 all land exactly on
    nodes; windows are pairs of stored level times.  Deterministic for a
    seeded generator.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ParameterError("need at least two time levels to sample windows")
    cells = grid.npts - 1
    j_max = cells // 8
    if j_max < 1:
        raise GeometryError("grid too coarse to fit a doubled probe cube")
    axes = grid.axes()
    out = []
    for _ in range(int(count)):
        j = int(rng.integers(1, j_max + 1))
        rho = 4 * j * grid.spacing
        margin = 4 * j
        idx = [int(rng.integers(margin, cells - margin + 1)) for _ in range(grid.dim)]
        center = tuple(float(x[i]) for x, i in zip(axes, idx))
        k0 = int(rng.integers(0, times.size - 1))
        k1 = int(rng.integers(k0 + 1, times.size))
        out.append((center, rho, float(times[k0]), float(times[k1])))
    return out


# the most probe levels the pointwise inf reads
_POINTWISE_PROBES = 8


@dataclass
class PointwiseHarnackReport(Row):
    """Infimum-vs-supremum comparison on intrinsically scaled cylinders.

    ``f_star = inf_val / sup_val`` lies in (0, 1] for positive data; the inf
    runs over the 4x cube at probe times in the top sixteenth of the
    intrinsic window, the sup over the 2x cube over the full quarter-depth
    window.  ``fitted_c1``/``fitted_c2`` stay NaN until a family fit fills
    them in.
    """

    x_o: tuple
    t_o: float
    rho: float
    q: float
    eps: float
    p: float
    r: float
    theta: float
    sup_u: float
    eta: float
    lambda_p: float
    inf_val: float
    sup_val: float
    f_star: float
    n_probes: int
    degenerate: bool = False
    fitted_c1: float = float("nan")
    fitted_c2: float = float("nan")


def check_pointwise_harnack(
    slab: SpaceTimeSlab,
    x_o,
    t_o: float,
    rho: float,
    q: float = 2.0,
    eps: float = 0.1,
    p: float = 5.0,
    r: float = 2.0,
) -> PointwiseHarnackReport:
    """Evaluate the pointwise inf/sup comparison at one vertex.

    The intrinsic height ``theta`` comes from the q-mean of u over ``K_rho``
    at the vertex time; the backward cylinder ``K_8rho x (t_o - 64 theta
    rho^2, t_o]`` must fit inside the slab.  Requires finite ``q, eps, p, r``
    and ``p > N + 2``; raises ParameterError unless u is finite and positive
    on that cylinder, which holds every sampled node.  ``sup_u`` and
    ``lambda_p`` come from one read of each chunk of that cylinder
    (``functionals._power_oscillation``).  The inf is taken over at most
    ``_POINTWISE_PROBES`` evenly spread levels of the intrinsic window
    ``(t_o - theta rho^2/16, t_o]``, which holds the vertex level
    (``functionals._intrinsic_window``).
    """
    grid = slab.grid
    _check_finite(q=q, eps=eps, p=p, r=r)
    if p <= grid.dim + 2:
        raise ParameterError(f"need p > N + 2 = {grid.dim + 2}, got {p}")
    x_o = tuple(float(c) for c in x_o)
    k_o = slab.level_index(t_o)
    t_o = float(slab.times[k_o])
    base = grid.cube_slices(Cube(x_o, rho))  # K_rho: theta and eta
    theta, probes = _intrinsic_window(slab, base, x_o, k_o, rho, q, eps)
    if theta <= 0.0:
        return PointwiseHarnackReport(
            x_o=x_o, t_o=t_o, rho=rho, q=q, eps=eps, p=p, r=r,
            theta=0.0, sup_u=float("nan"), eta=float("nan"),
            lambda_p=float("nan"), inf_val=float("nan"),
            sup_val=float("nan"), f_star=float("nan"),
            n_probes=0, degenerate=True,
        )
    depth = theta * (8.0 * rho) ** 2
    t_lo = t_o - depth
    try:
        _, _, levels = _check_window(slab, (t_lo, t_o))
    except GeometryError:
        raise GeometryError(
            f"intrinsic window depth {depth:.6g} reaches below the slab start"
        ) from None
    cube = Cube(x_o, 8.0 * rho)
    M, lam_p = _power_oscillation(slab, cube, grid.cube_slices(cube), levels, None, p)
    eta = _degeneracy_ratio(slab.level(k_o), base, q, M, r)
    sup_val = ess_sup(slab, Cube(x_o, 2.0 * rho), (t_o - theta * rho**2, t_o))
    if probes.size > _POINTWISE_PROBES:
        pick = np.round(np.linspace(0, probes.size - 1, _POINTWISE_PROBES)).astype(int)
        probes = probes[np.unique(pick)]
    inf_val = float(slab.values[(probes,) + grid.cube_slices(Cube(x_o, 4.0 * rho))].min())
    return PointwiseHarnackReport(
        x_o=x_o,
        t_o=t_o,
        rho=rho,
        q=q,
        eps=eps,
        p=p,
        r=r,
        theta=theta,
        sup_u=M,
        eta=eta,
        lambda_p=lam_p,
        inf_val=inf_val,
        sup_val=sup_val,
        f_star=inf_val / sup_val,
        n_probes=int(probes.size),
    )


@dataclass
class PointwiseFit(Row):
    """Exponent pair for the lower-bound profile ``exp(-L^c1 / eta^c2)``."""

    c1: float
    c2: float
    violation: float
    mean_bound: float


def fit_pointwise_constants(reports) -> PointwiseFit:
    """Grid-search exponents so ``exp(-lambda_p^c1 / eta^c2) <= f_star``.

    Both exponents range over 41 geometric steps from 0.1 to 10.  Hinge loss
    sums the overshoot across reports; among zero-violation pairs the one
    with the largest mean bound (the least vacuous) wins.  Degenerate
    reports are skipped; at least one usable report is required.
    """
    usable = [rep for rep in reports if not rep.degenerate]
    if not usable:
        raise ParameterError("no nondegenerate reports to fit")
    lam = np.array([rep.lambda_p for rep in usable])
    eta = np.array([rep.eta for rep in usable])
    f_star = np.array([rep.f_star for rep in usable])
    for name, x in (("lambda_p", lam), ("eta", eta), ("f_star", f_star)):
        if not np.isfinite(x).all():
            raise ParameterError(f"fit requires finite {name}")
    if np.any(eta <= 0):
        raise ParameterError("fit requires strictly positive eta")
    cs = np.geomspace(0.1, 10.0, 41)
    best = None
    for c1 in cs:
        with np.errstate(over="ignore"):
            lam_pow = lam**c1
        for c2 in cs:
            with np.errstate(over="ignore"):
                bound = np.exp(-lam_pow / eta**c2)
            violation = float(np.maximum(bound - f_star, 0.0).sum())
            mean_bound = float(bound.mean())
            key = (violation, -mean_bound)
            if best is None or key < best[0]:
                best = (key, float(c1), float(c2), violation, mean_bound)
    _, c1, c2, violation, mean_bound = best
    return PointwiseFit(c1=c1, c2=c2, violation=violation, mean_bound=mean_bound)


@dataclass
class DistributionalCheck(Row):
    """Discrete divergence-theorem defect of a cutoff Laplacian.

    ``laplacian_defect = |int Delta_h zeta|`` over the support cube; it
    vanishes at O(h) under refinement.  ``shift_defect`` is the worst
    constant-shift mismatch ``|int Delta_h zeta (ln v - ln(v/M))|`` over the
    probe constants, exactly zero at M = 1.
    """

    spacing: float
    laplacian_defect: float
    shift_defect: float
    shift_defect_at_one: float


def distributional_identity_check(
    cutoff: Cutoff, grid: Grid, v_field=None, consts=(0.5, 2.0, 10.0)
) -> DistributionalCheck:
    """Check that the cutoff Laplacian integrates to ~0 over its support.

    The support must sit strictly inside the grid so that the interior
    stencil applies on the whole integration cube.  The check reads only the
    support's nodes plus one node on every side: the cutoff is evaluated on
    that block, its Laplacian and ``v`` (the given field, or ``exp(x_1)``)
    on the support, where v must be positive.
    """
    slices = grid.cube_slices(cutoff.support_cube())
    for d, sl in enumerate(slices):
        if sl.start < 1 or sl.stop > grid.npts - 1:
            raise GeometryError(
                f"cutoff support touches the grid boundary on axis {d}"
            )
    block = tuple(slice(sl.start - 1, sl.stop + 1) for sl in slices)
    lap = laplacian(cutoff.block(grid, block), grid)
    base = float(_trapezoid(lap, grid.spacing))
    if v_field is not None:
        v = np.asarray(v_field.values if hasattr(v_field, "values") else v_field)
        if v.shape != grid.shape or not (v[slices] > 0).all():
            raise ParameterError("v must match the grid shape and be positive on the support")
        v = v[slices]
    else:
        v = np.exp(grid.block_axes(slices)[0])
    log_v = np.log(v)

    def shift_defect(log_v_over_M):
        return abs(float(_trapezoid(lap * (log_v - log_v_over_M), grid.spacing)))

    worst = float(np.max([shift_defect(np.log(v / float(M))) for M in consts], initial=0.0))
    one = shift_defect(log_v)  # v / 1.0 is v, bit for bit
    return DistributionalCheck(
        spacing=grid.spacing,
        laplacian_defect=abs(base),
        shift_defect=worst,
        shift_defect_at_one=one,
    )
