"""Derivative tables, growth-constant fits, and intrinsic rescaling.

The analyticity signature of a positive solution is that the factorial- and
radius-normalized derivative ratios

    (|D^a u(x_o,t_o)| rho^|a| / (|a|! u(x_o,t_o)))^(1/|a|)

stay bounded as the order grows, with time derivatives obeying the parabolic
counterpart (order 2k in rho, factorial (2k)!, and a u^(1-k) scaling).  This
module computes the tables by composed central differences, fits the minimal
growth pair (C, H), and performs the intrinsic change of variables

    x -> (x - x_o)/rho,  tau = (t - t_o)/(u(x_o,t_o) rho^2),  v = u/u(x_o,t_o)

under which the equation becomes v_tau - (1/v) Lap v = -|Dv|^2/v^2 on a unit
cube of edge 2.  Rescaling reuses grid nodes exactly (rho must be a whole
number of cells), so no spatial interpolation error enters; time levels are
reused as stored, only relabeled.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, ParameterError
from .grid import Cube, Grid, SpaceTimeSlab, interior_slices, laplacian, squared_gradient_at
from .functionals import _intrinsic_window
from .reporting import Row

# analyticity_report's table orders (spatial, time) and sub-cylinder fraction
# sigma; intrinsic_rescale's intrinsic-scale parameters (eps, q)
_A_MAX, _K_MAX = 6, 3
_EPS, _Q = 0.1, 2.0
_SIGMA = 0.5


@functools.lru_cache(maxsize=None)
def _stencils(a_max: int) -> np.ndarray:
    """Unit-spacing weights of the symmetric 1D stencils of orders 0..a_max.

    Row d is the order-2 accurate stencil of the d-th derivative (half-width
    ceil(d/2), weights solving the small Vandermonde moment system exactly),
    zero-padded to offsets ``-ceil(a_max/2) .. ceil(a_max/2)``, the width of
    row a_max.  Cached, so read-only.
    """
    reach = (a_max + 1) // 2
    out = np.zeros((a_max + 1, 2 * reach + 1))
    for d in range(a_max + 1):
        w = (d + 1) // 2
        z = np.arange(-w, w + 1, dtype=float)
        rhs = np.zeros(2 * w + 1)
        rhs[d] = math.factorial(d)
        out[d, reach - w : reach + w + 1] = np.linalg.solve(
            np.vander(z, 2 * w + 1, increasing=True).T, rhs
        )
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _multi_indices(a_max: int, dim: int) -> np.ndarray:
    """``(K, dim)``: the multi-indices ``alpha`` with ``1 <= |alpha| <= a_max``, in
    ``itertools.product`` order.  Cached, so read-only."""
    every = itertools.product(range(a_max + 1), repeat=dim)
    out = np.array([alpha for alpha in every if 1 <= sum(alpha) <= a_max])
    out.setflags(write=False)
    return out


@dataclass
class DerivativeTable:
    """Point values of spatial and time derivatives at one vertex.

    ``spatial`` maps multi-indices (tuples) with 1 <= |alpha| <= a_max to
    D^alpha u(x_o, t_o); ``time`` maps k to the k-th time derivative.
    Entries whose centered stencil does not fit in the slab are omitted and
    ``capped`` is set instead of raising.
    """

    x_o: tuple
    t_o: float
    u_center: float
    spacing: float
    dt: float
    a_max: int
    k_max: int
    spatial: dict = field(default_factory=dict)
    time: dict = field(default_factory=dict)
    capped: bool = False


def derivative_table(
    slab: SpaceTimeSlab, x_o, t_o: float, a_max: int = _A_MAX, k_max: int = _K_MAX
) -> DerivativeTable:
    """Centered-difference derivative table at a grid vertex.

    Spatial entries use tensor products of symmetric 1D stencils on the
    level nearest ``t_o``; time entries use symmetric stencils across stored
    levels.  Every entry is order-2 accurate in its own spacing.
    """
    grid = slab.grid
    if a_max < 1 or k_max < 0:
        raise ParameterError("a_max >= 1 and k_max >= 0 required")
    idx = grid.index_of(x_o)
    k_o = slab.level_index(t_o)
    level = slab.values[k_o]
    table = DerivativeTable(
        x_o=tuple(float(c) for c in x_o),
        t_o=float(slab.times[k_o]),
        u_center=float(level[idx]),
        spacing=grid.spacing,
        dt=slab.dt,
        a_max=a_max,
        k_max=k_max,
    )
    # Contract the block around the vertex (clipped at the grid edge) with the
    # stencil matrix, one axis at a time: entry alpha of the result is the
    # composed stencil D^alpha at unit spacing.  Rows whose stencil reaches
    # past the clipped block are wrong, but exactly those entries do not fit.
    stencils = _stencils(a_max)
    reach = (a_max + 1) // 2
    spans = [(max(i - reach, 0), min(i + reach + 1, grid.npts)) for i in idx]
    block = level[tuple(slice(lo, hi) for lo, hi in spans)]
    for i, (lo, hi) in zip(idx, spans):
        cols = stencils[:, lo - i + reach : hi - i + reach]
        block = np.tensordot(block, cols, axes=([0], [1]))
    # an order-d stencil fits iff its half-width ceil(d/2) <= the node's margin
    alphas = _multi_indices(a_max, grid.dim)
    fits = (alphas <= [2 * min(i, grid.npts - 1 - i) for i in idx]).all(axis=1)
    table.capped = not fits.all()
    kept = alphas[fits]
    scale = np.array([grid.spacing**d for d in range(a_max + 1)])[kept.sum(axis=1)]
    vals = block[tuple(kept.T)] / scale
    table.spatial = dict(zip(map(tuple, kept.tolist()), vals.tolist()))
    series = slab.values[(slice(None),) + idx]
    for k in range(1, k_max + 1):
        w = (k + 1) // 2
        if k_o - w < 0 or k_o + w > slab.nlevels - 1:
            table.capped = True
            continue
        table.time[k] = float(_stencils(k)[k] @ series[k_o - w : k_o + w + 1]) / slab.dt**k
    return table


@dataclass
class GrowthFit(Row):
    """Minimal pair (C, H) bounding the factorial-normalized derivatives.

    H is the largest spatial root ``ratio^(1/|alpha|)`` (falling back to the
    time roots when every spatial entry vanishes), so it is the smallest
    geometric growth rate admissible; C >= 1 is then the smallest prefactor
    covering both families at that H.
    """

    fitted_c: float
    fitted_h: float
    rho: float
    u_center: float
    n_spatial: int
    n_time: int


def normalized_spatial_roots(table: DerivativeTable, rho: float) -> dict:
    """``(|D^alpha u| rho^|alpha| / (|alpha|! u_c))^(1/|alpha|)`` per entry."""
    if table.u_center <= 0:
        raise ParameterError("u at the vertex must be positive")
    out = {}
    for alpha, val in table.spatial.items():
        s = sum(alpha)
        ratio = abs(val) * rho**s / (math.factorial(s) * table.u_center)
        out[alpha] = ratio ** (1.0 / s)
    return out


def _time_ratio(table: DerivativeTable, rho: float, k: int) -> float:
    return (
        abs(table.time[k])
        * rho ** (2 * k)
        / (math.factorial(2 * k) * table.u_center ** (1 - k))
    )


def fit_derivative_growth(table: DerivativeTable, rho: float) -> GrowthFit:
    """Fit the growth bound ``|D^alpha u| <= C H^|alpha| |alpha|! u_c / rho^|alpha|``.

    The time family is covered through ``|d^k u/dt^k| <= C H^(2k) (2k)!
    u_c^(1-k) / rho^(2k)``.  An all-zero table yields (C, H) = (1, 0).  The
    maxima are numpy reductions, so a NaN entry is never skipped: it makes C
    NaN, and H too wherever H reads it.
    """
    if not table.spatial and not table.time:
        raise ParameterError("empty derivative table")
    roots = normalized_spatial_roots(table, rho)
    H = float(np.max([0.0, *roots.values()]))
    time_ratios = {k: _time_ratio(table, rho, k) for k in table.time}
    if H == 0.0:  # every spatial root vanishes: H from the nonzero time roots
        time_roots = [r ** (1.0 / (2 * k)) for k, r in time_ratios.items() if r != 0]
        H = float(np.max([0.0, *time_roots]))
    C = 1.0 if H == 0.0 else float(np.max([
        1.0,
        *(root ** sum(alpha) / H ** sum(alpha) for alpha, root in roots.items()),
        *(r / H ** (2 * k) for k, r in time_ratios.items()),
    ]))
    return GrowthFit(
        fitted_c=C,
        fitted_h=H,
        rho=rho,
        u_center=table.u_center,
        n_spatial=len(table.spatial),
        n_time=len(table.time),
    )


def intrinsic_rescale(slab: SpaceTimeSlab, x_o, t_o: float, rho: float) -> SpaceTimeSlab:
    """Change variables to the unit solution v on the edge-2 cube.

    The returned slab holds ``v = u/u_c`` on a grid of edge 2 and spacing
    ``h/rho`` (exact node reuse; rho must be a whole number of cells), with
    times ``(t - t_o)/(u_c rho^2)`` for the stored levels of the intrinsic
    window ``(t_o - theta rho^2/16, t_o]`` (eps 0.1, q 2), which always holds
    the vertex level.  When it holds fewer than three levels, earlier levels
    pad it (count recorded as meta ``n_padded``); the equation holds on the
    padded range too, only the sandwich bound is specific to the window.
    ParameterError unless u is finite and positive near the vertex.

    Meta records ``u_center``, ``theta``, ``tau_scale``, ``v_min``/``v_max``
    and the backward-difference equation residual.
    """
    grid = slab.grid
    cells = rho / grid.spacing
    if abs(cells - round(cells)) > 1e-9 or round(cells) < 1:
        raise GeometryError("rho must be a whole number of cells for node reuse")
    idx = grid.index_of(x_o)
    k_hi = slab.level_index(t_o)
    t_o = float(slab.times[k_hi])
    u_c = float(slab.values[k_hi][idx])
    if u_c <= 0:
        raise ParameterError("u at the vertex must be positive")
    base = grid.cube_slices(Cube(tuple(float(c) for c in x_o), rho))
    theta, window = _intrinsic_window(slab, base, x_o, k_hi, rho, _Q, _EPS)
    slices = grid.cube_slices(Cube(tuple(float(c) for c in x_o), 2.0 * rho))
    n_padded = max(0, 3 - window.size)
    k_lo = int(window[0]) - n_padded
    if k_lo < 0:
        raise GeometryError("slab holds too few levels below the vertex time")
    tau_scale = u_c * rho**2
    times = (slab.times[k_lo : k_hi + 1] - t_o) / tau_scale
    vals = slab.values[(slice(k_lo, k_hi + 1),) + slices] / u_c
    vals.setflags(write=False)
    vgrid = Grid.regular(grid.dim, 2.0, grid.spacing / rho)
    meta = {
        "u_center": u_c,
        "theta": theta,
        "tau_scale": tau_scale,
        "vertex": tuple(float(c) for c in x_o),
        "t_o": t_o,
        "rho": rho,
        "n_padded": n_padded,
        "v_min": float(vals.min()),
        "v_max": float(vals.max()),
    }
    out = SpaceTimeSlab(vgrid, times, vals, meta=meta)
    out.meta["residual"] = rescale_residual(out)
    return out


def rescale_residual(v_slab: SpaceTimeSlab) -> float:
    """Max interior defect of ``v_tau - (1/v) Lap v + |Dv|^2/v^2``.

    The time derivative is the first-order backward difference ``(v_k -
    v_(k-1))/dt`` on every slab, whatever made it: sampled slabs name no
    scheme, and the solvers march BDF2, so besides the spatial chain-rule
    mismatch (O(h^2)) the residual carries an O(dt) time-difference term.
    It is not the solver's own defect (``solvers.residual_norm``).  Every
    term is formed at the interior nodes only (the gradient by
    :func:`logdiff.grid.squared_gradient_at`).  A NaN node makes it NaN.
    """
    g, inner = v_slab.grid, interior_slices(v_slab.grid)
    later = v_slab.values[1:]
    v = later[(slice(None),) + inner]
    vt = np.diff(v_slab.values[(slice(None),) + inner], axis=0) / v_slab.dt
    gsq = squared_gradient_at(later, g, inner)
    return float(np.abs(vt - laplacian(later, g) / v + gsq / v**2).max())


@dataclass
class SupBoundsReport(Row):
    """Discrete sup norms of Dv and v_t over a shrunken sub-cylinder.

    ``coef_low = 1/v_max`` and ``coef_high = 1/v_min`` bound the equation
    coefficient 1/v from below and above on the sub-cylinder.
    """

    sigma: float
    depth: float
    n_levels: int
    sup_dv: float
    sup_vt: float
    v_min: float
    v_max: float
    coef_low: float
    coef_high: float


def rescaled_sup_bounds(v_slab: SpaceTimeSlab, sigma: float) -> SupBoundsReport:
    """Sup norms over ``K_(2 sigma) x (-sigma * depth, 0]`` of a rescaled slab.

    ``depth = -times[0]`` is the slab's full backward reach, and the
    sub-window's levels come from :meth:`SpaceTimeSlab.window_indices`.
    Time derivatives use second-order differences along stored levels.  Both
    derivatives are computed on the box's nodes only
    (:func:`logdiff.grid.squared_gradient_at` in space), from the levels their
    differences read.  The sups are numpy reductions over the stacked levels,
    so a NaN node makes them NaN.
    """
    if not 0.0 < sigma <= 1.0:
        raise ParameterError("sigma must lie in (0, 1]")
    g = v_slab.grid
    full_depth = float(-v_slab.times[0])
    if full_depth <= 0:
        raise ParameterError("depth must be positive")
    levels = v_slab.window_indices(-sigma * full_depth, 0.0)
    sl = g.cube_slices(Cube(g.center, 2.0 * sigma))
    box = (slice(None),) + sl
    # time differences read the level before the window and the slab's last three
    first = max(0, min(int(levels[0]) - 1, v_slab.nlevels - 3))
    later = v_slab.values[(slice(first, None),) + sl]
    vt = np.gradient(later, v_slab.dt, axis=0, edge_order=2 if v_slab.nlevels >= 3 else 1)
    v = v_slab.values[levels[0] : levels[-1] + 1]
    sup_dv = float(np.sqrt(squared_gradient_at(v, g, sl)).max())
    sup_vt = float(np.abs(vt[levels - first]).max())
    v_min = float(v[box].min())
    v_max = float(v[box].max())
    return SupBoundsReport(
        sigma=sigma,
        depth=full_depth,
        n_levels=int(levels.size),
        sup_dv=sup_dv,
        sup_vt=sup_vt,
        v_min=v_min,
        v_max=v_max,
        coef_low=1.0 / v_max,
        coef_high=1.0 / v_min,
    )


@dataclass
class AnalyticityReport(Row):
    """One vertex's analyticity evidence: table fit plus rescaled sups."""

    x_o: tuple
    t_o: float
    rho: float
    u_center: float
    fitted_c: float
    fitted_h: float
    sup_dv: float
    sup_vt: float
    rescale_residual: float
    capped: bool
    table: DerivativeTable | None = field(default=None, repr=False, metadata={"row": False})

    def to_row(self) -> dict:
        row = super().to_row()
        if self.table is not None:
            for alpha, val in sorted(self.table.spatial.items()):
                row["d_" + "_".join(str(a) for a in alpha)] = val
            for k, val in sorted(self.table.time.items()):
                row[f"t_{k}"] = val
        return row


def analyticity_report(
    slab: SpaceTimeSlab, x_o, t_o: float, rho: float
) -> AnalyticityReport:
    """Full single-vertex workflow: table, growth fit, rescale, sup bounds."""
    table = derivative_table(slab, x_o, t_o, a_max=_A_MAX, k_max=_K_MAX)
    fit = fit_derivative_growth(table, rho)
    v_slab = intrinsic_rescale(slab, x_o, t_o, rho)
    sups = rescaled_sup_bounds(v_slab, _SIGMA)
    return AnalyticityReport(
        x_o=table.x_o,
        t_o=table.t_o,
        rho=rho,
        u_center=table.u_center,
        fitted_c=fit.fitted_c,
        fitted_h=fit.fitted_h,
        sup_dv=sups.sup_dv,
        sup_vt=sups.sup_vt,
        rescale_residual=float(v_slab.meta["residual"]),
        capped=table.capped,
        table=table,
    )
