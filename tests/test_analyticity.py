"""Derivative tables, growth fits, intrinsic rescaling, and sup bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdiff import (
    Cube,
    ExpSteady,
    GeometryError,
    Grid,
    Lump2D,
    ParameterError,
    analyticity_report,
    derivative_table,
    fit_derivative_growth,
    intrinsic_rescale,
    normalized_spatial_roots,
    rescale_residual,
    rescaled_sup_bounds,
)
from logdiff.analyticity import DerivativeTable
from logdiff.grid import SpaceTimeSlab

LUMP = Lump2D(c=1.0, T=1.0)

# closed-form partial derivatives of the c=1, T=1 lump at the origin, t=0
LUMP_DERIVS = {
    (2, 0): -32.0,
    (0, 2): -32.0,
    (2, 2): 192.0,
    (4, 0): 576.0,
    (0, 4): 576.0,
    (4, 2): -4608.0,
    (2, 4): -4608.0,
    (6, 0): -23040.0,
    (0, 6): -23040.0,
}


@pytest.fixture(scope="module")
def lump_table():
    g = Grid.regular(2, 1.0, 1.0 / 64)
    slab = LUMP.sample_slab(g, np.linspace(-0.1, 0.1, 5))
    return derivative_table(slab, (0.0, 0.0), 0.0, a_max=6, k_max=3)


def test_lump_derivative_table_matches_closed_form(lump_table):
    tab = lump_table
    assert tab.u_center == pytest.approx(8.0)
    tol = {2: 1e-3, 4: 6e-3, 6: 3e-2}
    for alpha, expect in LUMP_DERIVS.items():
        got = tab.spatial[alpha]
        assert got == pytest.approx(expect, rel=tol[sum(alpha)]), alpha
    # odd derivatives vanish by symmetry
    assert abs(tab.spatial[(1, 0)]) < 1e-8
    assert abs(tab.spatial[(3, 2)]) < 1e-4 * abs(LUMP_DERIVS[(2, 2)])


def test_lump_time_derivatives(lump_table):
    # u is linear in t: first derivative -8, higher ones vanish
    assert lump_table.time[1] == pytest.approx(-8.0, rel=1e-9)
    assert abs(lump_table.time[2]) < 1e-6
    assert abs(lump_table.time[3]) < 1e-4
    assert not lump_table.capped


def test_table_capped_near_boundary():
    g = Grid.regular(2, 1.0, 1.0 / 16)
    slab = LUMP.sample_slab(g, np.linspace(0.0, 0.1, 3))
    tab = derivative_table(slab, (0.4375, 0.0), 0.05, a_max=6, k_max=1)
    assert tab.capped


def test_normalized_roots_and_growth_fit(lump_table):
    roots = normalized_spatial_roots(lump_table, 1.0)
    # |alpha| = 2 dominates: (32 / (2 * 8))^(1/2) = sqrt(2)
    top = max(roots.values())
    assert top == pytest.approx(np.sqrt(2.0), rel=2e-3)
    assert all(v <= 2.0 for v in roots.values())
    fit = fit_derivative_growth(lump_table, 1.0)
    assert fit.fitted_h == pytest.approx(np.sqrt(2.0), rel=2e-3)
    assert fit.fitted_c >= 1.0


def test_exp_growth_fit_tight():
    sol = ExpSteady(a=(1.0, 0.0), scale=1.0)
    g = Grid.regular(2, 1.0, 1.0 / 64)
    slab = sol.sample_slab(g, np.linspace(0.0, 0.2, 5))
    tab = derivative_table(slab, (0.0, 0.0), 0.1, a_max=6, k_max=2)
    fit = fit_derivative_growth(tab, 1.0)
    h = g.spacing
    assert fit.fitted_h <= 1.0 + h * h


def test_intrinsic_rescale_shape_and_residual(lump_slab_64):
    v = intrinsic_rescale(lump_slab_64, (0.0, 0.0), 0.5, 0.25)
    assert v.grid.dim == 2
    assert v.grid.edge == pytest.approx(2.0)
    assert v.values.max() == pytest.approx(v.meta["v_max"])
    # vertex value normalizes to 1
    c = v.grid.index_of((0.0, 0.0))
    assert v.values[-1][c] == pytest.approx(1.0, rel=1e-12)
    assert v.meta["residual"] == pytest.approx(rescale_residual(v))
    assert v.meta["n_padded"] >= 0
    assert v.nlevels >= 3


def test_intrinsic_rescale_residual_shrinks_with_mesh(lump_slab_32, lump_slab_64):
    r32 = intrinsic_rescale(lump_slab_32, (0.0, 0.0), 0.5, 0.25).meta["residual"]
    r64 = intrinsic_rescale(lump_slab_64, (0.0, 0.0), 0.5, 0.25).meta["residual"]
    assert r64 < r32
    assert r64 < 0.05


def test_intrinsic_rescale_geometry_guards(lump_slab_32):
    with pytest.raises(GeometryError):
        intrinsic_rescale(lump_slab_32, (0.0, 0.0), 0.5, 0.21)  # not whole cells
    with pytest.raises(GeometryError):
        intrinsic_rescale(lump_slab_32, (0.45, 0.0), 0.5, 0.25)  # cube off grid


def test_rescaled_sup_bounds(lump_slab_64):
    v = intrinsic_rescale(lump_slab_64, (0.0, 0.0), 0.5, 0.25)
    full = rescaled_sup_bounds(v, 1.0)
    half = rescaled_sup_bounds(v, 0.5)
    assert np.isfinite(full.sup_dv) and full.sup_dv > 0
    assert np.isfinite(full.sup_vt)
    assert half.sup_dv <= full.sup_dv + 1e-12
    assert full.coef_low <= full.coef_high
    assert full.coef_low == pytest.approx(1.0 / full.v_max)
    with pytest.raises(ParameterError):
        rescaled_sup_bounds(v, 0.0)


def test_analyticity_report_end_to_end(lump_slab_64):
    rep = analyticity_report(lump_slab_64, (0.0, 0.0), 0.5, 0.25)
    assert np.isfinite(rep.fitted_h) and rep.fitted_h > 0
    assert np.isfinite(rep.fitted_c)
    assert np.isfinite(rep.sup_dv) and rep.sup_dv > 0
    assert rep.rescale_residual < 0.1
    row = rep.to_row()
    assert row["x_o"] == "0.0;0.0"
    assert any(k.startswith("d_") for k in row)


# --- derivative tables against the composed 1D stencils they replaced -------


def composed_weights(order, spacing):
    w = (order + 1) // 2
    z = np.arange(-w, w + 1, dtype=float)
    rhs = np.zeros(2 * w + 1)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(np.vander(z, 2 * w + 1, increasing=True).T, rhs) / spacing**order


def composed_table(slab, x_o, t_o, a_max, k_max):
    """Per entry: the fit test, then one 1D stencil per axis, innermost first."""
    grid = slab.grid
    idx = grid.index_of(x_o)
    k_o = slab.level_index(t_o)
    level = slab.values[k_o]
    spatial, time, capped = {}, {}, False
    for alpha in itertools.product(range(a_max + 1), repeat=grid.dim):
        if not 0 < sum(alpha) <= a_max:
            continue
        if not all(
            d == 0 or (i - (d + 1) // 2 >= 0 and i + (d + 1) // 2 <= grid.npts - 1)
            for d, i in zip(alpha, idx)
        ):
            capped = True
            continue
        out = level
        for axis in reversed(range(grid.dim)):
            d, i = alpha[axis], idx[axis]
            if d == 0:
                out = np.take(out, i, axis=axis)
            else:
                w = (d + 1) // 2
                window = np.take(out, range(i - w, i + w + 1), axis=axis)
                out = np.tensordot(window, composed_weights(d, grid.spacing), axes=([axis], [0]))
        spatial[alpha] = float(out)
    series = slab.values[(slice(None),) + idx]
    for k in range(1, k_max + 1):
        w = (k + 1) // 2
        if k_o - w < 0 or k_o + w > slab.nlevels - 1:
            capped = True
            continue
        time[k] = float(composed_weights(k, slab.dt) @ series[k_o - w : k_o + w + 1])
    return spatial, time, capped


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_derivative_table_matches_composed_stencils(dim, data):
    cells = data.draw(st.integers(4, {1: 40, 2: 16, 3: 8}[dim]), label="cells")
    nlevels = data.draw(st.integers(2, 7), label="levels")
    a_max = data.draw(st.integers(1, 6), label="a_max")
    k_max = data.draw(st.integers(0, 3), label="k_max")
    # vertices anywhere, the grid edge included, so that tables are capped
    idx = [data.draw(st.integers(0, cells), label=f"idx{d}") for d in range(dim)]
    k_o = data.draw(st.integers(0, nlevels - 1), label="k_o")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    grid = Grid.regular(dim, 1.0, 1.0 / cells)
    times = np.linspace(0.0, 0.5, nlevels)
    # a smooth positive field, so that low orders do not cancel to roundoff
    mesh = grid.meshgrid()
    rng = np.random.default_rng(seed)
    freq = rng.uniform(0.5, 2.0, dim)
    values = np.stack(
        [2.0 + t + np.cos(sum(f * x for f, x in zip(freq, mesh)) + t) for t in times]
    )
    slab = SpaceTimeSlab(grid, times, values)
    x_o = tuple(float(grid.axis(d)[i]) for d, i in enumerate(idx))
    table = derivative_table(slab, x_o, float(times[k_o]), a_max=a_max, k_max=k_max)
    spatial, time, capped = composed_table(slab, x_o, float(times[k_o]), a_max, k_max)
    assert table.capped == capped
    assert list(table.spatial) == list(spatial)
    assert list(table.time) == list(time)
    # Per order, 1e-10 relative to the largest entry of that order (single
    # entries may vanish by symmetry), or the roundoff of the stencil sum,
    # ~ eps * sum|w| * max|u| / h^order with sum|w| <= 4, if that is larger.
    umax = np.abs(values[k_o]).max()
    for order in range(1, min(a_max, 3) + 1):
        keys = [a for a in spatial if sum(a) == order]
        scale = max((abs(spatial[a]) for a in keys), default=0.0)
        tol = max(1e-10 * scale, 1e-14 * umax / grid.spacing**order)
        for a in keys:
            assert abs(table.spatial[a] - spatial[a]) <= tol, a
    for k, val in time.items():
        floor = 1e-14 * np.abs(values).max() / slab.dt**k
        assert table.time[k] == pytest.approx(val, rel=1e-10, abs=floor), k


# --- NaN samples reach the sup bounds and the residual ----------------------


@pytest.mark.parametrize("level", [-1, 6])
def test_rescaled_sup_bounds_and_residual_propagate_nan(level):
    grid = Grid.regular(2, 2.0, 2.0 / 16)
    times = np.linspace(-1.0, 0.0, 9)
    values = np.ones((9,) + grid.shape)
    values[level, 8, 9] = np.nan  # next to the center, inside K_(2 sigma)
    v_slab = SpaceTimeSlab(grid, times, values)
    report = rescaled_sup_bounds(v_slab, 0.5)
    assert report.n_levels == 5  # t = -0.5 .. 0, so level 6 (t = -0.25) is inside
    for name in ("sup_dv", "sup_vt", "v_min", "v_max", "coef_low", "coef_high"):
        assert np.isnan(getattr(report, name)), name
    assert np.isnan(rescale_residual(v_slab))


@pytest.mark.parametrize("nlevels", [2, 3, 4, 9])
@pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0])
def test_rescaled_sup_vt_is_the_whole_box_gradient_at_the_window(nlevels, sigma):
    # differencing only the levels the sub-window needs gives numpy's gradient
    # of every level of the box there, bit for bit
    grid = Grid.regular(2, 2.0, 2.0 / 8)
    times = np.linspace(-1.0, 0.0, nlevels)
    values = 1.0 + np.random.default_rng(nlevels).random((nlevels,) + grid.shape)
    report = rescaled_sup_bounds(SpaceTimeSlab(grid, times, values), sigma)
    box = (slice(None),) + grid.cube_slices(Cube(grid.center, 2.0 * sigma))
    vt = np.gradient(values[box], times[1] - times[0], axis=0, edge_order=min(2, nlevels - 1))
    assert report.sup_vt == np.abs(vt[times >= -sigma - 1e-12]).max()


# --- a NaN near the vertex is never skipped ----------------------------------


@pytest.mark.parametrize(
    "spatial", [{(1,): 2.0, (2,): math.nan}, {(2,): math.nan, (1,): 2.0}]
)
def test_fit_derivative_growth_is_nan_whatever_the_order(spatial):
    table = DerivativeTable(
        x_o=(0.0,), t_o=0.0, u_center=1.0, spacing=0.25, dt=1.0, a_max=2, k_max=0,
        spatial=spatial,
    )
    fit = fit_derivative_growth(table, 1.0)
    assert math.isnan(fit.fitted_h) and math.isnan(fit.fitted_c)


@pytest.mark.parametrize("measure", [intrinsic_rescale, analyticity_report])
def test_nan_near_the_vertex_is_rejected(lump_slab_64, measure):
    # a node inside K_rho next to the vertex (0, 0), at the vertex level
    values = lump_slab_64.values.copy()
    values[lump_slab_64.level_index(0.5), 33, 32] = np.nan
    slab = SpaceTimeSlab(lump_slab_64.grid, lump_slab_64.times, values)
    with pytest.raises(ParameterError, match="finite and positive near the vertex"):
        measure(slab, (0.0, 0.0), 0.5, 0.25)


def test_intrinsic_window_holds_the_vertex_level_at_tiny_theta():
    # the flat-zero data u = exp(-(|x|^2 + delta^2)^(-1/2)), delta = 0.01, held
    # for 33 levels: theta = 3.3e-7 puts no other level in the window, which
    # still holds the vertex level, so two levels pad it to three
    grid = Grid.regular(2, 1.0, 1.0 / 32)
    X, Y = grid.meshgrid()
    u = np.exp(-((X**2 + Y**2 + 0.01**2) ** -0.5))
    times = np.linspace(0.0, 0.5, 33)
    slab = SpaceTimeSlab(grid, times, np.broadcast_to(u, (33,) + grid.shape))
    v = intrinsic_rescale(slab, (0.0, 0.0), 0.5, 1.0 / 8)
    assert v.meta["theta"] == pytest.approx(3.3e-7, rel=0.05)
    assert v.meta["n_padded"] == 2
    assert v.nlevels == 3
