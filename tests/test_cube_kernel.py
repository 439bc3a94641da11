"""The chunked cube kernel against the per-level loops it replaced.

Every slab functional reads its cube and window through
``functionals._cube_chunks``.  The reference implementations below are the
straightforward loops over whole-grid levels (one ``integrate`` call per
level, full-grid gradients, Python sums over the time trapezoid).  Both must
agree to roundoff on random snapped cubes, windows and dims 1-3, for the
real chunk budget and for budgets small enough that every window spans
several chunks.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdiff import (
    Cube,
    Cutoff,
    Grid,
    Lump2D,
    QuasilinearFlux,
    ess_sup,
    flux_l1,
    gradient_energy,
    oscillation,
)
from logdiff import functionals
from logdiff.cli import _VERIFY
from logdiff.grid import (
    SpaceTimeSlab, average, gradient, gradient_at, integrate, laplacian
)
from logdiff.harnack import (
    DistributionalCheck,
    check_pointwise_harnack,
    distributional_identity_check,
    sample_cylinders,
)
from logdiff.limit_m import _l1_distance, _uniform_norms

from conftest import peak_bytes

REL = 1e-12


# --- reference implementations: one whole-grid level at a time -------------


def _levels(slab, window):
    return slab.window_indices(float(window[0]), float(window[1]))


def _time_weights(ts):
    w = np.full(ts.size, ts[1] - ts[0] if ts.size > 1 else 0.0)
    if ts.size > 1:
        w[0] *= 0.5
        w[-1] *= 0.5
    return w


def ref_ess(slab, cube, window, reduce):
    sl = slab.grid.cube_slices(cube)
    idx = _levels(slab, window)
    return float(reduce(slab.values[idx][(slice(None),) + sl]))


def ref_log_oscillation(slab, cube, window, M, p):
    best = 0.0
    for k in _levels(slab, window):
        integrand = np.abs(np.log(slab.values[k] / M)) ** p
        best = max(best, average(integrand, slab.grid, cube) ** (1.0 / p))
    return best


def ref_power_oscillation(slab, cube, window, M, m, p, normalized):
    best = 0.0
    for k in _levels(slab, window):
        with np.errstate(invalid="ignore"):  # u > M outside the cube
            integrand = ((1.0 - (slab.values[k] / M) ** m) / m) ** p
        quad = average if normalized else integrate
        best = max(best, quad(integrand, slab.grid, cube) ** (1.0 / p))
    return best


def ref_masses(slab, center, edge, window):
    cube = Cube(center, edge)
    return [integrate(slab.values[k], slab.grid, cube) for k in _levels(slab, window)]


def ref_gradient_energy(slab, cutoff, window, power):
    grid = slab.grid
    idx = _levels(slab, window)
    zeta_sq = cutoff.sample(grid).values ** 2
    total = 0.0
    for w, k in zip(_time_weights(slab.times[idx]), idx):
        u = slab.values[k]
        gsq = sum(g**2 for g in gradient(u, grid))
        total += w * integrate(zeta_sq * gsq / u**power, grid, cutoff.support_cube())
    return total


def ref_flux_l1(slab, flux, center, rho, window):
    grid = slab.grid
    idx = _levels(slab, window)
    pts = grid.points().reshape(-1, grid.dim)
    total = 0.0
    for w, k in zip(_time_weights(slab.times[idx]), idx):
        u = slab.values[k]
        grads = gradient(u, grid)
        if flux.kind == "log-diffusion":
            mag = np.sqrt(sum(g**2 for g in grads)) / u
        elif flux.kind == "pme":
            mag = u ** (flux.m - 1.0) * np.sqrt(sum(g**2 for g in grads))
        else:
            coef = u ** (flux.m - 1.0) if flux.m != 0.0 else 1.0 / u
            comps = []
            for a_d, g in zip(flux.a, grads):
                a_val = (
                    a_d(pts, float(slab.times[k])).reshape(grid.shape)
                    if callable(a_d)
                    else float(a_d)
                )
                comps.append((a_val * coef * g) ** 2)
            mag = np.sqrt(sum(comps))
        total += w * integrate(mag, grid, Cube(center, rho))
    return total / rho


def ref_l1_distance(a, b, cube, window):
    idx_a, idx_b = _levels(a, window), _levels(b, window)
    total = 0.0
    for w, ka, kb in zip(_time_weights(a.times[idx_a]), idx_a, idx_b):
        total += w * integrate(np.abs(a.values[ka] - b.values[kb]), a.grid, cube)
    return total


def ref_sup_norm(slab, cube, power, transform):
    best = 0.0
    for k in range(slab.nlevels):
        vals = transform(slab.values[k])
        best = max(best, integrate(np.abs(vals) ** power, slab.grid, cube) ** (1.0 / power))
    return best


# --- comparison -------------------------------------------------------------

FLUXES = (
    QuasilinearFlux(kind="log-diffusion"),
    QuasilinearFlux(kind="pme", m=0.4),
    QuasilinearFlux(
        kind="diagonal-perturbed",
        m=0.3,
        a=(lambda p, t: 1.0 + 0.2 * p[:, 0] + t, 1.5, 0.75),
        c_o=0.5,
        c_1=3.0,
    ),
)


def _slab(dim, cells, nlevels, seed, t_start=0.0):
    grid = Grid.regular(dim, 1.0, 1.0 / cells)
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 2.0, (nlevels,) + grid.shape)
    return SpaceTimeSlab(grid, t_start + np.linspace(0.0, 1.0, nlevels), values)


def _compare_all(slab, other, center_idx, half, k0, k1):
    """Every kernel-based functional against its reference on one geometry.

    The cube of edge ``2 * half`` cells is centered on node ``center_idx``;
    the window runs from level ``k0`` to level ``k1``.
    """
    grid = slab.grid
    center = tuple(float(grid.axis(d)[i]) for d, i in enumerate(center_idx))
    edge = 2 * half * grid.spacing
    window = (float(slab.times[k0]), float(slab.times[k1]))
    cube, span = Cube(center, edge), (window[0] - 1e-3, window[1])
    M = 1.1 * ref_ess(slab, cube, span, np.max)

    assert ess_sup(slab, cube, span) == ref_ess(slab, cube, span, np.max)
    for p in (1.0, 2.5):
        assert oscillation(slab, cube, span, M, p) == pytest.approx(
            ref_log_oscillation(slab, cube, span, M, p), rel=REL
        )
        for normalized in (False, True):
            assert oscillation(slab, cube, span, M, p, 0.3, normalized) == pytest.approx(
                ref_power_oscillation(slab, cube, span, M, 0.3, p, normalized), rel=REL
            )
    comparison = Cube(center, edge)
    assert _l1_distance(slab, other, comparison, window) == pytest.approx(
        ref_l1_distance(slab, other, comparison, window), rel=REL
    )
    u_norm, w_norm = _uniform_norms(slab, comparison, 0.2, 2.0, 5.0)
    assert u_norm == pytest.approx(ref_sup_norm(slab, comparison, 2.0, lambda u: u), rel=REL)
    assert w_norm == pytest.approx(
        ref_sup_norm(slab, comparison, 5.0, lambda u: (u**0.2 - 1.0) / 0.2), rel=REL
    )
    if k1 == k0:
        return
    cutoff = Cutoff(center, edge / 1.5, 0.5)  # the support is the cube
    assert gradient_energy(slab, cutoff, window) == pytest.approx(
        ref_gradient_energy(slab, cutoff, window, 2), rel=REL
    )
    assert gradient_energy(slab, cutoff, window, 0.3) == pytest.approx(
        ref_gradient_energy(slab, cutoff, window, 2.0 - 0.15), rel=REL
    )
    for flux in FLUXES:
        flux = QuasilinearFlux(
            kind=flux.kind, m=flux.m, a=flux.a[: grid.dim], c_o=flux.c_o, c_1=flux.c_1
        )
        assert flux_l1(slab, flux, center, edge, window) == pytest.approx(
            ref_flux_l1(slab, flux, center, edge, window), rel=REL
        )


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_kernel_matches_per_level_loops(dim, data):
    cells = data.draw(st.integers(2, {1: 40, 2: 14, 3: 6}[dim]), label="cells")
    nlevels = data.draw(st.integers(2, 9), label="levels")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    half = data.draw(st.integers(1, cells // 2), label="half")
    center_idx = [
        data.draw(st.integers(half, cells - half), label=f"center{d}") for d in range(dim)
    ]
    k0 = data.draw(st.integers(0, nlevels - 1), label="k0")
    k1 = data.draw(st.integers(k0, nlevels - 1), label="k1")
    slab = _slab(dim, cells, nlevels, seed)
    other = _slab(dim, cells, nlevels, seed + 1)
    # the real budget, then budgets of one level and of a few levels per chunk
    for budget in (functionals._CHUNK_DOUBLES, 1, 3 ** (dim + 1)):
        with mock.patch.object(functionals, "_CHUNK_DOUBLES", budget):
            _compare_all(slab, other, center_idx, half, k0, k1)


def test_kernel_window_spanning_several_chunks():
    # 65^2 nodes per level: the real budget holds 7 levels, so 40 levels
    # make six chunks, the gradient blocks included
    slab = _slab(2, 64, 40, seed=3)
    other = _slab(2, 64, 40, seed=4)
    per_level = 65**2
    assert 40 > functionals._CHUNK_DOUBLES // per_level > 1
    _compare_all(slab, other, (32, 32), 32, 0, 39)
    _compare_all(slab, other, (20, 40), 12, 3, 37)


# --- the fused probe kernel against the composed public functionals ---------


def probe_block(slab, center, rho, sigma, window):
    """A probe's ``_probe_stats`` block: its snapped cubes and the window's levels."""
    outer, inner = functionals._probe_nodes(slab.grid, center, rho, sigma)
    return (center, rho, outer, inner, _levels(slab, window))


def probe_stats(slab, center, rho, sigma, window, m=0.0):
    """The kernel on a batch of one probe."""
    block = probe_block(slab, center, rho, sigma, window)
    return functionals._only(functionals._probe_stats(slab, [block], m))


def composed_probe_stats(slab, center, rho, sigma, window, m):
    cube2 = Cube(center, 2.0 * rho)
    M = ess_sup(slab, cube2, window)
    assert ref_ess(slab, cube2, window, np.min) > 0.0
    # the log means at m = 0, the plain power integrals otherwise
    l1, l2 = (
        oscillation(slab, cube2, window, M, p, m / 2.0, normalized=m == 0.0) for p in (1.0, 2.0)
    )
    return (
        M,
        l1,
        l2,
        max(ref_masses(slab, center, (1.0 + sigma) * rho, window)),
        min(ref_masses(slab, center, 2.0 * rho, window)),
    )


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_probe_stats_match_composed_functionals(dim, data):
    cells = data.draw(st.integers(4, {1: 40, 2: 14, 3: 6}[dim]), label="cells")
    nlevels = data.draw(st.integers(2, 9), label="levels")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    # rho is an even number of cells, so K_rho snaps exactly; K_1.5rho may not
    cells_rho = 2 * data.draw(st.integers(1, cells // 4), label="rho/2")
    center_idx = [
        data.draw(st.integers(cells_rho, cells - cells_rho), label=f"center{d}")
        for d in range(dim)
    ]
    k0 = data.draw(st.integers(0, nlevels - 1), label="k0")
    k1 = data.draw(st.integers(k0, nlevels - 1), label="k1")
    slab = _slab(dim, cells, nlevels, seed)
    grid = slab.grid
    center = tuple(float(grid.axis(d)[i]) for d, i in enumerate(center_idx))
    rho = cells_rho * grid.spacing
    window = (float(slab.times[k0]) - 1e-3, float(slab.times[k1]))
    for budget in (functionals._CHUNK_DOUBLES, 1, 3 ** (dim + 1)):
        with mock.patch.object(functionals, "_CHUNK_DOUBLES", budget):
            for m in (0.0, 0.2):
                for sigma in (0.0, 0.5):
                    got = probe_stats(slab, center, rho, sigma, window, m)
                    want = composed_probe_stats(slab, center, rho, sigma, window, m)
                    assert got == pytest.approx(want, rel=REL), (budget, m, sigma)


@pytest.mark.parametrize("m", [0.0, 0.2])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_probe_stats_shift_identity_across_chunks(m, sigma):
    """Per-level chunks move their sums from each level's own max to the
    cylinder's through ``g_M = c + a g_t``; the result is the one-chunk one."""
    slab = _slab(2, 16, 9, seed=11)
    # levels scaled by 1e-3 ... 1e5, so c is large on every chunk but the last
    values = slab.values * np.logspace(-3.0, 5.0, 9)[:, None, None]
    slab = SpaceTimeSlab(slab.grid, slab.times, values)
    one = probe_stats(slab, (0.0, 0.0), 0.25, sigma, (0.0, 1.0), m)
    with mock.patch.object(functionals, "_CHUNK_DOUBLES", 1):
        per_level = probe_stats(slab, (0.0, 0.0), 0.25, sigma, (0.0, 1.0), m)
    assert per_level == pytest.approx(one, rel=1e-12)
    assert one[0] == values[:, 4:13, 4:13].max()


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_probe_batch_equals_its_batches_of_one(dim, data):
    """One sweep over a batch's bounding block gives each probe its own statistics:
    probes may overlap, put K_2rho on a grid face or hold one level."""
    cells = data.draw(st.integers(4, {1: 40, 2: 14, 3: 6}[dim]), label="cells")
    nlevels = data.draw(st.integers(2, 9), label="levels")
    slab = _slab(dim, cells, nlevels, data.draw(st.integers(0, 2**16), label="seed"))
    grid = slab.grid
    m = data.draw(st.sampled_from((0.0, 0.2)), label="m")
    probes = []
    for j in range(data.draw(st.integers(1, 12), label="probes")):
        # rho an even number of cells, so K_rho snaps exactly; K_2rho may reach a face
        cells_rho = 2 * data.draw(st.integers(1, cells // 4), label=f"rho/2 {j}")
        center = tuple(
            float(grid.axis(d)[data.draw(st.integers(cells_rho, cells - cells_rho), label=f"c{d} {j}")])
            for d in range(dim)
        )
        k0 = data.draw(st.integers(0, nlevels - 1), label=f"k0 {j}")
        k1 = data.draw(st.integers(k0, nlevels - 1), label=f"k1 {j}")
        window = (float(slab.times[k0]) - 1e-3, float(slab.times[k1]))
        sigma = data.draw(st.sampled_from((0.0, 0.5)), label=f"sigma {j}")
        probes.append((center, cells_rho * grid.spacing, sigma, window))
    blocks = [probe_block(slab, *probe) for probe in probes]
    for budget in (functionals._CHUNK_DOUBLES, 1, 3 ** (dim + 1)):
        with mock.patch.object(functionals, "_CHUNK_DOUBLES", budget):
            got = functionals._probe_stats(slab, blocks, m)
            for stats, block, probe in zip(got, blocks, probes):
                one = functionals._only(functionals._probe_stats(slab, [block], m))
                assert stats == pytest.approx(one, rel=1e-12), (budget, probe)
                want = composed_probe_stats(slab, *probe, m)
                assert stats == pytest.approx(want, rel=REL), (budget, probe)


def test_sweep_memory_is_one_chunk_budget_however_many_levels():
    """The benchmark's batch, 300 probes on a 64^2 lump: the sweep holds its two chunk
    buffers (768 KiB in all) and O(probes) more, far below the slab, and holds no more
    at four times the levels, as a probes x levels table would."""
    grid = Grid.regular(2, 1.0, 1.0 / 64)
    small = _slab(2, 4, 2, seed=0)  # a first sweep, so one-time allocations are not counted
    functionals._probe_stats(small, [probe_block(small, (0.0, 0.0), 0.25, 0.5, (0.0, 1.0))])
    peaks = []
    for nlevels in (129, 513):
        times = np.linspace(0.0, 0.5, nlevels)
        slab = Lump2D(c=1.0, T=1.0).sample_slab(grid, times)
        probes = sample_cylinders(grid, times, np.random.default_rng(0), 300)
        blocks = [probe_block(slab, c, rho, 0.5, (t0, t1)) for c, rho, t0, t1 in probes]
        for m in (0.0, 0.2):
            _, peak = peak_bytes(functionals._probe_stats, slab, blocks, m)
            assert peak < 2 * 3 * 8 * functionals._CHUNK_DOUBLES < slab.values.nbytes
            peaks.append(peak)
    assert max(peaks[2:]) <= min(peaks[:2]) + (1 << 16)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_probe_stats_reject_bad_values(bad):
    clean = _slab(2, 16, 5, seed=7)
    values = clean.values.copy()
    values[3, 9, 7] = bad  # inside K_2rho x window for the probe below
    slab = SpaceTimeSlab(clean.grid, clean.times, values)
    # at budget 1 every level is a chunk, so level 3 is not the first one
    for budget in (functionals._CHUNK_DOUBLES, 1):
        with mock.patch.object(functionals, "_CHUNK_DOUBLES", budget):
            with pytest.raises(functionals.ParameterError, match="finite and positive"):
                probe_stats(slab, (0.0, 0.0), 0.25, 0.5, (0.0, 1.0))
            # a neighbour whose K_2rho (nodes 10..14 on axis 0) misses the node shares the
            # batch's bounding block and sweep, but neither its error nor a NaN
            batch = [
                probe_block(slab, (0.0, 0.0), 0.25, 0.5, (0.0, 1.0)),
                probe_block(slab, (0.25, 0.0), 0.125, 0.5, (0.0, 1.0)),
            ]
            got = functionals._probe_stats(slab, batch, 0.2)
            want = functionals._probe_stats(clean, batch, 0.2)
            assert isinstance(got[0], functionals.ParameterError)
            assert "edge 0.5 at (0, 0)" in str(got[0])
            assert np.all(np.isfinite(got[1]))
            assert got[1] == pytest.approx(want[1], rel=1e-12)
            assert got[1] == pytest.approx(probe_stats(clean, (0.25, 0.0), 0.125, 0.5, (0.0, 1.0), 0.2), rel=1e-12)
    with pytest.raises(functionals.ParameterError, match="sigma"):
        probe_stats(_slab(2, 16, 5, seed=7), (0.0, 0.0), 0.25, 1.0, (0.0, 1.0))


# --- probe-local checkers: cube-only work, equal bit for bit ----------------


def _face_block(data, cells, dim):
    """Node slices of a block that touches the low face, the high face, both
    or neither along each axis (at least two nodes per axis)."""
    nodes = []
    for d in range(dim):
        touch = data.draw(st.sampled_from(("low", "high", "both", "inner")), label=f"touch{d}")
        lo = 0 if touch in ("low", "both") else data.draw(st.integers(1, cells - 2), label=f"lo{d}")
        if touch in ("high", "both"):
            hi = cells + 1
        else:
            hi = data.draw(st.integers(lo + 2, cells), label=f"hi{d}")
        nodes.append(slice(lo, hi))
    return tuple(nodes)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_cube_gradients_equal_whole_level_gradient(dim, data):
    cells = data.draw(st.integers(3, {1: 40, 2: 12, 3: 6}[dim]), label="cells")
    nlevels = data.draw(st.integers(2, 6), label="levels")
    slab = _slab(dim, cells, nlevels, data.draw(st.integers(0, 2**16), label="seed"))
    nodes = _face_block(data, cells, dim)
    levels = np.arange(nlevels)
    axes = tuple(range(1, dim + 1))

    def numpy_gradient(values):
        out = np.gradient(values, slab.grid.spacing, axis=axes, edge_order=2)
        return (out,) if dim == 1 else tuple(out)

    for w, ref in zip(gradient(slab.values, slab.grid), numpy_gradient(slab.values)):
        assert np.array_equal(w, ref)
    for budget in (functionals._CHUNK_DOUBLES, 1):
        with mock.patch.object(functionals, "_CHUNK_DOUBLES", budget):
            for ks, u in functionals._cube_chunks(slab, nodes, levels):
                assert np.array_equal(u, slab.values[(ks,) + nodes])
                whole = numpy_gradient(slab.values[ks])
                grads = gradient_at(slab.values[ks], slab.grid, nodes)
                assert len(grads) == dim
                for g, w in zip(grads, whole):
                    assert np.array_equal(g, w[(slice(None),) + nodes])


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_cutoff_block_equals_whole_grid_sample(dim, data):
    cells = data.draw(st.integers(3, {1: 40, 2: 16, 3: 8}[dim]), label="cells")
    grid = Grid.regular(dim, 1.0, 1.0 / cells)
    center = tuple(
        data.draw(st.floats(-0.6, 0.6), label=f"center{d}") for d in range(dim)
    )
    rho = data.draw(st.floats(0.05, 0.8), label="rho")
    sigma = data.draw(st.sampled_from((0.0, 0.25, 0.5, 0.9)), label="sigma")
    cutoff = Cutoff(center, rho, sigma)
    nodes = _face_block(data, cells, dim)
    whole = cutoff.sample(grid).values
    mesh = grid.meshgrid()
    dist = np.abs(mesh[0] - center[0])
    for x, c in zip(mesh[1:], center[1:]):
        dist = np.maximum(dist, np.abs(x - c))
    assert np.array_equal(whole, cutoff.eval(dist))
    assert np.array_equal(cutoff.block(grid, nodes), whole[nodes])


def ref_distributional(cutoff, grid, v_field=None, consts=(0.5, 2.0, 10.0)):
    """The whole-grid body: cutoff, Laplacian and logs sampled on every node."""
    support = cutoff.support_cube()
    zeta = cutoff.sample(grid).values
    lap = np.pad(laplacian(zeta, grid), 1)  # zero on the boundary, which the support avoids
    base = integrate(lap, grid, support)
    if v_field is not None:
        v = np.asarray(v_field)
    else:
        v = np.exp(grid.meshgrid()[0])
    worst = 0.0
    for M in consts:
        diff = np.log(v) - np.log(v / float(M))
        worst = max(worst, abs(integrate(lap * diff, grid, support)))
    one = abs(integrate(lap * (np.log(v) - np.log(v / 1.0)), grid, support))
    return DistributionalCheck(
        spacing=grid.spacing,
        laplacian_defect=abs(base),
        shift_defect=worst,
        shift_defect_at_one=one,
    )


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_distributional_check_equals_whole_grid_body(dim, data):
    cells = data.draw(st.integers(6, {1: 48, 2: 24, 3: 10}[dim]), label="cells")
    grid = Grid.regular(dim, 1.0, 1.0 / cells)
    h = grid.spacing
    # support strictly inside the grid: one node of margin on each side
    half = data.draw(st.integers(1, (cells - 2) // 2), label="half-support")
    center = tuple(
        float(grid.axis(d)[data.draw(st.integers(half + 1, cells - half - 1), label=f"c{d}")])
        for d in range(dim)
    )
    sigma = data.draw(st.sampled_from((0.0, 0.5)), label="sigma")
    cutoff = Cutoff(center, 2 * half * h / (1.0 + sigma), sigma)
    if data.draw(st.booleans(), label="given v"):
        v = np.random.default_rng(data.draw(st.integers(0, 2**16))).uniform(0.5, 3.0, grid.shape)
    else:
        v = None
    consts = (0.5, 2.0, data.draw(st.floats(0.1, 50.0), label="M"))
    got = distributional_identity_check(cutoff, grid, v_field=v, consts=consts)
    assert got == ref_distributional(cutoff, grid, v_field=v, consts=consts)


def test_distributional_check_reads_v_on_the_support_only():
    grid = Grid.regular(2, 1.0, 1.0 / 16)
    cutoff = Cutoff((0.0, 0.0), 0.25, 0.5)  # support: nodes 5..11 on each axis
    v = np.ones(grid.shape)
    v[0, 0] = -1.0
    assert distributional_identity_check(cutoff, grid, v_field=v).shift_defect_at_one == 0.0
    v[8, 5] = 0.0
    with pytest.raises(functionals.ParameterError, match="positive on the support"):
        distributional_identity_check(cutoff, grid, v_field=v)


@pytest.mark.parametrize("p", [5.0, 6.0, 7.0, 5.5])
def test_pointwise_lambda_p_matches_pow(p):
    grid = Grid.regular(2, 1.0, 1.0 / 32)
    slab = Lump2D(c=1.0, T=1.0).sample_slab(grid, np.linspace(0.0, 0.5, 65))
    x_o, rho, t_o = (0.0, 0.0), 1.0 / 16, 0.5
    rep = check_pointwise_harnack(slab, x_o, t_o, rho, p=p)
    assert not rep.degenerate
    # reference: the p-mean of |ln(u/M)| over K_8rho with numpy's pow
    cube, window = Cube(x_o, 8.0 * rho), (t_o - rep.theta * (8.0 * rho) ** 2, t_o)
    assert rep.sup_u == ess_sup(slab, cube, window)
    best = 0.0
    for k in _levels(slab, window):
        a = np.abs(np.log(slab.values[k] / rep.sup_u)) ** p
        best = max(best, average(a, grid, cube) ** (1.0 / p))
    assert rep.lambda_p == pytest.approx(best, rel=1e-15, abs=0.0)
    assert rep.lambda_p == oscillation(slab, cube, window, rep.sup_u, p)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_pointwise_kernel_matches_ess_sup_and_pow(dim, data):
    """The one-read pointwise pass: ``M`` is the sup, ``lambda_p`` the p-mean of
    ``|ln(u/M)|`` with numpy's pow, whole ``p`` by squaring or not, in any chunking."""
    cells = data.draw(st.integers(2, {1: 40, 2: 14, 3: 6}[dim]), label="cells")
    nlevels = data.draw(st.integers(2, 9), label="levels")
    slab = _slab(dim, cells, nlevels, data.draw(st.integers(0, 2**16), label="seed"))
    half = data.draw(st.integers(1, cells // 2), label="half")
    center = tuple(
        float(slab.grid.axis(d)[data.draw(st.integers(half, cells - half), label=f"center{d}")])
        for d in range(dim)
    )
    k0 = data.draw(st.integers(0, nlevels - 1), label="k0")
    k1 = data.draw(st.integers(k0, nlevels - 1), label="k1")
    cube = Cube(center, 2 * half * slab.grid.spacing)
    window = (float(slab.times[k0]) - 1e-3, float(slab.times[k1]))
    for budget in (functionals._CHUNK_DOUBLES, 1, 3 ** (dim + 1)):
        with mock.patch.object(functionals, "_CHUNK_DOUBLES", budget):
            for p in (5.0, 6.0, 7.0, 5.5):
                M, lam = functionals._power_oscillation(
                    slab, cube, slab.grid.cube_slices(cube), _levels(slab, window), None, p
                )
                assert M == ess_sup(slab, cube, window)
                want = ref_log_oscillation(slab, cube, window, M, p)
                assert lam == pytest.approx(want, rel=1e-14), (budget, p)


def test_pointwise_kernel_sup_node_is_no_nan_at_a_fractional_p():
    # on this 1D slab math.log(M) falls an ulp below np.log(M), so ln M - ln u at the
    # sup node was a tiny negative number and its 5.5th power NaN
    slab = _slab(1, 2, 6, 8)
    cube, window = Cube((0.0,), 1.0), (float(slab.times[5]) - 1e-3, float(slab.times[5]))
    nodes, levels = slab.grid.cube_slices(cube), _levels(slab, window)
    M, lam = functionals._power_oscillation(slab, cube, nodes, levels, None, 5.5)
    assert lam == pytest.approx(ref_log_oscillation(slab, cube, window, M, 5.5), rel=1e-14)


# (Grid.cube_slices, SpaceTimeSlab.window_indices) calls per probe of each verify kind:
# a kernel that resolves a cube or a window itself again raises a count here
RESOLVES_PER_PROBE = {
    "l1": (2, 1),
    "l1-pme": (2, 1),
    "energy": (3, 1),
    "energy-pme": (3, 1),
    "flux": (3, 1),
    "distributional": (1, 0),
    "pointwise": (4, 3),
}


@pytest.mark.parametrize("kind", list(RESOLVES_PER_PROBE))
def test_each_checker_resolves_its_probe_geometry_once(kind, monkeypatch):
    grid = Grid.regular(2, 1.0, 1.0 / 32)
    slab = Lump2D(c=1.0, T=1.0).sample_slab(grid, np.linspace(0.0, 0.5, 65))
    opts = SimpleNamespace(
        m=0.3, sigma=0.5, q=2.0, eps=0.1, p=5.0, r=2.0, flux=QuasilinearFlux("log-diffusion")
    )
    calls = dict.fromkeys(("cube_slices", "window_indices"), 0)
    for owner, name in ((Grid, "cube_slices"), (SpaceTimeSlab, "window_indices")):

        def counted(*args, method=getattr(owner, name), name=name):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, counted)
    rho = 1.0 / 16 if kind == "pointwise" else 1.0 / 8  # K_8rho, K_4rho fit the grid
    (rep,) = _VERIFY[kind][2](slab, [((0.0, 0.0), rho, (0.25, 0.5))], opts)
    assert not getattr(rep, "degenerate", False)
    assert (calls["cube_slices"], calls["window_indices"]) == RESOLVES_PER_PROBE[kind]


def test_functional_set_resolves_each_cube_once(monkeypatch):
    # K_2rho, K_(1+sigma)rho and K_rho, which the two scales and two ratios share
    slab = Lump2D(c=1.0, T=1.0).sample_slab(Grid.regular(2, 1.0, 1.0 / 32), np.linspace(0.0, 0.5, 65))
    calls = []
    cube_slices = Grid.cube_slices
    monkeypatch.setattr(Grid, "cube_slices", lambda grid, cube: calls.append(cube) or cube_slices(grid, cube))
    functionals.functional_set(slab, (0.0, 0.0), 0.125, (0.25, 0.5), m=0.3)
    assert sorted(cube.edge for cube in calls) == [0.125, 0.1875, 0.25]


def test_pointwise_reads_a_one_chunk_cylinder_once(monkeypatch):
    grid = Grid.regular(2, 1.0, 1.0 / 32)
    slab = Lump2D(c=1.0, T=1.0).sample_slab(grid, np.linspace(0.0, 0.5, 65))
    x_o, t_o, rho = (0.0, 0.0), 0.5, 1.0 / 16
    nodes = slab.grid.cube_slices(Cube(x_o, 8.0 * rho))
    reads, chunks = [], functionals._cube_chunks

    def counted(slab, nodes, levels):
        reads.append((nodes, levels.size))
        return chunks(slab, nodes, levels)

    monkeypatch.setattr(functionals, "_cube_chunks", counted)
    rep = check_pointwise_harnack(slab, x_o, t_o, rho)
    assert not rep.degenerate
    (size,) = [n for seen, n in reads if seen == nodes]  # the sup and lambda_p read it once
    assert 1 < size and 17**2 * size <= functionals._CHUNK_DOUBLES


def _raise(*args, **kwargs):
    raise AssertionError("whole-grid helper called by a verify probe")


def test_verify_probes_never_touch_the_whole_grid(monkeypatch):
    grid = Grid.regular(2, 1.0, 1.0 / 64)
    slab = Lump2D(c=1.0, T=1.0).sample_slab(grid, np.linspace(0.0, 0.5, 65))
    fluxes = (
        QuasilinearFlux("log-diffusion"),
        QuasilinearFlux(
            "diagonal-perturbed", m=0.3, a=(lambda p, t: 1.0 + 0.2 * p[:, 0] + t, 1.5),
            c_o=0.5, c_1=2.0,
        ),
    )
    monkeypatch.setattr(Grid, "meshgrid", _raise)
    monkeypatch.setattr(Grid, "points", _raise)
    monkeypatch.setattr(Cutoff, "sample", _raise)
    center, window = (0.0, 0.0), (0.25, 0.5)
    for kind, (cls, scale, check) in _VERIFY.items():
        for flux in fluxes if kind == "flux" else (None,):
            opts = SimpleNamespace(sigma=0.5, m=0.2, q=2.0, p=5.0, r=2.0, eps=0.1, flux=flux)
            (rep,) = check(slab, [(center, 0.25 * scale, window)], opts)
            assert isinstance(rep, cls), kind
            assert not getattr(rep, "degenerate", False), kind
