"""Implicit solver behavior: fixed points, positivity, convergence, delegation,
zero-flux conservation, Krylov Newton steps against a direct-solve reference,
the spectral preconditioner against a dense solve."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logdiff import (
    BarenblattFD,
    Cube,
    ExpSteady,
    Field,
    Grid,
    Lump2D,
    ParameterError,
    QuasilinearFlux,
    SolverConfig,
    SolverError,
    SpaceTimeSlab,
    fit_order,
    integrate,
    interior_slices,
    laplacian,
    residual_norm,
    solve_log_diffusion,
    solve_porous_medium,
    solve_quasilinear,
    write_slab,
)
from logdiff import solvers
from logdiff.solvers import _KINDS, _BetaOperator, _Faces, _Spectral

from conftest import lump_grid


def test_exp_steady_is_a_fixed_point():
    # ln u affine => the discrete operator is exactly zero, so each step
    # reproduces the initial data to the Newton tolerance
    sol = ExpSteady(a=(1.0, 0.5), scale=1.0)
    g = Grid.regular(2, 1.0, 1.0 / 16)
    config = SolverConfig(dt=0.05, boundary="dirichlet-from-oracle", boundary_values=sol)
    slab = solve_log_diffusion(sol.sample(g, 0.0), config, 0.25)
    drift = np.abs(slab.values - slab.values[0]).max()
    assert drift <= 1e-9


def test_constant_data_stays_constant():
    g = lump_grid(16)
    config = SolverConfig(
        dt=0.05,
        boundary="dirichlet-from-oracle",
        boundary_values=lambda pts, t: np.full(len(pts), 2.0),
    )
    initial = Field(g, np.full(g.shape, 2.0))
    slab = solve_log_diffusion(initial, config, 0.25)
    assert np.abs(slab.values - 2.0).max() <= 1e-10


def test_constant_data_neumann():
    g = lump_grid(16)
    config = SolverConfig(dt=0.05, boundary="neumann-zero-flux")
    initial = Field(g, np.full(g.shape, 2.0))
    slab = solve_porous_medium(initial, 0.5, config, 0.25)
    assert np.abs(slab.values - 2.0).max() <= 1e-10


def test_positivity_preserved_on_lump():
    sol = Lump2D(c=1.0, T=1.0)
    g = lump_grid(16)
    config = SolverConfig(dt=1.0 / 64, boundary="dirichlet-from-oracle", boundary_values=sol)
    slab = solve_log_diffusion(sol.sample(g, 0.0), config, 0.5)
    assert slab.values.min() > 0.0
    assert slab.nlevels == 33


def test_lump_convergence_coarse_pair():
    sol = Lump2D(c=1.0, T=1.0)
    errs, hs = [], []
    for cells in (8, 16, 32):
        g = lump_grid(cells)
        h = g.spacing
        config = SolverConfig(
            dt=16 * h * h, boundary="dirichlet-from-oracle", boundary_values=sol
        )
        slab = solve_log_diffusion(sol.sample(g, 0.0), config, 0.25)
        exact = sol.sample(g, 0.25).values
        inner = (slice(1, -1),) * 2
        errs.append(np.abs(slab.values[-1] - exact)[inner].max() / exact.max())
        hs.append(h)
    order = fit_order(hs, errs)
    assert 1.5 <= order <= 2.5


def test_barenblatt_pme_accuracy():
    sol = BarenblattFD(m=0.5, T=1.0, C=1.0)
    g = lump_grid(32)
    config = SolverConfig(
        dt=1.0 / 256, boundary="dirichlet-from-oracle", boundary_values=sol
    )
    slab = solve_porous_medium(sol.sample(g, 0.0), 0.5, config, 0.125)
    exact = sol.sample(g, 0.125).values
    rel = np.abs(slab.values[-1] - exact).max() / exact.max()
    assert rel <= 5e-3


def test_bdf2_time_order_on_the_barenblatt_is_two():
    # the lump is linear in t, so only a solution like this one sees time error;
    # the reference is the same mesh at dt = h^2/4 (backward Euler read 1.00 / 1.08)
    sol, grid = BarenblattFD(m=0.5), lump_grid(32)
    h2 = grid.spacing**2
    initial = sol.sample(grid, 0.0)

    def final(dt):
        config = SolverConfig(dt=dt, boundary="dirichlet-from-oracle", boundary_values=sol)
        slab = solve_porous_medium(initial, 0.5, config, 32 * h2)
        assert slab.meta["scheme"] == "bdf2"
        return slab.values[-1]

    ref = final(h2 / 4)
    errs = [np.abs(final(f * h2) - ref).max() for f in (8, 4, 2)]
    orders = np.log2(np.divide(errs[:-1], errs[1:]))
    assert (orders >= 1.8).all(), orders


def test_quasilinear_model_kinds_delegate_exactly():
    sol = Lump2D(c=1.0, T=1.0)
    g = lump_grid(8)
    config = SolverConfig(dt=0.05, boundary="dirichlet-from-oracle", boundary_values=sol)
    initial = sol.sample(g, 0.0)
    direct = solve_log_diffusion(initial, config, 0.2)
    via_flux = solve_quasilinear(
        initial, QuasilinearFlux(kind="log-diffusion", a=(1.0, 1.0)), config, 0.2
    )
    assert np.array_equal(direct.values, via_flux.values)
    direct_pme = solve_porous_medium(initial, 0.4, config, 0.2)
    via_flux_pme = solve_quasilinear(
        initial, QuasilinearFlux(kind="pme", m=0.4, a=(1.0, 1.0)), config, 0.2
    )
    assert np.array_equal(direct_pme.values, via_flux_pme.values)


def test_quasilinear_diagonal_close_to_model():
    # unit diagonal coefficients: div(a grad beta(u)) at a = 1 is the model
    # operator, so the slabs agree bit for bit
    sol = Lump2D(c=1.0, T=1.0)
    g = lump_grid(16)
    config = SolverConfig(dt=1.0 / 64, boundary="dirichlet-from-oracle", boundary_values=sol)
    initial = sol.sample(g, 0.0)
    model = solve_log_diffusion(initial, config, 0.125)
    flux = QuasilinearFlux(kind="diagonal-perturbed", m=0.0, a=(1.0, 1.0))
    pert = solve_quasilinear(initial, flux, config, 0.125)
    assert np.array_equal(model.values, pert.values)
    model = solve_porous_medium(initial, 0.5, config, 0.125)
    flux = QuasilinearFlux(kind="diagonal-perturbed", m=0.5, a=(1.0, 1.0))
    pert = solve_quasilinear(initial, flux, config, 0.125)
    assert np.array_equal(model.values, pert.values)


def test_quasilinear_rejects_bad_inputs():
    g = lump_grid(8)
    initial = Field(g, np.full(g.shape, 1.0))
    config = SolverConfig(dt=0.05, boundary="neumann-zero-flux")
    with pytest.raises(ParameterError):
        solve_quasilinear(
            initial, QuasilinearFlux(kind="diagonal-perturbed", a=(1.0,)), config, 0.1
        )
    for value in (-1.0, np.nan, np.inf):
        bad = Field(g, np.full(g.shape, value))
        with pytest.raises(ParameterError, match="initial data must be finite"):
            solve_log_diffusion(bad, config, 0.1)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_bad_dirichlet_values_are_rejected_naming_the_time(bad):
    g = lump_grid(8)

    def boundary(pts, t):
        return np.full(len(pts), 2.0 if t < 0.1 else bad)

    config = SolverConfig(dt=0.05, boundary_values=boundary)
    initial = Field(g, np.full(g.shape, 2.0))
    with pytest.raises(ParameterError, match="finite and positive at t=0.1$"):
        solve_log_diffusion(initial, config, 0.2)


def test_pme_exponent_validated():
    g = lump_grid(8)
    initial = Field(g, np.full(g.shape, 1.0))
    config = SolverConfig(dt=0.05, boundary="neumann-zero-flux")
    for bad_m in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ParameterError):
            solve_porous_medium(initial, bad_m, config, 0.1)


@pytest.mark.parametrize(
    "control",
    [
        {"dt": np.nan}, {"dt": np.inf}, {"dt": 0.0},
        {"newton_tol": np.nan}, {"newton_tol": 0.0}, {"newton_tol": -1e-10},
        {"newton_tol": np.inf}, {"newton_max_iter": 0}, {"max_damping": -1},
    ],
    ids=lambda control: "{}={}".format(*next(iter(control.items()))),
)
def test_bad_solver_controls_are_rejected(control):
    with pytest.raises(ParameterError, match=f"^{next(iter(control))} must be"):
        SolverConfig(**{"dt": 0.05, "boundary": "neumann-zero-flux", **control})


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_non_finite_horizon_is_rejected(horizon):
    g = lump_grid(8)
    config = SolverConfig(dt=0.05, boundary="neumann-zero-flux")
    with pytest.raises(ParameterError, match="horizon must be finite"):
        solve_log_diffusion(Field(g, np.ones(g.shape)), config, horizon)


def test_newton_budget_failure_raises():
    sol = Lump2D(c=1.0, T=1.0)
    g = lump_grid(16)
    config = SolverConfig(
        dt=0.2,
        newton_tol=1e-14,
        newton_max_iter=1,
        max_damping=0,
        boundary="dirichlet-from-oracle",
        boundary_values=sol,
    )
    with pytest.raises(SolverError) as err:
        solve_log_diffusion(sol.sample(g, 0.0), config, 0.4)
    # the first step fails: its Newton start's residual, then one iteration's
    assert (err.value.step, err.value.time) == (0, 0.2)
    start, last = err.value.history
    assert start > last == err.value.residual > 0


def test_residual_norm_small_on_solved_slab(lump_slab_32):
    flux = QuasilinearFlux(kind="log-diffusion", a=(1.0, 1.0))
    res = residual_norm(lump_slab_32, flux)
    # backward-Euler defect at interior rows is the Newton tolerance / dt
    assert res <= 1e-6


def test_residual_norm_replays_the_scheme_the_slab_names():
    # on a solution that varies in time the two schemes' defects differ by the
    # time error, so replaying the wrong one is seen
    sol, grid = BarenblattFD(m=0.5), lump_grid(16)
    config = SolverConfig(dt=4 * grid.spacing**2, boundary_values=sol)
    slab = solve_porous_medium(sol.sample(grid, 0.0), 0.5, config, 8 * config.dt)
    flux = QuasilinearFlux("pme", m=0.5)
    assert slab.meta["scheme"] == "bdf2"
    assert residual_norm(slab, flux) <= 1e-6

    def renamed(**scheme):
        meta = {k: v for k, v in slab.meta.items() if k != "scheme"}
        return SpaceTimeSlab(grid, slab.times, slab.values, meta={**meta, **scheme})

    unnamed = residual_norm(renamed(), flux)  # older files and sampled slabs
    assert unnamed == residual_norm(renamed(scheme="backward-euler"), flux) > 1e-2
    with pytest.raises(ParameterError, match="unknown time scheme 'bdf3'"):
        residual_norm(renamed(scheme="bdf3"), flux)


def test_slab_meta_records_run(lump_slab_32):
    meta = lump_slab_32.meta
    assert meta["equation"] == "log-diffusion"
    assert meta["boundary"] == "dirichlet-from-oracle"
    assert lump_slab_32.dt == pytest.approx(16.0 / 32**2)
    # deterministic counters, so reruns stay byte-identical
    assert meta["newton_iters"] == 34
    assert meta["linear_iters"] == 133
    assert meta["linear_cap_hits"] == 0
    # steps started from 1, 2, 3 and 4 levels; step 0 has only u_0, step 1 no ∇^2
    assert meta["start_levels"] == [1, 2, 1, 28]


@pytest.mark.parametrize("cells", [32, 64, 128])
def test_lump_solves_never_fall_back_or_hit_the_linear_cap(cells, request):
    meta = request.getfixturevalue(f"lump_slab_{cells}").meta
    assert [meta["predictor_fallbacks"], meta["linear_cap_hits"]] == [0, 0]


@pytest.mark.parametrize("cells, most", [(64, 100), (128, 335)])
def test_lump_newton_counts_stay_low_with_the_adaptive_start(cells, most, request):
    # the quadratic start took 130 on 64^2; a fixed cubic took 375 on 128^2,
    # as its coefficients (sum |c| = 15) amplify level noise at the tolerance
    assert request.getfixturevalue(f"lump_slab_{cells}").meta["newton_iters"] <= most


def _difference_table(levels):
    """``[u_k, ∇u_k, ...]`` of ``_march`` after the levels ``levels``."""
    table = [levels[0]]
    for level in levels[1:]:
        table = solvers._push_level(table, level)
    return table


@settings(max_examples=60, deadline=None)
@given(k=st.integers(4, 12), seed=st.integers(0, 2**32 - 1))
def test_newton_start_is_exact_on_cubic_levels(k, seed):
    # seeded coefficients, not drawn ones: drawn integers can zero some ∇^p u_k
    # at every node, and that order then looks exact though ∇^p u_(k+1) is not
    coefs = np.random.default_rng(seed).uniform(-10.0, 10.0, (4, 5))
    steps = np.arange(k + 2.0)[:, None]
    levels = sum(c * steps**j for j, c in enumerate(coefs))
    guess = solvers._newton_start(_difference_table(levels[:-1]))[0]
    assert np.abs(guess - levels[-1]).max() <= 1e-12 * np.abs(levels).max()


@settings(max_examples=60, deadline=None)
@given(
    amplitude=arrays(np.float64, 5, elements=st.floats(0.1, 10.0)),
    q=st.floats(0.01, 0.45),
    k=st.integers(2, 8),
)
def test_newton_start_keeps_the_last_level_under_fast_decay(amplitude, q, k):
    # |∇^p u_k| = (1/q - 1)^p q^k A grows with p for q < 1/2; 0.45 keeps the
    # ratio at 1.2 or more, far from a roundoff tie (from k = 2, as step 1
    # starts linear)
    levels = amplitude * q ** np.arange(k + 1.0)[:, None]
    guess, p = solvers._newton_start(_difference_table(levels))
    assert p == 1
    assert np.array_equal(guess, levels[-1])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_newton_start_conserves_trapezoid_mass(k, seed):
    W = _Faces(lump_grid(4)).W
    levels = np.random.default_rng(seed).uniform(0.1, 10.0, (k + 1, W.size))
    levels /= (levels @ W)[:, None]
    table = _difference_table(levels)
    guess = solvers._newton_start(table)[0]
    assert abs(W @ guess - 1.0) <= 1e-13 * sum(W @ np.abs(diff) for diff in table)


def _trapezoid_mass(values, grid):
    return integrate(values, grid, Cube(grid.center, grid.edge))


def _wavy_a(points, t):
    """A callable flux coefficient within ``[0.7, 1.3]``."""
    return 1.0 + 0.25 * np.cos(5.0 * points.sum(axis=-1) + t)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize(
    "kind, m, a_0",
    [
        ("log-diffusion", 0.5, 1.0),
        ("pme", 0.5, 1.0),
        ("diagonal-perturbed", 0.5, 1.0),
        ("diagonal-perturbed", 0.0, _wavy_a),
        ("diagonal-perturbed", 0.5, _wavy_a),
    ],
    ids=["log-diffusion", "pme", "diagonal-perturbed", "wavy-m0", "wavy-m0.5"],
)
def test_neumann_conserves_trapezoid_mass(kind, m, a_0, dim):
    grid = Grid.regular(dim, 1.0, 1.0 / (32, 16, 8)[dim - 1])
    initial = BarenblattFD(m=0.5).sample(grid, 0.0)
    config = SolverConfig(dt=4 * grid.spacing**2, boundary="neumann-zero-flux")
    flux = QuasilinearFlux(kind, m=m, a=(a_0, 0.7, 1.3)[:dim], c_o=0.7, c_1=1.3)
    slab = solve_quasilinear(initial, flux, config, 8 * config.dt)
    m0 = _trapezoid_mass(slab.values[0], grid)
    drift = max(abs(_trapezoid_mass(v, grid) - m0) for v in slab.values) / m0
    assert drift <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 2),
    cells=st.integers(2, 8),
    kind=st.sampled_from(["log-diffusion", "pme"]),
    dt_h2=st.floats(0.1, 50.0),
    steps=st.integers(2, 6),
    data=st.data(),
)
def test_bdf2_keeps_neumann_mass_on_random_positive_data(dim, cells, kind, dt_h2, steps, data):
    # every step from the second on is BDF2, whose right-hand side
    # (4 u_k - u_(k-1))/3 has the mass of u_k
    grid = Grid.regular(dim, 1.0, 1.0 / cells)
    values = data.draw(arrays(np.float64, grid.shape, elements=st.floats(0.1, 10.0)))
    config = SolverConfig(dt=dt_h2 * grid.spacing**2, boundary="neumann-zero-flux")
    flux = QuasilinearFlux(kind, m=0.5)
    slab = solve_quasilinear(Field(grid, values), flux, config, steps * config.dt)
    assert slab.meta["scheme"] == "bdf2"
    m0 = _trapezoid_mass(slab.values[0], grid)
    drift = max(abs(_trapezoid_mass(v, grid) - m0) for v in slab.values) / m0
    assert drift <= 1e-13


def test_neumann_spike_keeps_its_mass_through_the_fallback():
    # the spike collapses in one step, so 2 u_1 - u_0 is negative there and
    # that node starts from u_1; the mass holds at a dynamic range of 1e4
    grid = Grid.regular(1, 1.0, 1.0 / 64)
    values = np.ones(grid.shape)
    values[32] = 1e4
    config = SolverConfig(dt=1.0, boundary="neumann-zero-flux")
    slab = solve_log_diffusion(Field(grid, values), config, 8.0)
    assert slab.meta["predictor_fallbacks"] > 0
    assert slab.values.min() > 0
    m0 = _trapezoid_mass(slab.values[0], grid)
    drift = max(abs(_trapezoid_mass(v, grid) - m0) for v in slab.values) / m0
    assert drift <= 1e-13


def test_predictor_falls_back_to_the_last_level_below_the_floor():
    # the narrow lump's peak (800 at c = 0.01) drifts down 12.5 per step, which
    # keeps first differences large and sets p >= 2 on the steps whose order
    # is chosen (k >= 2); the spike beside the corner decays more than halfway
    # per step, so its extrapolation is negative and that node starts from u_k
    lump, grid = Lump2D(c=0.01, T=1.0), lump_grid(16)
    values = lump.sample(grid, 0.0).values.copy()
    values[1, 1] += 100.0
    config = SolverConfig(
        dt=4 * grid.spacing**2, boundary="dirichlet-from-oracle", boundary_values=lump
    )
    slab = solve_log_diffusion(Field(grid, values), config, 8 * config.dt)
    first_two = solve_log_diffusion(Field(grid, values), config, 2 * config.dt)
    assert slab.meta["predictor_fallbacks"] > first_two.meta["predictor_fallbacks"]
    # BDF2's right-hand side (4 u_k - u_(k-1))/3 is negative at the spike on
    # some step, yet every level stays positive and Newton converges
    spike = slab.values[:, 1, 1]
    assert (4 * spike[1:-1] - spike[:-2] < 0).any()
    assert slab.values.min() > 0
    assert residual_norm(slab, QuasilinearFlux("log-diffusion")) <= 1e-6


def test_neumann_flux_form_matches_log_solver_at_second_order():
    # with m = 0 and a = 1, div(a grad ln u) is Lap(ln u) on interior and
    # boundary nodes alike, so the slabs agree bit for bit
    sol = Lump2D(c=1.0, T=1.0)
    flux = QuasilinearFlux(kind="diagonal-perturbed", m=0.0, a=(1.0, 1.0))
    config = SolverConfig(dt=1.0 / 64, boundary="neumann-zero-flux")
    for cells in (16, 32):
        initial = sol.sample(lump_grid(cells), 0.0)
        model = solve_log_diffusion(initial, config, 0.25).values
        assert np.array_equal(model, solve_quasilinear(initial, flux, config, 0.25).values)


def test_coefficient_leaving_structure_interval_midway_raises():
    g = lump_grid(8)
    initial = Field(g, np.full(g.shape, 1.0))
    config = SolverConfig(dt=0.05, boundary="neumann-zero-flux")
    # a_0 = 1 + 4t stays within [1, 1.5] up to t = 0.125
    flux = QuasilinearFlux(
        kind="diagonal-perturbed", a=(lambda x, t: 1.0 + 4.0 * t, 1.0), c_o=1.0, c_1=1.5
    )
    solve_quasilinear(initial, flux, config, 0.1)
    with pytest.raises(ParameterError, match="a_0 leaves"):
        solve_quasilinear(initial, flux, config, 0.25)


def test_non_finite_coefficient_is_rejected():
    # NaN fails no comparison, so a range check alone would let it through
    g = lump_grid(8)
    initial = Field(g, np.full(g.shape, 1.0))
    config = SolverConfig(dt=0.05, boundary="neumann-zero-flux")
    flux = QuasilinearFlux(kind="diagonal-perturbed", a=(1.0, lambda x, t: np.nan))
    with pytest.raises(ParameterError, match="a_1 is not finite"):
        solve_quasilinear(initial, flux, config, 0.1)


def _reference(faces, rows, a=1.0):
    """``(D, L, K)`` from sparse products, for face coefficients ``a``: the
    difference matrix ``(D u)_f = u[right] - u[left]``, ``L = div(a D)`` on
    ``rows`` and ``K = D^T diag(w a) D / h^2`` on ``rows`` x ``rows``."""
    eye = sp.identity(faces.W.size, format="csr")
    D = eye[faces.right] - eye[faces.left]
    h2 = faces.grid.spacing**2
    L = sp.diags(-1.0 / (faces.W[rows] * h2)) @ D[:, rows].T @ sp.diags(faces.w * a) @ D
    K = D[:, rows].T @ sp.diags(faces.w * a / h2) @ D[:, rows]
    return D, sp.csr_matrix(L), sp.csr_matrix(K)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), cells=st.integers(2, 6), data=st.data())
def test_faces_divergence_conserves_and_is_the_standard_stencil_inside(dim, cells, data):
    grid = Grid.regular(dim, 1.0, 1.0 / cells)
    faces = _Faces(grid)
    every = np.arange(faces.W.size)
    finite = st.floats(-1e3, 1e3, allow_subnormal=False)
    phi = data.draw(arrays(np.float64, faces.left.size, elements=finite))
    D = _reference(faces, every)[0]
    div = -(D.T @ (faces.w * phi)) / (faces.W * grid.spacing**2)
    scale = np.abs(faces.w * phi).sum() / grid.spacing**2
    assert abs((faces.W * div).sum()) <= 1e-13 * scale

    u = data.draw(arrays(np.float64, grid.shape, elements=finite))
    L = _BetaOperator(faces, every, QuasilinearFlux("log-diffusion")).L
    inner = interior_slices(grid)
    got = (L @ u.ravel()).reshape(grid.shape)[inner]
    want = laplacian(u, grid)
    tol = 1e-13 * np.abs(u).max() / grid.spacing**2
    assert np.abs(got - want).max() <= tol


def _face_coefficients(faces, a, t):
    """Per face, the coefficient ``a_d`` of its axis at its midpoint at ``t``."""
    pts = faces.grid.points().reshape(-1, faces.grid.dim)
    mid = (0.5 * (pts[faces.left] + pts[faces.right])).reshape(len(a), -1, len(a))
    return np.concatenate([
        np.broadcast_to(a_d(m, t) if callable(a_d) else a_d, len(m)) for a_d, m in zip(a, mid)
    ])


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    cells=st.integers(2, 6),
    boundary=st.sampled_from(["dirichlet-from-oracle", "neumann-zero-flux"]),
    coefficient=st.sampled_from(["ones", "constant", "callable"]),
    t=st.floats(0.0, 10.0),
    dt_h2=st.floats(0.1, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stencil_assembly_matches_the_product_reference(
    dim, cells, boundary, coefficient, t, dt_h2, seed
):
    grid = Grid.regular(dim, 1.0, 1.0 / cells)
    faces = _Faces(grid)
    rows = _unknowns(faces, boundary)
    if coefficient == "ones":
        flux, a = QuasilinearFlux("pme", m=0.5), (1.0,) * dim
    else:
        a = ((_wavy_a if coefficient == "callable" else 1.0), 0.7, 1.3)[:dim]
        flux = QuasilinearFlux("diagonal-perturbed", m=0.5, a=a, c_o=0.7, c_1=1.3)
    dt = dt_h2 * grid.spacing**2
    op = _BetaOperator(faces, rows, flux, dt)
    op.step(t)
    _, L, K = _reference(faces, rows, _face_coefficients(faces, a, t))
    # the same matrices entry for entry, each row in column order
    assert op.L.has_canonical_format and op.A.has_canonical_format
    assert np.array_equal(op.L.toarray(), L.toarray())
    assert np.array_equal(op.A.toarray(), (dt * K).toarray())
    assert (op.A != op.A.T).nnz == 0  # exactly symmetric

    # solve writes the diagonal, and only there, at either step's theta
    off = op.A.toarray() - np.diag(op.A.diagonal())
    assert np.array_equal(op.A.indices[op.diag_at], np.arange(rows.size))
    row_of = np.searchsorted(op.A.indptr, op.diag_at, "right") - 1
    assert np.array_equal(row_of, np.arange(rows.size))
    u = np.random.default_rng(seed).uniform(0.2, 5.0, faces.W.size)
    for theta in (1.0, 1.5):
        op.solve(u, np.zeros(rows.size), 1.0, theta)
        want = op.c_diag + theta * op.W / op.beta_prime(u[rows])
        assert np.array_equal(op.A.diagonal(), want)
        assert np.array_equal(op.A.toarray() - np.diag(op.A.diagonal()), off)


def _unknowns(faces, boundary):
    """Unknown nodes of ``_march``: all under Neumann, W == 1 under Dirichlet."""
    every = np.arange(faces.W.size)
    return every if boundary == "neumann-zero-flux" else every[faces.W == 1.0]


def _dense_jacobian(op, u, rows):
    """``dOp/du`` on the unknowns by complex-step differentiation of ``op.apply``."""
    step = 1e-30
    cols = []
    for j in rows:
        uc = u.astype(complex)
        uc[j] += 1j * step
        cols.append(op.apply(uc).imag / step)
    return np.column_stack(cols)


def _flux(kind, dim):
    return QuasilinearFlux(kind, m=0.5, a=(1.0, 0.7, 1.3)[:dim], c_o=0.7, c_1=1.3)


def _drawn_newton_step(dim, cells, boundary, kind, dt_h2, data):
    """``(op, u, r, atol)``: an operator at dt = ``dt_h2`` h^2, a drawn iterate
    ``u`` and residual ``r``, and ``_march``'s PCG tolerance at ``newton_tol =
    1e-10``."""
    grid = Grid.regular(dim, 1.0, 1.0 / cells)
    faces = _Faces(grid)
    rows = _unknowns(faces, boundary)
    op = _BetaOperator(faces, rows, _flux(kind, dim), dt_h2 * grid.spacing**2)
    op.step(0.0)
    u = data.draw(arrays(np.float64, faces.W.size, elements=st.floats(0.2, 5.0)))
    r = data.draw(arrays(np.float64, rows.size, elements=st.floats(-1.0, 1.0)))
    return op, u, r, 0.01 * 1e-10 * op.W.min()


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    cells=st.integers(2, 5),
    boundary=st.sampled_from(["dirichlet-from-oracle", "neumann-zero-flux"]),
    kind=st.sampled_from(sorted(_KINDS)),
    dt_h2=st.floats(0.1, 50.0),
    theta=st.sampled_from([1.0, 1.5]),
    data=st.data(),
)
def test_krylov_step_meets_stopping_rule(dim, cells, boundary, kind, dt_h2, theta, data):
    op, u, r, atol = _drawn_newton_step(dim, cells, boundary, kind, dt_h2, data)
    faces, rows, W, dt = op.faces, op.rows, op.W, op.dt
    K = _reference(faces, rows)[2]
    assert (K != K.T).nnz == 0  # exactly symmetric
    L_uu = _BetaOperator(faces, rows, QuasilinearFlux("log-diffusion")).L[:, rows]
    assert np.allclose((sp.diags(W) @ L_uu).toarray(), -K.toarray(), rtol=1e-13, atol=0)

    y, iters, converged = op.solve(u.copy(), r, atol, theta)
    if not converged:  # the cap; the damped line search takes the iterate
        assert iters == rows.size
        return
    # PCG solves for y = beta'(u) delta, the linearised change of beta(u), in
    # the step x - (dt/theta) Op(x) = rhs (theta = 3/2: BDF2 after step 1)
    delta = y / op.beta_prime(u[rows])
    J = np.eye(rows.size) - dt / theta * _dense_jacobian(op, u, rows)
    defect = np.abs(W * (J @ delta + r)).max()
    rounding = 1e-14 * np.abs(W * (np.abs(J) @ np.abs(delta))).max()
    assert defect <= atol + rounding


def _pcg_reference(A, b, precond, atol, cap):
    """The reference for ``solvers._pcg``: the same iteration with the stop
    test after the preconditioner, which it therefore also applies to the
    residual that ends the loop; ``_pcg`` must return its result bit for bit."""
    y, res = np.zeros_like(b), b.copy()
    p = precond(res)
    rz = res @ p
    for it in range(cap + 1):
        if (converged := bool(max(res.max(), -res.min()) <= atol)) or it == cap:
            return y, it, converged
        Ap = A @ p
        alpha = rz / (p @ Ap)
        y += alpha * p
        Ap *= alpha
        res -= Ap
        z = precond(res)
        rz, rz_old = res @ z, rz
        p *= rz / rz_old
        p += z


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    cells=st.integers(2, 5),
    boundary=st.sampled_from(["dirichlet-from-oracle", "neumann-zero-flux"]),
    kind=st.sampled_from(sorted(_KINDS)),
    dt_h2=st.floats(0.1, 50.0),
    theta=st.sampled_from([1.0, 1.5]),
    cap=st.sampled_from([0, 1, 2, None]),
    data=st.data(),
)
def test_pcg_preconditions_once_per_iteration(dim, cells, boundary, kind, dt_h2, theta, cap, data):
    op, u, r, atol = _drawn_newton_step(dim, cells, boundary, kind, dt_h2, data)
    with mock.patch.object(solvers, "_pcg", wraps=solvers._pcg) as spy:
        op.solve(u.copy(), r, atol, theta)
    A, b, precond, atol, full_cap = spy.call_args.args  # the system the step solves
    cap = full_cap if cap is None else cap
    applied = 0

    def counted(x):
        nonlocal applied
        applied += 1
        return precond(x)

    for tol in (atol, np.abs(b).max()):  # the second is met by b itself
        applied = 0
        y, iters, converged = solvers._pcg(A, b, counted, tol, cap)
        assert applied == iters
        y_ref, iters_ref, converged_ref = _pcg_reference(A, b, precond, tol, cap)
        assert (iters, converged) == (iters_ref, converged_ref)
        assert np.array_equal(y, y_ref)
    assert (iters, converged, np.abs(y).max()) == (0, True, 0.0)


def _axis_stiffness(faces, rows, axis):
    """The faces of one axis in the reference ``K`` of ``rows``."""
    block = slice(axis * faces.per_axis, (axis + 1) * faces.per_axis)
    D = _reference(faces, rows)[0][block][:, rows]
    return (D.T @ sp.diags(faces.w[block] / faces.grid.spacing**2) @ D).toarray()


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    cells=st.integers(2, 6),
    boundary=st.sampled_from(["dirichlet-from-oracle", "neumann-zero-flux"]),
    dt_h2=st.floats(0.1, 16.0),
    s=st.floats(0.5, 50.0),
    data=st.data(),
)
def test_spectral_preconditioner_is_exact(dim, cells, boundary, dt_h2, s, data):
    # these ranges keep cond(P) below about 1e4, so that the dense solve is
    # itself good to 1e-12; both sides are backward stable to about 1e-15
    grid = Grid.regular(dim, 1.0, 1.0 / cells)
    faces = _Faces(grid)
    rows = _unknowns(faces, boundary)
    dt = dt_h2 * grid.spacing**2
    spectral = _Spectral(faces, rows, dt)
    Q = spectral.Q
    assert np.abs(Q @ Q.T - np.eye(len(Q))).max() <= 1e-14

    parts = [_axis_stiffness(faces, rows, axis) for axis in range(dim)]
    assert np.allclose(sum(parts), _reference(faces, rows)[2].toarray(), rtol=1e-14, atol=0)
    c = data.draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim))
    P = s * np.diag(faces.W[rows]) + dt * sum(c_a * K for c_a, K in zip(c, parts))
    seed = data.draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, rows.size)
    want = np.linalg.solve(P, x)
    got = spectral.inverse(s, c)(x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _flat_zero_initial(cells=64, delta=0.05):
    """ROADMAP E data at alpha = 1: ``exp(-(|x|^2 + delta^2)^(-1/2))``; its range
    on the grid is 1.2e8 at delta = 0.05 and 3.5e20 at delta = 0.02."""
    grid = lump_grid(cells)
    r2 = (grid.points() ** 2).sum(axis=-1)
    return Field(grid, np.exp(-((r2 + delta**2) ** -0.5)))


@pytest.mark.parametrize(
    "flux",
    [
        QuasilinearFlux("log-diffusion"),
        QuasilinearFlux("pme", m=0.3),
        QuasilinearFlux("diagonal-perturbed", m=0.3, a=(1.0, 0.7), c_o=0.7),
    ],
    ids=lambda flux: flux.kind,
)
def test_krylov_steps_stay_few_on_flat_zeros(flux):
    initial = _flat_zero_initial()
    config = SolverConfig(dt=16 * initial.grid.spacing**2, boundary="neumann-zero-flux")
    meta = solve_quasilinear(initial, flux, config, 8 * config.dt).meta
    assert meta["linear_cap_hits"] == 0
    assert meta["linear_iters"] <= 12 * meta["newton_iters"]


@pytest.mark.parametrize("m", [0.0, 0.4, 0.2, 0.15, 0.1, 0.05])
@pytest.mark.parametrize("delta", [0.02, 0.05])
def test_rough_data_converge_with_the_default_budget(delta, m):
    # a Newton step in u, delta = y / beta'(u) with beta'(u) spanning up to 20
    # orders of magnitude, crept here for m in [0.1, 0.2] until the budget ran
    # out at step 1; a step in beta takes 38-40 iterations for the 16 steps
    initial = _flat_zero_initial(32, delta)
    grid = initial.grid
    config = SolverConfig(dt=2 * grid.spacing**2, boundary="neumann-zero-flux")
    flux = QuasilinearFlux("pme", m=m) if m else QuasilinearFlux("log-diffusion")
    slab = solve_quasilinear(initial, flux, config, 1.0 / 32)
    assert slab.meta["newton_iters"] <= 44
    assert (slab.values[1:] > 0).all()
    m0 = _trapezoid_mass(slab.values[0], grid)
    drift = max(abs(_trapezoid_mass(v, grid) - m0) for v in slab.values) / m0
    assert drift <= 1e-13


@pytest.mark.parametrize("c", range(1, 12))
def test_extrapolated_start_costs_few_newton_steps_on_a_coarse_grid(c):
    # dt = 15 h^2 on 2x2 cells damps most modes almost entirely in one step,
    # so a fixed extrapolation overshoots; the adaptive start keeps u_k there
    # from step 2 on (9-10 iterations for every c, against 11 for the
    # quadratic start)
    grid = Grid.regular(2, 1.0, 1.0 / 2)
    initial = Field(grid, 1.5 + np.sin(c * np.arange(9.0)).reshape(grid.shape))
    config = SolverConfig(dt=15 * grid.spacing**2, boundary="neumann-zero-flux")
    flux = QuasilinearFlux("diagonal-perturbed", m=0.5, a=(1.0, 0.7), c_o=0.7)
    slab = solve_quasilinear(initial, flux, config, 4 * config.dt)
    assert slab.meta["newton_iters"] <= 10


@pytest.mark.parametrize("entry", ["import", "verify", "oracle-check"])
def test_the_cli_loads_no_scipy_until_it_solves(entry, tmp_path):
    # the checkers import solvers for QuasilinearFlux and _beta; scipy.sparse
    # loads only where an operator is built
    grid = Grid.regular(2, 1.0, 1.0 / 8)
    slab = Lump2D(c=1.0, T=1.0).sample_slab(grid, np.linspace(0.0, 0.25, 9))
    write_slab(slab, tmp_path / "lump.slab")
    (tmp_path / "verify.ini").write_text("[verify]\nslab = lump.slab\ncount = 3\n")
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "import": None,
        "verify": ["verify", "l1", "--config", str(tmp_path / "verify.ini"), *out],
        "oracle-check": ["oracle-check", "lump2d", "--meshes", "8", "16", *out],
    }[entry]
    run = "" if argv is None else f"assert logdiff.cli.main({argv!r}) == 0; "
    code = f"import sys, logdiff.cli; {run}print('scipy' in sys.modules)"
    src = str(Path(solvers.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip().splitlines()[-1] == "False"


def _direct_solve(self, u, r, atol, theta):
    """The reference Newton step of ``x - (dt/theta) Op(x) = rhs``: SuperLU on
    the complex-step Jacobian, returned as the change of beta, ``y = beta'(u)
    delta``."""
    J = np.eye(self.rows.size) - self.dt / theta * _dense_jacobian(self, u, self.rows)
    return self.beta_prime(u[self.rows]) * spsolve(sp.csc_matrix(J), -r), 0, True


def _reference_case(name):
    """``(flux, initial, config, horizon)`` of one run checked against SuperLU."""
    if name == "lump-16":
        lump, grid = Lump2D(c=1.0, T=1.0), lump_grid(16)
        config = SolverConfig(
            dt=16 * grid.spacing**2, boundary="dirichlet-from-oracle", boundary_values=lump
        )
        return QuasilinearFlux("log-diffusion"), lump.sample(grid, 0.0), config, 0.25
    baren, grid = BarenblattFD(m=0.5), Grid.regular(3, 1.0, 1.0 / 8)
    dt = 4 * grid.spacing**2
    if name.endswith("-N"):
        config = SolverConfig(dt=dt, boundary="neumann-zero-flux")
    else:
        config = SolverConfig(dt=dt, boundary="dirichlet-from-oracle", boundary_values=baren)
    if name == "pme-D":
        flux = QuasilinearFlux("pme", m=0.5)
    elif name == "wavy-N":
        a = (_wavy_a, 0.7, 1.3)
        flux = QuasilinearFlux("diagonal-perturbed", m=0.5, a=a, c_o=0.7, c_1=1.3)
    else:
        flux = QuasilinearFlux("diagonal-perturbed", m=0.5, a=(1.0, 1.0, 1.0))
    return flux, baren.sample(grid, 0.0), config, 8 * dt


@pytest.mark.parametrize("name", ["lump-16", "pme-D", "flux-D", "flux-N", "wavy-N"])
def test_krylov_solves_match_direct_reference(name, monkeypatch):
    flux, initial, config, horizon = _reference_case(name)
    krylov = solve_quasilinear(initial, flux, config, horizon)
    with monkeypatch.context() as patch:
        patch.setattr(_BetaOperator, "solve", _direct_solve)
        direct = solve_quasilinear(initial, flux, config, horizon)
    assert krylov.meta["newton_iters"] == direct.meta["newton_iters"]
    assert krylov.meta["linear_iters"] > 0 == direct.meta["linear_iters"]
    gap = np.abs(krylov.values - direct.values).max() / np.abs(direct.values).max()
    assert gap <= 1e-11


@pytest.mark.parametrize("name, counts", [("flux-D", (27, 91, 0)), ("flux-N", (18, 56, 0))])
def test_flux_reference_solves_keep_their_newton_and_krylov_counts(name, counts):
    flux, initial, config, horizon = _reference_case(name)
    meta = solve_quasilinear(initial, flux, config, horizon).meta
    assert (meta["newton_iters"], meta["linear_iters"], meta["linear_cap_hits"]) == counts


_PCG_SOLVE = _BetaOperator.solve


def _hundredth_stop_solve(self, u, r, atol, theta):
    """The Newton correction with PCG stopped at ``0.01 newton_tol min W``, the
    stop before the current ``0.1 newton_tol min W``."""
    return _PCG_SOLVE(self, u, r, atol / 10, theta)


@pytest.mark.parametrize("name", ["lump-16", "pme-D", "flux-D", "flux-N", "wavy-N"])
def test_pcg_stop_costs_no_newton_iteration(name, monkeypatch):
    flux, initial, config, horizon = _reference_case(name)
    loose = solve_quasilinear(initial, flux, config, horizon)
    with monkeypatch.context() as patch:
        patch.setattr(_BetaOperator, "solve", _hundredth_stop_solve)
        tight = solve_quasilinear(initial, flux, config, horizon)
    assert loose.meta["newton_iters"] == tight.meta["newton_iters"]
    assert loose.meta["linear_iters"] <= tight.meta["linear_iters"]
    gap = np.abs(loose.values - tight.values).max() / np.abs(tight.values).max()
    assert gap <= 1e-11


def test_lump_64_solve_keeps_its_newton_and_krylov_counts(lump_slab_64):
    meta = lump_slab_64.meta
    assert (meta["newton_iters"], meta["linear_iters"], meta["linear_cap_hits"]) == (99, 203, 0)


def test_no_module_uses_a_direct_sparse_solver():
    for path in Path(solvers.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert not any(name in text for name in ("spsolve", "splu", "factorized")), path
