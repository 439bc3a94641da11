"""Discrete scaling symmetries of ``u_t = Lap(ln u)``, step by step.

If u solves the equation, so do ``lam u(x, t/lam)`` and ``r^-2 u(x/r, t)``.
The solver's steps, BDF2 after one backward-Euler step, keep both exactly
when dt scales with lam and the grid with r: their coefficients are fixed
numbers.  So does the extrapolated Newton start: it is positively homogeneous in
the levels, and its order choice, the least ``max|∇^p u_k|``, is invariant
under both scalings; the powers of two below scale every float exactly.  The
solved slabs then agree up to the roundoff of ``ln`` and of the absolute
Newton tolerance.
"""

import numpy as np
import pytest

from logdiff import Field, Grid, Lump2D, SolverConfig, check_l1_harnack, solve_log_diffusion

CELLS, HORIZON = 32, 0.5
LUMP = Lump2D(c=1.0, T=1.0)


def solve_scaled(lam=1.0, r=1.0):
    """The 32^2 lump as ``lam r^-2 u(x/r, t/lam)`` with its own Dirichlet data."""
    grid = Grid.regular(2, r, r / CELLS)

    def oracle(pts, t):
        return lam / r**2 * LUMP.eval(np.asarray(pts) / r, t / lam)

    initial = Field(grid, oracle(grid.points(), 0.0))
    h0 = 1.0 / CELLS
    config = SolverConfig(
        dt=lam * 16.0 * h0 * h0, boundary="dirichlet-from-oracle", boundary_values=oracle
    )
    return solve_log_diffusion(initial, config, lam * HORIZON)


@pytest.fixture(scope="module")
def reference():
    return solve_scaled()


def _gap(scaled, want):
    return np.abs(scaled.values - want).max() / np.abs(want).max()


@pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
def test_time_scaling_is_exact_step_by_step(reference, lam):
    slab = solve_scaled(lam=lam)
    assert np.array_equal(slab.times, lam * reference.times)
    assert _gap(slab, lam * reference.values) <= 1e-11
    assert slab.meta["newton_iters"] == reference.meta["newton_iters"]


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_space_scaling_is_exact_step_by_step(reference, r):
    slab = solve_scaled(r=r)
    assert slab.grid.spacing == r * reference.grid.spacing
    assert _gap(slab, reference.values / r**2) <= 1e-11
    assert slab.meta["newton_iters"] == reference.meta["newton_iters"]


@pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
def test_l1_harnack_constant_is_invariant_under_time_scaling(reference, lam):
    slab = solve_scaled(lam=lam)
    window = (0.125, 0.5)
    base = check_l1_harnack(reference, (0.0, 0.0), 0.25, window)
    scaled = check_l1_harnack(slab, (0.0, 0.0), 0.25, (lam * window[0], lam * window[1]))
    assert scaled.gamma_star == pytest.approx(base.gamma_star, rel=1e-11, abs=0)
