"""Shared fixtures: solved and sampled slabs reused across the suite.

The solved lump slabs are the expensive shared assets (the finest one runs
a few hundred implicit steps), so they are session-scoped and built lazily.
Grids are centered at the origin with edge 1 so that the lump's peak sits
on a node and every probe cube used by the tests is mesh-aligned.
"""

import time
import tracemalloc

import numpy as np
import pytest

from logdiff import (
    Field,
    Grid,
    Lump2D,
    SolverConfig,
    solve_log_diffusion,
)

HORIZON = 0.5

# wall-clock seconds per solved mesh, for the runtime-budget criteria
SOLVE_TIMES: dict = {}


def lump_grid(cells: int) -> Grid:
    return Grid.regular(2, 1.0, 1.0 / cells)


def solve_lump(cells: int):
    sol = Lump2D(c=1.0, T=1.0)
    grid = lump_grid(cells)
    h = grid.spacing
    config = SolverConfig(
        dt=16.0 * h * h,
        boundary="dirichlet-from-oracle",
        boundary_values=sol,
    )
    start = time.monotonic()
    slab = solve_log_diffusion(sol.sample(grid, 0.0), config, HORIZON)
    SOLVE_TIMES[cells] = time.monotonic() - start
    return slab


def peak_bytes(fn, *args):
    """``(fn(*args), peak)``: the most memory the call held at once beyond
    what was allocated before it, as tracemalloc (which sees numpy's arrays)
    counts it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="session")
def lump_sol():
    return Lump2D(c=1.0, T=1.0)


@pytest.fixture(scope="session")
def lump_slab_32():
    return solve_lump(32)


@pytest.fixture(scope="session")
def lump_slab_64():
    return solve_lump(64)


@pytest.fixture(scope="session")
def lump_slab_128():
    return solve_lump(128)


@pytest.fixture(scope="session")
def lump_sampled_64(lump_sol):
    """Analytic lump samples on the 1/64 grid, five levels over the horizon."""
    return lump_sol.sample_slab(lump_grid(64), np.linspace(0.0, HORIZON, 5))


CONST_VALUE = 2.0


@pytest.fixture(scope="session")
def constant_slab():
    """Exactly constant-in-time slab: constant data with matching boundary."""
    grid = lump_grid(16)
    config = SolverConfig(
        dt=1.0 / 64.0,
        boundary="dirichlet-from-oracle",
        boundary_values=lambda pts, t: np.full(len(pts), CONST_VALUE),
    )
    initial = Field(grid, np.full(grid.shape, CONST_VALUE), time=0.0)
    return solve_log_diffusion(initial, config, 0.25)
