"""The trapezoid rule: exactness for affine integrands, the separable
contraction of ``grid._trapezoid`` against the outer-product weight tensor it
replaced (kept here as the reference), and the flattened weights that the
cube kernel contracts in one product against ``_trapezoid``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logdiff import Cube, Grid, integrate
from logdiff.grid import _flat_trapezoid_weights, _trapezoid, _trapezoid_weights


def outer_product_trapezoid(values, spacing, lead=0):
    """The trapezoid rule as one weight tensor over all integrated axes."""
    w = np.ones(())
    for n in values.shape[lead:]:
        w = np.multiply.outer(w, _trapezoid_weights(n))
    axes = tuple(range(lead, values.ndim))
    return (values * w).sum(axis=axes) * spacing ** len(axes)


@st.composite
def affine_cases(draw):
    """``(dim, cells, edge, n, lo, coef)``: the cube of n cells starting at
    node ``lo[d]`` on axis d, and the coefficients of an affine integrand."""
    dim = draw(st.integers(1, 3))
    cells = draw(st.integers(2, {1: 64, 2: 24, 3: 10}[dim]))
    edge = draw(st.sampled_from([0.5, 1.0, 3.0]))
    n = draw(st.integers(1, cells))
    lo = [draw(st.integers(0, cells - n)) for _ in range(dim)]
    # subnormal coefficients make the relative tolerance below underflow to 0
    coef = draw(
        st.lists(
            st.floats(-5.0, 5.0, allow_subnormal=False), min_size=dim + 1, max_size=dim + 1
        )
    )
    return dim, cells, edge, n, lo, coef


@settings(max_examples=60, deadline=None)
@given(case=affine_cases())
@example(case=(1, 2, 3.0, 2, [0], [0.0, 5e-324]))
def test_integrate_is_exact_for_affine_integrands(case):
    dim, cells, edge, n, lo, coef = case
    grid = Grid.regular(dim, edge, edge / cells, center=(0.25,) * dim)
    center = tuple(float(grid.axis(d)[lo[d]]) + n * grid.spacing / 2 for d in range(dim))
    cube = Cube(center, n * grid.spacing)
    assert grid.cube_slices(cube) == tuple(slice(a, a + n + 1) for a in lo)
    mesh = grid.meshgrid()
    values = coef[0] + sum(c * x for c, x in zip(coef[1:], mesh))
    exact = (coef[0] + sum(c * x for c, x in zip(coef[1:], center))) * cube.edge**dim
    scale = (abs(coef[0]) + sum(abs(c) for c in coef[1:]) * (1.0 + edge)) * cube.edge**dim
    assert integrate(values, grid, cube) == pytest.approx(
        exact, abs=1e-13 * scale + np.finfo(float).tiny
    )


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    lead=st.integers(0, 1),
    seed=st.integers(0, 2**16),
    strided=st.booleans(),
)
def test_separable_trapezoid_matches_outer_product(shape, lead, seed, strided):
    lead = min(lead, len(shape) - 1)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-2.0, 2.0, [2 * n for n in shape] if strided else shape)
    if strided:  # the kernel integrates non-contiguous views of whole levels
        values = values[tuple(slice(1, 1 + n) for n in shape)]
    got = _trapezoid(values, 0.125, lead=lead)
    want = outer_product_trapezoid(values, 0.125, lead=lead)
    assert np.shape(got) == np.shape(want) == tuple(shape[:lead])
    scale = 0.125 ** (len(shape) - lead) * np.abs(values).sum()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * max(scale, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    levels=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@example(shape=[5, 1, 3], levels=2, seed=0)
def test_flat_weights_product_matches_trapezoid(shape, levels, seed):
    # a single-node axis weighs 0, so its block integrates to 0 either way
    values = np.random.default_rng(seed).uniform(0.5, 2.0, [levels, *shape])
    w = _flat_trapezoid_weights(tuple(shape))
    got = values.reshape(levels, -1) @ w * 0.125 ** len(shape)
    want = _trapezoid(values, 0.125, lead=1)
    assert got.tolist() == pytest.approx(want.tolist(), rel=1e-14, abs=0.0)
    assert (got == 0.0).all() == (1 in shape)


def test_trapezoid_propagates_nan():
    values = np.ones((3, 5, 5))
    values[1, 2, 2] = np.nan
    got = _trapezoid(values, 0.25, lead=1)
    assert np.isfinite(got[0]) and np.isnan(got[1]) and np.isfinite(got[2])
