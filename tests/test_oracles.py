"""Exact solution fixtures and the residual order gate."""

import numpy as np
import pytest

from logdiff import (
    FIXTURES,
    BarenblattFD,
    DomainError,
    ExpSteady,
    Grid,
    Lump2D,
    ParameterError,
    build_fixture,
    convergence_order,
    fit_order,
    residual_check,
)

from conftest import peak_bytes


def test_fixture_registry():
    assert set(FIXTURES) == {"lump2d", "exp_steady", "barenblatt_fd"}
    with pytest.raises(ParameterError):
        build_fixture("nope")
    with pytest.raises(ParameterError):
        build_fixture("lump2d", bogus=1.0)


def test_lump_formula_and_domain():
    sol = Lump2D(c=1.0, T=1.0)
    # u = 8c(T - t)/(c + |x|^2)^2
    assert sol.eval(np.array([0.0, 0.0]), 0.0) == pytest.approx(8.0)
    assert sol.eval(np.array([1.0, 0.0]), 0.0) == pytest.approx(2.0)
    assert sol.eval(np.array([0.0, 0.0]), 0.5) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        sol.eval(np.array([0.0, 0.0]), 1.0)
    with pytest.raises(DomainError):
        sol.sample(Grid.regular(1, 1.0, 0.25), 0.0)


def test_lump_time_derivative_matches_formula():
    sol = Lump2D(c=2.0, T=1.5)
    x = np.array([0.3, -0.4])
    dt = 1e-6
    fd = (sol.eval(x, 0.2 + dt) - sol.eval(x, 0.2 - dt)) / (2 * dt)
    assert sol.time_derivative(x, 0.2) == pytest.approx(fd, rel=1e-7)


def test_exp_steady_constant_case():
    sol = ExpSteady(a=(0.0, 0.0), scale=5.0)
    g = Grid.regular(2, 1.0, 0.25)
    f = sol.sample(g, 0.0)
    assert np.all(f.values == 5.0)


def test_exp_steady_is_time_independent():
    sol = ExpSteady(a=(1.0, 0.0), scale=1.0)
    x = np.array([0.2, 0.3])
    assert sol.eval(x, 0.0) == sol.eval(x, 7.0)
    assert sol.time_derivative(x, 1.0) == 0.0


def test_barenblatt_positive_and_parameters():
    sol = BarenblattFD(m=0.5, T=1.0, C=1.0)
    g = Grid.regular(2, 1.0, 1.0 / 16)
    f = sol.sample(g, 0.0)
    assert np.all(f.values > 0)
    with pytest.raises(ParameterError):
        BarenblattFD(m=1.5, T=1.0, C=1.0)
    with pytest.raises(ParameterError):
        BarenblattFD(m=0.5, T=-1.0, C=1.0)
    # N(m-1)+2 <= 0 rules out the profile entirely
    with pytest.raises(ParameterError):
        BarenblattFD(m=0.2, T=1.0, C=1.0).sample(Grid.regular(3, 1.0, 0.25), 0.0)


def test_residual_order_lump():
    sol = Lump2D(c=1.0, T=1.0)
    hs, errs = [], []
    for cells in (16, 32, 64):
        g = Grid.regular(2, 1.0, 1.0 / cells)
        hs.append(g.spacing)
        errs.append(residual_check(sol, g, 0.0))
    order = fit_order(hs, errs)
    assert 1.8 <= order <= 2.2


def test_residual_exact_for_exp_steady():
    sol = ExpSteady(a=(1.0, 0.5), scale=2.0)
    g = Grid.regular(2, 1.0, 1.0 / 32)
    assert residual_check(sol, g, 0.0) <= 1e-10


def test_residual_order_barenblatt():
    sol = BarenblattFD(m=0.5, T=1.0, C=1.0)
    hs, errs = [], []
    for cells in (16, 32, 64):
        g = Grid.regular(2, 1.0, 1.0 / cells)
        hs.append(g.spacing)
        errs.append(residual_check(sol, g, 0.25))
    order = fit_order(hs, errs)
    assert 1.8 <= order <= 2.2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_order_rejects_non_finite_errors(bad):
    with pytest.raises(ParameterError, match="errors must be finite"):
        fit_order([0.1, 0.05, 0.025], [1e-2, bad, 6e-4])


def test_fit_order_exact_power_law():
    hs = [0.1, 0.05, 0.025]
    errs = [3.0 * h**2 for h in hs]
    assert fit_order(hs, errs) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ParameterError):
        fit_order([0.1], [0.01])
    # two copies of one mesh give no slope
    with pytest.raises(ParameterError, match="2 distinct mesh spacings"):
        fit_order([0.1, 0.1], [0.01, 0.02])
    with pytest.raises(ParameterError):
        fit_order([0.1, 0.05], [0.01, 0.0])


def test_sample_slab_carries_meta():
    sol = Lump2D(c=1.0, T=1.0)
    g = Grid.regular(2, 1.0, 0.25)
    slab = sol.sample_slab(g, [0.0, 0.1, 0.2])
    assert slab.nlevels == 3
    assert slab.meta["source"] == "lump2d"
    direct = sol.sample(g, 0.1).values
    assert np.array_equal(slab.values[1], direct)


def test_convergence_order_reports_unreliable_on_noise():
    sol = Lump2D(c=1.0, T=1.0)
    g = Grid.regular(2, 1.0, 0.25)
    slab = sol.sample_slab(g, [0.0, 0.5])
    # identical runs cannot support a fit; flagged, not raised
    rep = convergence_order([slab, slab], sol)
    assert not rep.reliable


def test_sample_slab_fills_the_one_array_the_slab_keeps():
    sol, grid = Lump2D(), Grid.regular(2, 1.0, 1.0 / 32)
    times = np.linspace(0.0, 0.5, 129)
    slab, peak = peak_bytes(sol.sample_slab, grid, times)
    assert peak <= 1.1 * slab.values.nbytes
    assert slab.values.flags.owndata and not slab.values.flags.writeable
    for k in (0, 64, 128):
        assert np.array_equal(slab.values[k], sol.eval(grid.points(), float(times[k])))
