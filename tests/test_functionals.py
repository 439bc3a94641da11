"""Oscillation, scale, mass, and energy functionals against frozen references.

The frozen constants were computed with adaptive quadrature on the closed
forms, independent of this package.  Discrete trapezoid values on the finest
test grid must land within the stated tolerance of each.
"""

import numpy as np
import pytest

from logdiff import (
    Cube,
    Cutoff,
    Grid,
    ExpSteady,
    Field,
    Lump2D,
    ParameterError,
    QuasilinearFlux,
    ess_sup,
    functional_set,
    gradient_energy,
    moment_scaling_exponent,
    oscillation,
    time_scaling_exponent,
)
from logdiff import functionals
from logdiff.grid import SpaceTimeSlab

from conftest import average, flux_l1


def intrinsic_scale(field, center, edge, q, eps, m=0.0):
    """The time-scaling factor over the snapped cube of edge ``edge`` at ``center``."""
    nodes = field.grid.cube_slices(Cube(center, edge))
    return functionals._intrinsic_scale(field, nodes, q, eps, m)


def degeneracy_ratio(field, center, edge, q, M, r, m=0.0):
    """The degeneracy ratio over the snapped cube of edge ``edge`` at ``center``."""
    nodes = field.grid.cube_slices(Cube(center, edge))
    return functionals._degeneracy_ratio(field, nodes, q, M, r, m)


LUMP = Lump2D(c=1.0, T=1.0)

# quadrature references on the c=1, T=1 lump (see module docstring)
LUMP_MEAN_K1 = 6.018197507632859
LUMP_LOG_OSC2_T0 = 0.34928818171061765
LUMP_LOG_OSC2_T001 = 0.3579652051628879
LUMP_THETA_K1 = 0.6108854416765299
LUMP_LOG_ENERGY_SPACE = 3.1387021750063506
LUMP_LOG_ENERGY_TOTAL = 0.7846755437515877


def fine_grid():
    return Grid.regular(2, 1.0, 1.0 / 128)


def test_lump_mean_over_unit_cube():
    g = fine_grid()
    f = LUMP.sample(g, 0.0)
    got = average(f.values, g, Cube((0.0, 0.0), 1.0))
    assert got == pytest.approx(LUMP_MEAN_K1, rel=2e-4)


def test_log_oscillation_frozen_values():
    g = fine_grid()
    slab = LUMP.sample_slab(g, [0.0, 0.01])
    cube = Cube((0.0, 0.0), 1.0)
    got0 = oscillation(slab, cube, (-0.005, 0.005), M=8.0, p=2.0)
    assert got0 == pytest.approx(LUMP_LOG_OSC2_T0, rel=5e-4)
    got = oscillation(slab, cube, (0.0, 0.01), M=8.0, p=2.0)
    assert got == pytest.approx(LUMP_LOG_OSC2_T001, rel=5e-4)


def test_log_oscillation_rejects_bad_parameters():
    g = Grid.regular(2, 1.0, 0.25)
    slab = LUMP.sample_slab(g, [0.0, 0.1])
    cube, window = Cube((0.0, 0.0), 1.0), (-0.1, 0.1)
    with pytest.raises(ParameterError):
        oscillation(slab, cube, window, M=0.0, p=2.0)
    with pytest.raises(ParameterError):
        oscillation(slab, cube, window, M=1.0, p=0.5)


def test_intrinsic_scale_frozen_value():
    g = fine_grid()
    f = LUMP.sample(g, 0.0)
    got = intrinsic_scale(f, (0.0, 0.0), 1.0, q=2.0, eps=0.1)
    assert got == pytest.approx(LUMP_THETA_K1, rel=2e-4)


def test_intrinsic_scale_pme_m_to_zero():
    g = Grid.regular(2, 1.0, 1.0 / 32)
    f = LUMP.sample(g, 0.0)
    base = intrinsic_scale(f, (0.0, 0.0), 1.0, q=2.0, eps=0.1)
    prev = None
    for m in (0.4, 0.2, 0.1, 0.05):
        val = intrinsic_scale(f, (0.0, 0.0), 1.0, q=2.0, eps=0.1, m=m)
        if prev is not None:
            assert abs(val - base) < abs(prev - base)
        prev = val


def test_power_oscillation_decreases_to_log():
    g = Grid.regular(2, 1.0, 1.0 / 64)
    slab = LUMP.sample_slab(g, [0.0, 0.1])
    cube, window = Cube((0.0, 0.0), 1.0), (-0.005, 0.005)
    # (1 - z^m)/m <= ln(1/z) on (0, 1], so the power functional increases
    # to the log one from below as m -> 0
    for p in (1.0, 2.0, 5.0):
        lam = oscillation(slab, cube, window, M=8.0, p=p)
        prev = 0.0
        for m in (0.4, 0.2, 0.1, 0.05):
            val = oscillation(slab, cube, window, M=8.0, m=m / 2, p=p, normalized=True)
            assert prev < val < lam
            prev = val


def test_power_oscillation_plain_vs_normalized():
    g = Grid.regular(2, 1.0, 1.0 / 32)
    slab = LUMP.sample_slab(g, [0.0, 0.1])
    cube, window = Cube((0.0, 0.0), 0.5), (-0.005, 0.005)
    plain = oscillation(slab, cube, window, M=8.0, m=0.2, p=2.0, normalized=False)
    mean = oscillation(slab, cube, window, M=8.0, m=0.2, p=2.0, normalized=True)
    # cube volume 0.25, exponent 1/p: plain = mean * vol^(1/p)
    assert plain == pytest.approx(mean * 0.25**0.5, rel=1e-12)


@pytest.mark.parametrize("m", [0.0, 0.3])
def test_oscillation_below_the_data_is_an_lp_mean_at_every_p(m):
    # M = 2 lies below the lump's peak, so g_M(u) < 0 on part of the cube; the
    # power case gave a number at p = 2 and NaN at p = 2.5 and 3 (parity of p)
    g = Grid.regular(2, 1.0, 1.0 / 16)
    slab = LUMP.sample_slab(g, [0.0, 0.1])
    vals = [oscillation(slab, Cube((0.0, 0.0), 0.5), (0.0, 0.1), M=2.0, p=p, m=m)
            for p in (2.0, 2.5, 3.0)]
    assert np.all(np.isfinite(vals)) and vals == sorted(vals)


def _finite_checks(bad):
    g = Grid.regular(2, 1.0, 1.0 / 16)
    slab = LUMP.sample_slab(g, [0.0, 0.1])
    cube, center, field = Cube((0.0, 0.0), 0.5), (0.0, 0.0), slab.level(0)
    return {
        "oscillation-p": lambda: oscillation(slab, cube, (0.0, 0.1), M=8.0, p=bad),
        "oscillation-M": lambda: oscillation(slab, cube, (0.0, 0.1), M=bad, p=2.0),
        "degeneracy_ratio-M": lambda: degeneracy_ratio(field, center, 0.5, 2.0, bad, 2.0),
        "degeneracy_ratio-q": lambda: degeneracy_ratio(field, center, 0.5, bad, 8.0, 2.0),
        "intrinsic_scale-q": lambda: intrinsic_scale(field, center, 0.5, q=bad, eps=0.1),
        "intrinsic_scale-eps": lambda: intrinsic_scale(field, center, 0.5, q=2.0, eps=bad),
        "moment_scaling_exponent-r": lambda: moment_scaling_exponent(2, 0.0, bad),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", list(_finite_checks(0.0)))
def test_probe_constants_must_be_finite(case, bad):
    # p = nan and p = inf passed p < 1; q = nan made theta NaN, which the pointwise
    # check blamed on the data; r = nan gave a NaN exponent; M = nan or inf gave a
    # NaN or inf oscillation, and the degeneracy ratio read 0 at M = inf, 1 at q = inf
    name = case.split("-")[1]
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        _finite_checks(bad)[case]()


def test_exponent_identities():
    for N in (1, 2, 3):
        assert time_scaling_exponent(N) == 2.0 - N
        assert time_scaling_exponent(N, 0.5) == N * (0.5 - 1.0) + 2.0
    assert moment_scaling_exponent(2, 0.5, 2.0) == pytest.approx(3.0)
    with pytest.raises(ParameterError):
        moment_scaling_exponent(3, 0.1, 0.2)


def test_ess_sup_inf_on_samples():
    g = Grid.regular(2, 1.0, 1.0 / 16)
    slab = LUMP.sample_slab(g, [0.0, 0.25])
    # peak at the origin, t = 0
    assert ess_sup(slab, Cube((0.0, 0.0), 0.5), (0.0, 0.25)) == pytest.approx(8.0)


@pytest.mark.parametrize(
    "window", [(0.1, 0.1), (0.1, 0.0), (0.0, float("nan"))], ids=["empty", "reversed", "nan-end"]
)
def test_readers_reject_a_window_that_does_not_end_after_it_starts(window, monkeypatch):
    g = Grid.regular(2, 1.0, 1.0 / 8)
    slab = LUMP.sample_slab(g, [0.0, 0.1])
    cube = Cube((0.0, 0.0), 0.5)

    def no_read(*args):
        raise AssertionError("a level was read")

    monkeypatch.setattr(functionals, "_cube_chunks", no_read)
    for read in (
        lambda: ess_sup(slab, cube, window),
        lambda: oscillation(slab, cube, window, M=8.0, p=2.0),
        lambda: functional_set(slab, (0.0, 0.0), 0.25, window, m=0.2),
        lambda: gradient_energy(slab, Cutoff((0.0, 0.0), 0.25, 0.5), window),
        lambda: flux_l1(slab, QuasilinearFlux(kind="log-diffusion"), (0.0, 0.0), 0.25, window),
    ):
        with pytest.raises(ParameterError, match="t_start < t_end"):
            read()


def test_mass_functionals_exact_on_constants():
    g = Grid.regular(2, 1.0, 1.0 / 16)
    values = np.full((2,) + g.shape, 3.0)
    slab = SpaceTimeSlab(g, np.array([0.0, 0.1]), values, meta={})
    fs = functional_set(slab, (0.0, 0.0), 0.5, (0.0, 0.1), m=0.2, sigma=0.5)
    assert fs.sup_mass_sigma == pytest.approx(3.0 * 0.75**2, rel=1e-13)
    assert fs.inf_mass_2rho == pytest.approx(3.0, rel=1e-13)
    with pytest.raises(ParameterError, match="sigma"):
        functional_set(slab, (0.0, 0.0), 0.5, (0.0, 0.1), m=0.2, sigma=1.0)


def test_nan_sample_propagates():
    # one NaN node inside the cube and window surfaces instead of being skipped
    g = Grid.regular(2, 1.0, 1.0 / 16)
    values = np.full((3,) + g.shape, 2.0)
    values[1, 8, 8] = np.nan
    slab = SpaceTimeSlab(g, [0.0, 0.1, 0.2], values)
    cube, window = Cube((0.0, 0.0), 0.5), (0.0, 0.2)
    assert np.isnan(ess_sup(slab, cube, window))
    assert np.isnan(oscillation(slab, cube, window, M=2.0, p=1.0))
    # the probe kernel, which takes the masses, refuses the NaN instead
    with pytest.raises(ParameterError, match="finite and positive"):
        functional_set(slab, (0.0, 0.0), 0.25, window, m=0.2)


def test_degeneracy_ratio_properties():
    g = Grid.regular(2, 1.0, 1.0 / 16)
    from logdiff import Field

    const = Field(g, np.full(g.shape, 4.0))
    assert degeneracy_ratio(const, (0.0, 0.0), 0.5, 2.0, 4.0, 2.0) == pytest.approx(1.0)
    f = LUMP.sample(g, 0.0)
    val = degeneracy_ratio(f, (0.0, 0.0), 0.5, 2.0, 8.0, 2.0)
    assert 0.0 < val < 1.0
    with pytest.raises(ParameterError):
        degeneracy_ratio(f, (0.0, 0.0), 0.5, 2.0, 8.0, 1.0)


def _positive_field(dim, seed):
    g = Grid.regular(dim, 1.0, 1.0 / 8)
    rng = np.random.default_rng(seed)
    return Field(g, 1.0 + rng.random(g.shape))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_merged_functions_at_m_zero_are_the_log_formulas(dim):
    f = _positive_field(dim, seed=dim)
    center, edge, q, eps, r = (0.0,) * dim, 0.5, 3.0, 0.1, 2.0
    M = f.values.max()
    cube = Cube(center, edge)
    theta = eps * average(f.values**q, f.grid, cube) ** (1.0 / q)
    assert intrinsic_scale(f, center, edge, q, eps) == theta
    assert intrinsic_scale(f, center, edge, q, eps, m=0.0) == theta
    eta = average((f.values / M) ** q, f.grid, cube) ** ((1.0 / q) * (2.0 / (2.0 * r - dim)))
    assert degeneracy_ratio(f, center, edge, q, M, r) == eta
    assert degeneracy_ratio(f, center, edge, q, M, r, m=0.0) == eta
    assert time_scaling_exponent(dim, 0.0) == 2.0 - dim


def test_degeneracy_ratio_tends_to_log_value():
    f = _positive_field(3, seed=5)
    args = (f, (0.0, 0.0, 0.0), 0.5, 2.0, f.values.max(), 2.0)
    base = degeneracy_ratio(*args)
    gaps = [abs(degeneracy_ratio(*args, m=m) - base) for m in (0.4, 0.1, 1e-2, 1e-4, 1e-8)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-7


@pytest.mark.parametrize("m", [-0.1, 1.0, 1.5, float("nan")])
def test_merged_functions_reject_m_outside_unit_interval(m):
    f = _positive_field(2, seed=1)
    with pytest.raises(ParameterError, match="m must lie in"):
        intrinsic_scale(f, (0.0, 0.0), 0.5, 2.0, 0.1, m=m)
    with pytest.raises(ParameterError, match="m must lie in"):
        degeneracy_ratio(f, (0.0, 0.0), 0.5, 2.0, f.values.max(), 2.0, m=m)
    slab = SpaceTimeSlab(f.grid, [0.0, 0.1], np.stack([f.values, f.values]))
    with pytest.raises(ParameterError, match="m must lie in"):
        oscillation(slab, Cube((0.0, 0.0), 0.5), (0.0, 0.1), f.values.max(), 2.0, m=m)
    with pytest.raises(ParameterError, match="m must lie in"):
        gradient_energy(slab, Cutoff((0.0, 0.0), 0.5, 0.5), (0.0, 0.1), m=m)


def test_log_gradient_energy_frozen_value():
    g = Grid.regular(2, 2.0, 1.0 / 128)
    slab = LUMP.sample_slab(g, [0.0, 0.125, 0.25])
    cut = Cutoff((0.0, 0.0), 1.0, 0.5)
    got = gradient_energy(slab, cut, (0.0, 0.25))
    assert got == pytest.approx(LUMP_LOG_ENERGY_TOTAL, rel=2e-3)


def test_log_gradient_energy_exp_identity():
    # indicator cutoff, |D ln u| = |a| everywhere: energy = |a|^2 * vol * T
    sol = ExpSteady(a=(1.0, 0.0), scale=1.0)
    g = Grid.regular(2, 1.0, 1.0 / 64)
    slab = sol.sample_slab(g, np.linspace(0.0, 1.0, 5))
    cut = Cutoff((0.0, 0.0), 1.0, 0.0)
    got = gradient_energy(slab, cut, (0.0, 1.0))
    assert got == pytest.approx(1.0, rel=1e-3)


def test_power_gradient_energy_approaches_log():
    g = Grid.regular(2, 2.0, 1.0 / 32)
    slab = LUMP.sample_slab(g, [0.0, 0.25])
    cut = Cutoff((0.0, 0.0), 1.0, 0.5)
    base = gradient_energy(slab, cut, (0.0, 0.25))
    prev = None
    for m in (0.4, 0.2, 0.1):
        val = gradient_energy(slab, cut, (0.0, 0.25), m=m)
        if prev is not None:
            assert abs(val - base) < abs(prev - base)
        prev = val


def test_flux_l1_exp_identity():
    # |A| = |D ln u| = |a|: lhs = |a| * rho^(N-1) * T
    sol = ExpSteady(a=(1.0, 0.0), scale=1.0)
    g = Grid.regular(2, 1.0, 1.0 / 64)
    slab = sol.sample_slab(g, np.linspace(0.0, 1.0, 5))
    flux = QuasilinearFlux(kind="log-diffusion", a=(1.0, 1.0))
    got = flux_l1(slab, flux, (0.0, 0.0), 0.5, (0.0, 1.0))
    assert got == pytest.approx(0.5, rel=1e-3)


def test_functional_set_row_shape(lump_slab_32):
    fs = functional_set(lump_slab_32, (0.0, 0.0), 0.25, (0.25, 0.5), m=0.2)
    row = fs.to_row()
    assert row["rho"] == 0.25 and row["m"] == 0.2
    assert row["sup_u"] > 0
    assert fs.osc_pow_p > 0
    assert fs.time_scale_pow > 0
    # the power entries need 0 < m < 1: m = 0 is not the log case here
    with pytest.raises(ParameterError, match=r"m must be in \(0, 1\)"):
        functional_set(lump_slab_32, (0.0, 0.0), 0.25, (0.25, 0.5), m=0.0)
