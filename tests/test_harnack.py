"""Inequality checkers: L1 Harnack, energy, flux, Jensen, pointwise, cutoff."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from logdiff import (
    Cube,
    Cutoff,
    GeometryError,
    Grid,
    Lump2D,
    ParameterError,
    QuasilinearFlux,
    check_energy_lemma,
    check_energy_lemma_pme,
    check_flux_corollary,
    check_l1_harnack,
    check_l1_harnack_pme,
    check_pointwise_harnack,
    distributional_identity_check,
    fit_pointwise_constants,
    jensen_check,
    moment_scaling_exponent,
    sample_cylinders,
    solve_quasilinear,
)
from logdiff import functionals
from logdiff.grid import Field, SpaceTimeSlab
from logdiff.harnack import (
    energy_lemma_batch,
    flux_corollary_batch,
    l1_harnack_batch,
)
from logdiff.solvers import SolverConfig

from conftest import flux_l1

# independently computed divergence defects of the smoothstep cutoff
# (rho = 1, sigma = 0.5, edge-2 grid), decaying at first order
DIST_DEFECTS = {
    32: 7.1875,
    64: 4.0390625,
    128: 2.1337890625,
    256: 1.0958251953125,
}


def test_l1_harnack_constant_slab(constant_slab):
    from conftest import CONST_VALUE

    rep = check_l1_harnack(constant_slab, (0.0, 0.0), 0.25, (0.0, 0.25))
    # lhs = c rho^N, mass term c (2 rho)^N: the constant is at most 2^-N
    assert rep.gamma_star <= 0.25 + 1e-12
    assert rep.lhs == pytest.approx(CONST_VALUE * 0.25**2, rel=1e-12)
    assert rep.rhs_mass == pytest.approx(CONST_VALUE * 0.5**2, rel=1e-12)
    assert rep.kind == "l1-log"
    assert np.isnan(rep.m)


def test_l1_harnack_lump(lump_slab_32):
    rep = check_l1_harnack(lump_slab_32, (0.0, 0.0), 0.25, (0.25, 0.5))
    assert np.isfinite(rep.gamma_star) and rep.gamma_star > 0
    assert rep.rhs_time == pytest.approx(0.25)  # lambda = 0 at N = 2
    assert rep.sup_u > 0
    assert rep.lambda_1 > 0 and rep.lambda_2 > 0


def test_l1_harnack_row_and_functionals(lump_slab_32):
    rep = check_l1_harnack(lump_slab_32, (0.0, 0.0), 0.25, (0.25, 0.5))
    row = rep.to_row()
    assert row["center"] == "0.0;0.0"


def test_l1_harnack_pme_window_power(lump_slab_32):
    m = 0.5
    rep = check_l1_harnack_pme(lump_slab_32, m, (0.0, 0.0), 0.25, (0.25, 0.5))
    lam_m = 2 * (m - 1) + 2
    expect = (0.25 / 0.25**lam_m) ** (1.0 / (1.0 - m))
    assert rep.rhs_time == pytest.approx(expect, rel=1e-12)
    assert rep.kind == "l1-pme"
    with pytest.raises(ParameterError):
        check_l1_harnack_pme(lump_slab_32, 1.2, (0.0, 0.0), 0.25, (0.25, 0.5))


def _slab_3d(bad_node=None):
    g = Grid.regular(3, 1.0, 1.0 / 8)
    times = np.linspace(0.0, 0.5, 5)
    values = 1.0 + np.random.default_rng(3).random((times.size,) + g.shape)
    if bad_node is not None:
        values[bad_node] = -1.0
    return SpaceTimeSlab(g, times, values)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_l1_harnack_m_zero_time_term_is_the_log_formula(dim):
    g = Grid.regular(dim, 1.0, 1.0 / 16)
    times = np.linspace(0.0, 0.5, 9)
    values = 1.0 + np.random.default_rng(dim).random((times.size,) + g.shape)
    slab = SpaceTimeSlab(g, times, values)
    rho, (t0, t1) = 0.25, (0.125, 0.4375)
    for rep in (
        check_l1_harnack(slab, (0.0,) * dim, rho, (t0, t1)),
        check_l1_harnack(slab, (0.0,) * dim, rho, (t0, t1), m=0.0),
    ):
        assert rep.rhs_time == (t1 - t0) / rho ** (2 - dim)
        assert rep.kind == "l1-log" and np.isnan(rep.m)


@pytest.mark.parametrize("m", [0.05, 0.2, 0.5])
def test_l1_harnack_pme_is_the_merged_check(lump_slab_32, m):
    args = ((0.0, 0.0), 0.25, (0.25, 0.5))
    pme = check_l1_harnack_pme(lump_slab_32, m, *args).to_row()
    assert pme == check_l1_harnack(lump_slab_32, *args, m=m).to_row()
    assert pme["kind"] == "l1-pme" and pme["m"] == m


@pytest.mark.parametrize("m", [-0.1, 1.0, float("nan")])
def test_l1_harnack_rejects_m_outside_unit_interval(lump_slab_32, m):
    with pytest.raises(ParameterError):
        check_l1_harnack(lump_slab_32, (0.0, 0.0), 0.25, (0.25, 0.5), m=m)


def test_probe_error_messages_print_short_floats():
    """Floats in probe errors carry six significant digits, never a roundoff tail."""
    long_digits = re.compile(r"\d{8,}")
    center = (0.1 + 0.2 - 0.3, 0.0, 0.0)  # 5.551115123125783e-17
    messages = []
    checks = (
        # a -1 node inside K_2rho x window, rho = 0.30000000000000004
        lambda: check_l1_harnack(_slab_3d((2, 4, 4, 4)), center, 0.1 * 3, (0.0, 0.5)),
        # N(m-1) + 2 = -0.40000000000000036 at N = 3, m = 0.2
        lambda: check_l1_harnack_pme(_slab_3d(), 0.2, center, 0.25, (0.0, 0.5)),
        lambda: check_flux_corollary(
            _slab_3d(), QuasilinearFlux(kind="pme", m=0.2), 0.25, 0.5, (0.0, 0.5)
        ),
        # N(m-1) + 2r = -1.0000000000000004
        lambda: moment_scaling_exponent(3, 0.2, 0.7),
    )
    for check in checks:
        with pytest.raises(ParameterError) as err:
            check()
        messages.append(str(err.value))
    assert not [msg for msg in messages if long_digits.search(msg)], messages


def test_window_validation(lump_slab_32):
    with pytest.raises(GeometryError):
        check_l1_harnack(lump_slab_32, (0.0, 0.0), 0.25, (0.4, 0.9))
    with pytest.raises(ParameterError):
        check_l1_harnack(lump_slab_32, (0.0, 0.0), 0.25, (0.4, 0.3))


def test_energy_lemma_lump(lump_slab_32):
    rep = check_energy_lemma(lump_slab_32, (0.0, 0.0), 0.25, 0.5, (0.25, 0.5))
    assert np.isfinite(rep.ratio) and rep.ratio > 0
    assert rep.lhs > 0
    assert rep.s_sigma > 0
    assert rep.kind == "energy-log"


def test_energy_lemma_geometry_guards(lump_slab_32):
    with pytest.raises(ParameterError):
        check_energy_lemma(lump_slab_32, (0.0, 0.0), 0.25, 1.0, (0.25, 0.5))
    with pytest.raises(GeometryError):
        # 4x cube of rho = 0.3 exceeds the unit grid
        check_energy_lemma(lump_slab_32, (0.0, 0.0), 0.3, 0.5, (0.25, 0.5))


def test_energy_lemma_pme_exponent_range(lump_slab_32):
    rep = check_energy_lemma_pme(lump_slab_32, 0.4, (0.0, 0.0), 0.25, 0.5, (0.25, 0.5))
    assert np.isfinite(rep.ratio) and rep.ratio > 0
    assert rep.m == 0.4
    with pytest.raises(ParameterError):
        check_energy_lemma_pme(lump_slab_32, 0.7, (0.0, 0.0), 0.25, 0.5, (0.25, 0.5))
    for m in (-0.1, 0.7, float("nan")):
        with pytest.raises(ParameterError):
            check_energy_lemma(lump_slab_32, (0.0, 0.0), 0.25, 0.5, (0.25, 0.5), m=m)


@pytest.mark.parametrize("m", [0.05, 0.2, 0.5])
def test_energy_lemma_pme_is_the_merged_check(lump_slab_32, m):
    args = ((0.0, 0.0), 0.25, 0.5, (0.25, 0.5))
    pme = check_energy_lemma_pme(lump_slab_32, m, *args).to_row()
    assert pme == check_energy_lemma(lump_slab_32, *args, m=m).to_row()
    assert pme["kind"] == "energy-pme" and pme["m"] == m


def test_energy_log_row_keeps_its_floats():
    """At m = 0 the merged energy body reproduces the logarithmic formula bit for bit.

    rho = 3 cells is not a power of two, so writing the time term in the power
    form ``rho^(N(1-m/2)) / rho^2`` would move ``rhs_time_term`` by one ulp.
    """
    grid = Grid.regular(2, 1.0, 1.0 / 32)
    slab = Lump2D(c=1.0, T=1.0).sample_slab(grid, np.linspace(0.0, 0.5, 17))
    row = check_energy_lemma(slab, (0.0, 0.0), 0.09375, 0.5, (0.125, 0.375)).to_row()
    assert np.isnan(row.pop("m"))
    assert row == {
        "kind": "energy-log", "center": "0.0;0.0", "rho": 0.09375, "sigma": 0.5,
        "t_start": 0.125, "t_end": 0.375, "lhs": 5.4443177710386344e-05,
        "rhs_mass_term": 0.1466648122050585, "rhs_time_term": 0.2433730787923758,
        "ratio": 0.00013958433005357542, "sup_u": 7.0, "lambda_1": 0.348786744503163,
        "lambda_2": 0.34888520411628393, "s_sigma": 0.10873832561209203,
    }


def test_batches_report_each_probe_as_its_single_check(lump_slab_32):
    """One sweep per batch: every probe gets the single check's report, or its error
    in place, whatever the other probes of the batch are."""
    slab, flux = lump_slab_32, QuasilinearFlux(kind="pme", m=0.4, a=(1.0, 1.0))
    probes = [
        ((0.0, 0.0), 0.25, (0.25, 0.5)),
        ((0.0, 0.0), 0.25, (0.25, 9.0)),  # leaves the slab
        ((0.125, -0.125), 0.125, (0.1, 0.3)),
        ((0.0, 0.0), -1.0, (0.25, 0.5)),
        ((0.25, 0.0), 0.125, (0.24, 0.25)),  # one level: no energy or flux integral
        ((0.375, 0.375), 0.125, (0.0, 0.5)),  # K_2rho on two faces
    ]
    cases = {
        "l1": (l1_harnack_batch(slab, probes), lambda c, r, w: check_l1_harnack(slab, c, r, w)),
        "l1-pme": (
            l1_harnack_batch(slab, probes, 0.3),
            lambda c, r, w: check_l1_harnack_pme(slab, 0.3, c, r, w),
        ),
        "energy": (
            energy_lemma_batch(slab, probes, 0.5),
            lambda c, r, w: check_energy_lemma(slab, c, r, 0.5, w),
        ),
        "energy-pme": (
            energy_lemma_batch(slab, probes, 0.5, 0.3),
            lambda c, r, w: check_energy_lemma_pme(slab, 0.3, c, r, 0.5, w),
        ),
        "flux": (
            flux_corollary_batch(slab, flux, probes, 0.5),
            lambda c, r, w: check_flux_corollary(slab, flux, r, 0.5, w, center=c),
        ),
    }
    for kind, (got, check) in cases.items():
        assert len(got) == len(probes)
        kinds = set()
        for rep, probe in zip(got, probes):
            try:
                want = check(*probe)
            except (GeometryError, ParameterError) as exc:
                assert type(rep) is type(exc) and str(rep) == str(exc), (kind, probe)
                kinds.add(type(exc))
                continue
            assert type(rep) is type(want), (kind, probe)
            for name, value in vars(want).items():
                if isinstance(value, float):
                    assert getattr(rep, name) == pytest.approx(value, rel=1e-12, nan_ok=True)
                else:
                    assert getattr(rep, name) == value
        assert GeometryError in kinds and ParameterError in kinds, kind
    assert "at least two levels" in str(cases["energy"][0][4])


def test_flux_corollary_kinds(lump_slab_32):
    log_flux = QuasilinearFlux(kind="log-diffusion", a=(1.0, 1.0))
    rep = check_flux_corollary(lump_slab_32, log_flux, 0.25, 0.5, (0.25, 0.5))
    assert rep.kind == "flux-log"
    assert np.isfinite(rep.ratio) and rep.ratio > 0
    pme_flux = QuasilinearFlux(kind="pme", m=0.4, a=(1.0, 1.0))
    rep2 = check_flux_corollary(lump_slab_32, pme_flux, 0.25, 0.5, (0.25, 0.5))
    assert rep2.kind == "flux-pme"
    assert np.isfinite(rep2.ratio) and rep2.ratio > 0
    diag = QuasilinearFlux(kind="diagonal-perturbed", m=0.0, a=(1.0, 1.0))
    rep3 = check_flux_corollary(lump_slab_32, diag, 0.25, 0.5, (0.25, 0.5))
    assert rep3.kind == "flux-quasilinear"


def test_flux_outside_the_structure_interval_is_rejected_by_solver_and_checker(lump_slab_32):
    # a_1 = 3 lies outside the default [c_o, c_1] = [1, 1]: both entry points refuse it
    grid = lump_slab_32.grid
    config = SolverConfig(dt=1.0 / 64, boundary="neumann-zero-flux")
    initial = Field(grid, np.full(grid.shape, 1.0))
    outside = QuasilinearFlux("diagonal-perturbed", m=0.2, a=(1.0, 3.0))
    message = re.escape("a_1 leaves the structure interval [1.0, 1.0]")
    with pytest.raises(ParameterError, match=message):
        solve_quasilinear(initial, outside, config, 1.0 / 64)
    with pytest.raises(ParameterError, match=message):
        check_flux_corollary(lump_slab_32, outside, 0.25, 0.5, (0.25, 0.5))
    # a callable a_0 is checked at each level it is sampled: 1 + 4t leaves [1, 1.5] past 1/8
    drifting = QuasilinearFlux(
        "diagonal-perturbed", a=(lambda x, t: np.full(len(x), 1.0 + 4.0 * t), 1.0),
        c_o=1.0, c_1=1.5,
    )
    assert flux_l1(lump_slab_32, drifting, (0.0, 0.0), 0.25, (0.0, 0.125)) > 0
    with pytest.raises(ParameterError, match="a_0 leaves"):
        flux_l1(lump_slab_32, drifting, (0.0, 0.0), 0.25, (0.0, 0.25))
    # with the interval widened to hold a, both accept it
    inside = QuasilinearFlux("diagonal-perturbed", m=0.2, a=(1.0, 3.0), c_o=1.0, c_1=3.0)
    solve_quasilinear(initial, inside, config, 1.0 / 64)
    assert check_flux_corollary(lump_slab_32, inside, 0.25, 0.5, (0.25, 0.5)).ratio > 0


def test_a_flux_batch_fails_only_the_probe_whose_window_leaves_the_structure_interval(
    lump_slab_32,
):
    # a_0 = 1 + 4t leaves [1, 1.5] past t = 1/8: the batch's sweep samples it there, on
    # the block that bounds both probes, and so reads each probe as its batch of one
    slab = lump_slab_32
    drifting = QuasilinearFlux(
        "diagonal-perturbed", a=(lambda x, t: np.full(len(x), 1.0 + 4.0 * t), 1.0),
        c_o=1.0, c_1=1.5,
    )
    probes = [((0.125, 0.0), 0.125, (0.0, 0.25)), ((0.0, 0.0), 0.25, (0.0, 0.125))]
    outside, inside = flux_corollary_batch(slab, drifting, probes, 0.5)
    assert isinstance(outside, ParameterError) and "a_0 leaves" in str(outside)
    center, rho, window = probes[1]
    assert inside.lhs == flux_l1(slab, drifting, center, rho, window)
    want = check_flux_corollary(slab, drifting, rho, 0.5, window, center=center)
    for name, value in vars(want).items():
        if isinstance(value, float):
            assert getattr(inside, name) == pytest.approx(value, rel=1e-12, nan_ok=True), name
        else:
            assert getattr(inside, name) == value, name


def _no_read(*args):
    raise AssertionError("a level was read")


def test_a_one_level_flux_window_is_refused_when_its_probe_is_resolved(lump_slab_32, monkeypatch):
    # a NaN at the probe centre on the window's one level: the two-level rule belongs to
    # the resolve step, so it is the error, and the statistics sweep never reads the NaN
    slab, k = lump_slab_32, 16
    values = slab.values.copy()
    values[k, 16, 16] = np.nan
    bad = SpaceTimeSlab(slab.grid, slab.times, values)
    flux, t = QuasilinearFlux("log-diffusion"), float(slab.times[k])
    (two,) = flux_corollary_batch(bad, flux, [((0.0, 0.0), 0.25, (t - slab.dt, t))], 0.5)
    assert isinstance(two, ParameterError) and "finite and positive" in str(two)
    monkeypatch.setattr(functionals, "_cube_chunks", _no_read)
    (one,) = flux_corollary_batch(bad, flux, [((0.0, 0.0), 0.25, (t - 0.4 * slab.dt, t))], 0.5)
    assert isinstance(one, ParameterError)
    assert str(one) == "flux window needs at least two levels"


def test_a_constant_flux_coefficient_outside_its_interval_raises_before_any_read(
    lump_slab_32, monkeypatch
):
    monkeypatch.setattr(functionals, "_cube_chunks", _no_read)
    outside = QuasilinearFlux("diagonal-perturbed", m=0.2, a=(1.0, 3.0))
    probes = [((0.0, 0.0), 0.25, (0.25, 0.5)), ((0.125, 0.0), 0.125, (0.0, 0.25))]
    with pytest.raises(ParameterError, match=re.escape("a_1 leaves the structure interval")):
        flux_corollary_batch(lump_slab_32, outside, probes, 0.5)


def test_flux_checker_broadcasts_a_callable_that_returns_one_value(lump_slab_32):
    # the solvers broadcast a_d(x, t) = 2 to every face; the checker does too
    constant = QuasilinearFlux("diagonal-perturbed", a=(2.0, 2.0), c_o=1.0, c_1=3.0)
    one_value = QuasilinearFlux(
        "diagonal-perturbed", a=(lambda x, t: 2.0, 2.0), c_o=1.0, c_1=3.0
    )
    args = (0.25, 0.5, (0.25, 0.5))
    got = check_flux_corollary(lump_slab_32, one_value, *args)
    # repr, as m is NaN on this kind and NaN != NaN
    assert repr(got) == repr(check_flux_corollary(lump_slab_32, constant, *args))


def test_jensen_on_solved_slab(lump_slab_32):
    rng = np.random.default_rng(11)
    probes = sample_cylinders(lump_slab_32.grid, lump_slab_32.times, rng, 12)
    for center, rho, t0, t1 in probes:
        chk = jensen_check(lump_slab_32, center, rho, 0.5, (t0, t1))
        assert chk.satisfied, f"violation at {center}, rho={rho}"
        assert chk.lhs <= chk.rhs + 1e-9


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_checkers_reject_nonpositive_or_nan_samples(lump_slab_32, bad):
    values = np.array(lump_slab_32.values)
    values[-1, 16, 16] = bad  # the center node at t = 0.5, inside every probe
    slab = SpaceTimeSlab(lump_slab_32.grid, lump_slab_32.times, values)
    center, window = (0.0, 0.0), (0.25, 0.5)
    log_flux = QuasilinearFlux(kind="log-diffusion")
    checks = (
        lambda: check_l1_harnack(slab, center, 0.25, window),
        lambda: check_l1_harnack_pme(slab, 0.2, center, 0.25, window),
        lambda: check_energy_lemma(slab, center, 0.125, 0.5, window),
        lambda: check_energy_lemma_pme(slab, 0.2, center, 0.125, 0.5, window),
        lambda: check_flux_corollary(slab, log_flux, 0.25, 0.5, window),
        lambda: jensen_check(slab, center, 0.25, 0.5, window),
    )
    for check in checks:
        with pytest.raises(ParameterError, match="finite and positive"):
            check()


def test_sample_cylinders_alignment(lump_slab_32):
    grid = lump_slab_32.grid
    rng = np.random.default_rng(3)
    probes = sample_cylinders(grid, lump_slab_32.times, rng, 40)
    assert len(probes) == 40
    h = grid.spacing
    times = [float(t) for t in lump_slab_32.times]
    for center, rho, t0, t1 in probes:
        j = rho / (4.0 * h)
        assert j == pytest.approx(round(j))  # rho is a whole multiple of 4h
        for c in center:
            k = (c - grid.axis(0)[0]) / h
            assert k == pytest.approx(round(k))  # centers on nodes
        assert t0 < t1
        assert any(abs(t0 - t) < 1e-12 for t in times)
        assert any(abs(t1 - t) < 1e-12 for t in times)
        # doubled cube stays on the grid
        grid.cube_slices(Cube(center, 2 * rho))


def test_sample_cylinders_needs_cells():
    g = Grid.regular(2, 1.0, 0.25)
    with pytest.raises(GeometryError):
        sample_cylinders(g, np.array([0.0, 0.1]), np.random.default_rng(0), 3)


def test_pointwise_harnack_lump(lump_slab_64):
    rep = check_pointwise_harnack(lump_slab_64, (0.0, 0.0), 0.5, 1.0 / 16)
    assert 0.0 < rep.f_star <= 1.0
    assert rep.theta > 0
    assert 0.0 < rep.eta <= 1.0
    assert rep.lambda_p > 0
    assert not rep.degenerate


def test_pointwise_harnack_constant(constant_slab):
    rep = check_pointwise_harnack(constant_slab, (0.0, 0.0), 0.25, 1.0 / 8)
    assert rep.f_star == pytest.approx(1.0, abs=1e-10)
    assert rep.eta == pytest.approx(1.0, abs=1e-10)


def test_pointwise_harnack_guards(lump_slab_32):
    with pytest.raises(ParameterError):
        check_pointwise_harnack(lump_slab_32, (0.0, 0.0), 0.5, 1.0 / 16, p=3.0)
    with pytest.raises(GeometryError):
        # the 8x cube cannot fit
        check_pointwise_harnack(lump_slab_32, (0.0, 0.0), 0.5, 0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["q", "eps", "p", "r"])
def test_pointwise_harnack_rejects_constants_that_are_not_finite(lump_slab_32, name, bad):
    # p = nan gave lambda_p = nan and p = inf gave 1.0; a bad q or eps was blamed
    # on the data, and a bad r made eta NaN
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        check_pointwise_harnack(lump_slab_32, (0.0, 0.0), 0.5, 1.0 / 16, **{name: bad})


def test_pointwise_harnack_spreads_its_probe_levels():
    # 1D, u = 1 + x/4 at every level, rho = 2h: theta = 0.1, and 16384 steps
    # over the intrinsic depth 64 theta rho^2 put ~16 levels in its top
    # sixteenth, of which the inf reads _POINTWISE_PROBES evenly spread ones
    g = Grid.regular(1, 1.0, 1.0 / 32)
    rho = 2.0 * g.spacing
    times = np.linspace(0.0, 0.02501, 16 * 1024 + 1)
    values = np.broadcast_to(1.0 + 0.25 * g.axis(0), (times.size, g.npts))
    slab = SpaceTimeSlab(g, times, values)
    rep = check_pointwise_harnack(slab, (0.0,), float(times[-1]), rho)
    assert rep.theta * rho**2 / 16.0 > 12.0 * slab.dt
    assert rep.n_probes == 8
    assert 0.0 < rep.f_star <= 1.0


@pytest.mark.parametrize("bad", [np.nan, -1.0, 0.0, np.inf])
@pytest.mark.parametrize("t_bad", [0.496, 0.5])
def test_pointwise_harnack_rejects_bad_nodes(lump_slab_64, monkeypatch, t_bad, bad):
    # a node next to the vertex (0, 0): at t_o it is probed; at t = 0.496 it
    # lies only in the backward cylinder K_8rho that gives sup_u and lambda_p,
    # and at a budget of one level per chunk in a chunk after the first
    values = lump_slab_64.values.copy()
    values[lump_slab_64.level_index(t_bad), 33, 32] = bad
    slab = SpaceTimeSlab(lump_slab_64.grid, lump_slab_64.times, values)
    for budget in (functionals._CHUNK_DOUBLES, 1):
        monkeypatch.setattr(functionals, "_CHUNK_DOUBLES", budget)
        with pytest.raises(ParameterError, match="finite and positive"):
            check_pointwise_harnack(slab, (0.0, 0.0), 0.5, 1.0 / 16)


def test_fit_pointwise_constants(lump_slab_64):
    reports = [
        check_pointwise_harnack(lump_slab_64, (0.0, 0.0), 0.5, 1.0 / 16),
        check_pointwise_harnack(lump_slab_64, (0.125, 0.0), 0.45, 1.0 / 16),
        check_pointwise_harnack(lump_slab_64, (0.0, -0.125), 0.4, 1.0 / 16),
    ]
    fit = fit_pointwise_constants(reports)
    assert np.isfinite(fit.c1) and np.isfinite(fit.c2)
    for rep in reports:
        bound = np.exp(-(rep.lambda_p**fit.c1) / rep.eta**fit.c2)
        assert bound <= rep.f_star + 1e-9
    with pytest.raises(ParameterError):
        fit_pointwise_constants([])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["lambda_p", "eta", "f_star"])
def test_fit_pointwise_constants_rejects_non_finite_values(name, bad):
    good = dict(degenerate=False, lambda_p=0.5, eta=0.8, f_star=0.6)
    reports = [SimpleNamespace(**good), SimpleNamespace(**{**good, name: bad})]
    with pytest.raises(ParameterError, match=f"finite {name}"):
        fit_pointwise_constants(reports)


def test_distributional_defects_match_reference():
    for cells, expect in DIST_DEFECTS.items():
        g = Grid.regular(2, 2.0, 2.0 / cells)
        chk = distributional_identity_check(Cutoff((0.0, 0.0), 1.0, 0.5), g)
        assert chk.laplacian_defect == pytest.approx(expect, rel=1e-12)
        assert chk.shift_defect_at_one == 0.0


def test_distributional_shift_invariance(lump_slab_32):
    g = Grid.regular(2, 2.0, 2.0 / 64)
    v = Lump2D(c=1.0, T=1.0).sample(g, 0.0)
    chk = distributional_identity_check(Cutoff((0.0, 0.0), 1.0, 0.5), g, v_field=v)
    # ln v - ln(v/M) = ln M is constant: defect reduces to |ln M| * base
    assert chk.shift_defect == pytest.approx(
        chk.laplacian_defect * abs(np.log(10.0)), rel=1e-9
    )
    assert chk.shift_defect_at_one == 0.0


def test_distributional_check_refuses_a_nan_in_v():
    # NaN fails every comparison, so a check for v <= 0 would let it through
    g = Grid.regular(2, 2.0, 2.0 / 32)
    v = np.ones(g.shape)
    v[16, 16] = np.nan
    with pytest.raises(ParameterError, match="positive on the support"):
        distributional_identity_check(Cutoff((0.0, 0.0), 1.0, 0.5), g, v_field=v)


def test_distributional_support_must_be_interior():
    g = Grid.regular(2, 2.0, 2.0 / 32)
    with pytest.raises(GeometryError):
        distributional_identity_check(Cutoff((0.0, 0.0), 2.0, 0.0), g)
