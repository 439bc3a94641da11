"""Power-to-log limit machinery: sweeps, norms, verdicts, persistence."""

import json

import numpy as np
import pytest

from logdiff import (
    Cube,
    Field,
    Lump2D,
    MSweepResult,
    ParameterError,
    SolverConfig,
    check_mass_lower_bound,
    check_uniform_conditions,
    run_m_sweep,
)

from conftest import lump_grid

LUMP = Lump2D(c=1.0, T=1.0)


def small_sweep(m_values=(0.4, 0.2, 0.1)):
    g = lump_grid(16)
    config = SolverConfig(
        dt=1.0 / 64, boundary="dirichlet-from-oracle", boundary_values=LUMP
    )
    return run_m_sweep(LUMP.sample(g, 0.0), m_values, config, 0.25)


@pytest.fixture(scope="module")
def sweep():
    return small_sweep()


def test_sweep_validates_m_values():
    g = lump_grid(16)
    config = SolverConfig(dt=1.0 / 64, boundary="neumann-zero-flux")
    initial = Field(g, np.full(g.shape, 1.0))
    with pytest.raises(ParameterError):
        run_m_sweep(initial, (0.2, 0.4), config, 0.25)
    with pytest.raises(ParameterError):
        run_m_sweep(initial, (0.4, 0.4), config, 0.25)
    with pytest.raises(ParameterError):
        run_m_sweep(initial, (1.2, 0.4), config, 0.25)


def test_sweep_entries_and_distances(sweep):
    assert [e.m for e in sweep.entries] == [0.4, 0.2, 0.1]
    assert all(e.ok for e in sweep.entries)
    dists = [e.l1_distance for e in sweep.entries]
    assert all(np.isfinite(d) and d > 0 for d in dists)
    # power solutions approach the log solution as m decreases
    assert dists[1] < dists[0]
    assert dists[2] < dists[1]
    assert all(np.isfinite(e.gamma_star) and e.gamma_star > 0 for e in sweep.entries)
    assert all(np.isfinite(e.energy_ratio) for e in sweep.entries)
    assert all(e.mass_floor > 0 for e in sweep.entries)


def test_sweep_rows_fixed_columns(sweep):
    rows = sweep.rows()
    cols = set(rows[0])
    assert all(set(r) == cols for r in rows)
    assert "fs_osc_p" in cols


def test_uniform_conditions_verdict(sweep):
    verdict = check_uniform_conditions(sweep, r=2.0, p=5.0)
    assert verdict.verdict in ("bounded", "unbounded")
    assert np.isfinite(verdict.u_max)
    assert verdict.warning == ""
    low_r = check_uniform_conditions(sweep, r=1.0, p=5.0)
    assert low_r.warning != ""


def test_mass_lower_bound(sweep):
    e_o = Cube(sweep.e_o_center, sweep.e_o_edge)
    verdict = check_mass_lower_bound(sweep, e_o, sigma_floor=1e-6)
    assert verdict.passed
    strict = check_mass_lower_bound(sweep, e_o, sigma_floor=1e6)
    assert not strict.passed


def test_sweep_save_load_roundtrip(tmp_path, sweep):
    out = tmp_path / "sweepdir"
    sweep.save(out)
    back = MSweepResult.load(out)
    assert back.m_values == sweep.m_values
    assert back.rho == pytest.approx(sweep.rho)
    for a, b in zip(back.entries, sweep.entries):
        assert a.m == b.m
        assert a.l1_distance == pytest.approx(b.l1_distance, rel=1e-12)
    assert np.array_equal(back.log_slab.values, sweep.log_slab.values)
    for m in sweep.m_values:
        assert np.array_equal(back.pme_slabs[m].values, sweep.pme_slabs[m].values)
    # the functional sets come back too: a second save writes the same bytes
    assert all(e.functional_set is not None for e in back.entries)
    assert same_rows(back.rows(), sweep.rows())
    back.save(tmp_path / "again")
    for name in ("summary.csv", "manifest.json"):
        assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes()


def same_rows(a, b):
    """Row lists equal cell by cell, a NaN cell equal to a NaN cell."""
    def same(x, y):
        return x == y or (isinstance(x, float) and isinstance(y, float) and x != x and y != y)

    return len(a) == len(b) and all(
        r.keys() == s.keys() and all(same(r[k], s[k]) for k in r) for r, s in zip(a, b)
    )


def test_sweep_load_rejects_inconsistent_manifests(tmp_path, sweep):
    out = tmp_path / "sweepdir"
    sweep.save(out)
    manifest = json.loads((out / "manifest.json").read_text())

    def load_with(change):
        man = json.loads(json.dumps(manifest))
        change(man)
        (out / "manifest.json").write_text(json.dumps(man))
        with pytest.raises(ParameterError) as err:
            MSweepResult.load(out)
        return str(err.value)

    assert "'rho'" in load_with(lambda man: man.pop("rho"))
    assert "'files'" in load_with(lambda man: man.pop("files"))
    assert "'gamma_star'" in load_with(lambda man: man["entries"][0].pop("gamma_star"))
    assert "m = 0.3" in load_with(lambda man: man["entries"][1].update(m=0.3))
    assert "gone.slab" in load_with(lambda man: man["files"].update(pme_0="gone.slab"))


def test_sweep_failure_slot_is_kept(tmp_path):
    # one Newton iteration per step meets tol 2e-3 on the log solve and on
    # m = 0.2, but not on m = 0.4: that entry keeps its slot with NaN metrics
    # and the sweep goes on to m = 0.2
    g = lump_grid(16)
    config = SolverConfig(
        dt=1.0 / 64, newton_tol=2e-3, newton_max_iter=1, boundary_values=LUMP
    )
    result = run_m_sweep(LUMP.sample(g, 0.0), (0.4, 0.2), config, 0.25)
    bad, good = result.entries
    assert (bad.m, bad.ok, good.m, good.ok) == (0.4, False, 0.2, True)
    assert bad.failure.startswith("Newton did not reach tol")
    assert bad.gamma_ref == 1.0 / 0.4 and bad.functional_set is None
    metrics = ("l1_distance", "gamma_star", "energy_ratio", "u_norm", "w_norm", "mass_floor")
    assert all(np.isnan(getattr(bad, k)) for k in metrics)
    assert np.isfinite(good.l1_distance) and list(result.pme_slabs) == [0.2]
    result.save(tmp_path / "sweep")
    loaded = MSweepResult.load(tmp_path / "sweep")
    assert (loaded.entries[0].ok, loaded.entries[0].failure) == (False, bad.failure)
    assert np.isnan(loaded.entries[0].gamma_star) and list(loaded.pme_slabs) == [0.2]
    assert loaded.entries[0].functional_set is None
    assert same_rows(loaded.rows(), result.rows())
