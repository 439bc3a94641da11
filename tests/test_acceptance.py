"""Acceptance suite: the thirteen release gates with pinned tolerances.

Each test prints exactly one PASS/FAIL line (bypassing capture) so the
verdicts are readable straight off the pytest log, then asserts.  Tolerances
are fixed here, not computed: loosening one is a visible diff.
"""

import time

import numpy as np
import pytest

from logdiff import (
    Cube,
    Cutoff,
    ExpSteady,
    Grid,
    Lump2D,
    QuasilinearFlux,
    SolverConfig,
    check_energy_lemma,
    check_l1_harnack,
    check_l1_harnack_pme,
    check_pointwise_harnack,
    convergence_order,
    derivative_table,
    distributional_identity_check,
    fit_derivative_growth,
    fit_order,
    gradient_energy,
    jensen_check,
    oscillation,
    residual_check,
    run_m_sweep,
    sample_cylinders,
    solve_porous_medium,
    check_uniform_conditions,
    time_scaling_exponent,
)
from logdiff.cli import main as cli_main

from conftest import HORIZON, SOLVE_TIMES, lump_grid

LUMP = Lump2D(c=1.0, T=1.0)


def verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_01_oracle_gate(capsys):
    start = time.monotonic()
    hs, errs = [], []
    for cells in (32, 64, 128):
        g = lump_grid(cells)
        hs.append(g.spacing)
        errs.append(residual_check(LUMP, g, 0.0))
    order = fit_order(hs, errs)
    exp_res = residual_check(ExpSteady(a=(1.0, 0.5), scale=2.0), lump_grid(64), 0.0)
    elapsed = time.monotonic() - start
    ok = abs(order - 2.0) <= 0.15 and exp_res <= 1e-10 and elapsed < 60.0
    verdict(
        capsys, 1, "oracle-gate", ok,
        f"order={order:.4f}, exp_residual={exp_res:.2e}, {elapsed:.1f}s",
    )


def test_02_solver_convergence(capsys, lump_slab_32, lump_slab_64, lump_slab_128):
    rep = convergence_order([lump_slab_32, lump_slab_64, lump_slab_128], LUMP)
    solve_time = sum(SOLVE_TIMES.get(c, 0.0) for c in (32, 64, 128))
    ok = (
        1.85 <= rep.order <= 2.3
        and rep.errors[-1] <= 1e-3
        and rep.reliable
        and solve_time < 600.0
    )
    verdict(
        capsys, 2, "solver-convergence", ok,
        f"order={rep.order:.4f}, finest_err={rep.errors[-1]:.2e}, solves={solve_time:.0f}s",
    )


def test_03_exponent_identities(capsys):
    ok = True
    for N in (1, 2, 3):
        ok = ok and time_scaling_exponent(N) == 2.0 - N
        for m in (0.5, 0.25, 0.125):
            ok = ok and time_scaling_exponent(N, m) == N * (m - 1.0) + 2.0
        ok = ok and abs(time_scaling_exponent(N, 1e-12) - (2.0 - N)) < 1e-9
    verdict(capsys, 3, "exponent-identities", ok, "N=1,2,3 exact, m->0 limit")


def test_04_functional_limit(capsys):
    g = Grid.regular(2, 1.0, 1.0 / 128)
    slab = LUMP.sample_slab(g, [0.0, 0.01])
    cube, window = Cube((0.0, 0.0), 1.0), (-0.005, 0.005)
    worst = (np.inf, 0.0)
    ratios = {}
    for p in (1.0, 2.0, 5.0):
        lam = oscillation(slab, cube, window, M=8.0, p=p)
        gaps = {
            m: oscillation(slab, cube, window, M=8.0, m=m / 2.0, p=p, normalized=True) - lam
            for m in (0.2, 0.1, 0.05)
        }
        r1 = gaps[0.1] / gaps[0.2]
        r2 = gaps[0.05] / gaps[0.1]
        ratios[p] = (r1, r2)
        worst = (min(worst[0], r1, r2), max(worst[1], r1, r2))
    ok = 0.4 <= worst[0] and worst[1] <= 0.6
    verdict(
        capsys, 4, "functional-limit", ok,
        "halving ratios in [%.3f, %.3f] over p=1,2,5" % worst,
    )


def test_05_l1_harnack_stability(capsys, lump_slab_64, lump_slab_128, constant_slab):
    g64 = check_l1_harnack(lump_slab_64, (0.0, 0.0), 0.25, (0.25, 0.5)).gamma_star
    g128 = check_l1_harnack(lump_slab_128, (0.0, 0.0), 0.25, (0.25, 0.5)).gamma_star
    drift = abs(g64 - g128) / g128
    g_const = check_l1_harnack(constant_slab, (0.0, 0.0), 0.25, (0.0, 0.25)).gamma_star
    ok = (
        np.isfinite(g64)
        and np.isfinite(g128)
        and drift < 0.10
        and g_const <= 0.25 + 1e-12
    )
    verdict(
        capsys, 5, "l1-harnack-stability", ok,
        f"gamma*={g128:.5f}, drift={drift:.2%}, constant={g_const:.5f} <= 0.25",
    )


def test_06_pme_harnack_m_stability(capsys):
    g = lump_grid(32)
    initial = LUMP.sample(g, 0.0)
    config = SolverConfig(
        dt=1.0 / 64, boundary="dirichlet-from-oracle", boundary_values=LUMP
    )
    gammas = []
    for m in (0.4, 0.2, 0.1, 0.05):
        slab = solve_porous_medium(initial, m, config, HORIZON)
        rep = check_l1_harnack_pme(slab, m, (0.0, 0.0), 0.25, (0.25, 0.5))
        gammas.append(rep.gamma_star)
    top, med = max(gammas), float(np.median(gammas))
    ok = all(np.isfinite(v) for v in gammas) and top <= 1.5 * med
    verdict(
        capsys, 6, "pme-harnack-m-stability", ok,
        f"gamma* max={top:.5f} <= 1.5 x median={med:.5f}",
    )


def test_07_energy_lemma(capsys, lump_slab_64, lump_slab_128):
    r64 = check_energy_lemma(lump_slab_64, (0.0, 0.0), 0.25, 0.5, (0.25, 0.5)).ratio
    r128 = check_energy_lemma(lump_slab_128, (0.0, 0.0), 0.25, 0.5, (0.25, 0.5)).ratio
    drift = abs(r64 - r128) / r128
    sol = ExpSteady(a=(1.0, 0.0), scale=1.0)
    g = Grid.regular(2, 1.0, 1.0 / 64)
    exp_slab = sol.sample_slab(g, np.linspace(0.0, 1.0, 5))
    lhs = gradient_energy(exp_slab, Cutoff((0.0, 0.0), 1.0, 0.0), (0.0, 1.0))
    ok = (
        np.isfinite(r64)
        and r64 > 0
        and np.isfinite(r128)
        and r128 > 0
        and drift < 0.10
        and abs(lhs - 1.0) <= 0.02
    )
    verdict(
        capsys, 7, "energy-lemma", ok,
        f"ratio={r128:.4f}, drift={drift:.2%}, exp_lhs={lhs:.5f} vs 1.0",
    )


def test_08_jensen_bound(capsys, lump_slab_32, lump_slab_64):
    rng = np.random.default_rng(2024)
    violations = 0
    total = 0
    for slab in (lump_slab_32, lump_slab_64):
        probes = sample_cylinders(slab.grid, slab.times, rng, 25)
        for center, rho, t0, t1 in probes:
            chk = jensen_check(slab, center, rho, 0.5, (t0, t1))
            total += 1
            violations += 0 if chk.satisfied else 1
    ok = total >= 50 and violations == 0
    verdict(
        capsys, 8, "jensen-bound", ok,
        f"{total} cylinders, {violations} violations",
    )


def test_09_pointwise_sandwich(capsys, lump_slab_32, lump_slab_64, lump_slab_128, constant_slab):
    probes = [((0.0, 0.0), 0.5), ((0.125, 0.0), 0.45), ((0.0, -0.125), 0.4)]
    f_values = {}
    all_ok = True
    for cells, slab in ((32, lump_slab_32), (64, lump_slab_64), (128, lump_slab_128)):
        for x_o, t_o in probes:
            rep = check_pointwise_harnack(slab, x_o, t_o, 1.0 / 16)
            all_ok = all_ok and 0.0 < rep.f_star <= 1.0
            f_values[(cells, x_o)] = rep.f_star
    drift = abs(
        f_values[(64, (0.0, 0.0))] - f_values[(128, (0.0, 0.0))]
    ) / f_values[(128, (0.0, 0.0))]
    rep_const = check_pointwise_harnack(constant_slab, (0.0, 0.0), 0.25, 1.0 / 8)
    const_ok = abs(rep_const.f_star - 1.0) <= 1e-10
    ok = all_ok and drift < 0.10 and const_ok
    verdict(
        capsys, 9, "pointwise-sandwich", ok,
        f"f* in (0,1] on 9 lump probes, drift={drift:.2%}, constant={rep_const.f_star:.12f}",
    )


def test_10_analyticity_signature(capsys):
    g = Grid.regular(2, 1.0, 1.0 / 64)
    slab = LUMP.sample_slab(g, np.linspace(-0.1, 0.1, 5))
    t6 = derivative_table(slab, (0.0, 0.0), 0.0, a_max=6, k_max=3)
    t4 = derivative_table(slab, (0.0, 0.0), 0.0, a_max=4, k_max=3)
    h6 = fit_derivative_growth(t6, 1.0).fitted_h
    h4 = fit_derivative_growth(t4, 1.0).fitted_h
    drift = abs(h6 - h4) / h6
    from logdiff import normalized_spatial_roots

    roots = normalized_spatial_roots(t6, 1.0)
    bounded = max(roots.values()) <= 2.0
    exp_slab = ExpSteady(a=(1.0, 0.0), scale=1.0).sample_slab(
        g, np.linspace(0.0, 0.2, 5)
    )
    h_exp = fit_derivative_growth(
        derivative_table(exp_slab, (0.0, 0.0), 0.1, a_max=6, k_max=2), 1.0
    ).fitted_h
    h = g.spacing
    ok = bounded and drift < 0.15 and h_exp <= 1.0 + h * h
    verdict(
        capsys, 10, "analyticity-signature", ok,
        f"H={h6:.4f}, drift(4->6)={drift:.2%}, exp H={h_exp:.8f} <= {1 + h * h:.8f}",
    )


def test_11_msweep_convergence(capsys):
    g = lump_grid(32)
    config = SolverConfig(
        dt=1.0 / 64, boundary="dirichlet-from-oracle", boundary_values=LUMP
    )
    result = run_m_sweep(LUMP.sample(g, 0.0), (0.4, 0.2, 0.1, 0.05), config, 0.25)
    dists = [e.l1_distance for e in result.entries]
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    uniform = check_uniform_conditions(result, r=2.0, p=5.0)
    ok = decreasing and uniform.verdict == "bounded"
    verdict(
        capsys, 11, "msweep-convergence", ok,
        "L1 distances "
        + " > ".join(f"{d:.2e}" for d in dists)
        + f", verdict={uniform.verdict}",
    )


def test_12_distributional_diagnostic(capsys):
    defects = []
    for cells in (32, 64, 128):
        g = Grid.regular(2, 2.0, 2.0 / cells)
        chk = distributional_identity_check(Cutoff((0.0, 0.0), 1.0, 0.5), g)
        defects.append(chk.laplacian_defect)
        at_one = chk.shift_defect_at_one
    ratios = [b / a for a, b in zip(defects, defects[1:])]
    ok = all(0.35 <= r <= 0.65 for r in ratios) and at_one == 0.0
    verdict(
        capsys, 12, "distributional-diagnostic", ok,
        "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios) + f", M=1 defect={at_one}",
    )


def test_13_reproducibility(capsys, tmp_path):
    cfg = tmp_path / "repro.ini"
    cfg.write_text(
        "[grid]\ndim = 2\nedge = 1.0\ncells = 16\n\n"
        "[initial]\nfixture = lump2d\n\n"
        "[solver]\nequation = log-diffusion\ndt = 0.0625\nhorizon = 0.25\n"
        "boundary = dirichlet-from-oracle\n\n"
        "[verify]\nslab = solve/slab.slab\ncount = 5\n\n"
        "[msweep]\nm_values = 0.4 0.2\n"
    )
    assert cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 0
    pairs = []
    for sub, out_a, out_b in (
        (["verify", "l1"], "va", "vb"),
        (["oracle-check", "lump2d", "--meshes", "8", "16"], "oa", "ob"),
        (["msweep"], "ma", "mb"),
    ):
        args = sub if sub[0] == "oracle-check" else sub + ["--config", str(cfg)]
        assert cli_main(args + ["--out", str(tmp_path / out_a), "--seed", "5", "--threads", "2"]) == 0
        assert cli_main(args + ["--out", str(tmp_path / out_b), "--seed", "5", "--threads", "2"]) == 0
        for rel in ("report.csv", "oracle.csv", "msweep/summary.csv"):
            fa = tmp_path / out_a / rel
            fb = tmp_path / out_b / rel
            if fa.is_file():
                pairs.append((rel, fa.read_bytes() == fb.read_bytes()))
    ok = len(pairs) == 3 and all(same for _, same in pairs)
    verdict(
        capsys, 13, "reproducibility", ok,
        "byte-identical: " + ", ".join(f"{rel}={same}" for rel, same in pairs),
    )
