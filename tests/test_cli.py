"""Command-line interface: subcommands, exit codes, manifests, determinism."""

import csv
import errno
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logdiff
import logdiff.cli
from logdiff import BarenblattFD, Grid, Lump2D, QuasilinearFlux, SolverConfig, read_slab, write_slab
from logdiff import Cube, MSweepResult, SpaceTimeSlab, integrate
from logdiff import solve_porous_medium, solve_quasilinear
from logdiff.cli import VERIFY_KINDS, load_config, main

from conftest import lump_grid

BASE_CONFIG = """\
[grid]
dim = 2
edge = 1.0
cells = 16

[initial]
fixture = lump2d
c = 1.0
T = 1.0

[solver]
equation = log-diffusion
dt = 0.0625
horizon = 0.25
boundary = dirichlet-from-oracle

[verify]
slab = solve/slab.slab
count = 5
sigma = 0.5
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One solve shared by the verify tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.ini"
    cfg.write_text(BASE_CONFIG)
    code = main(["solve", "--config", str(cfg), "--out", str(root / "solve")])
    assert code == 0
    return root


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_solve_outputs_and_manifest(run_dir):
    slab_file = run_dir / "solve" / "slab.slab"
    manifest = json.loads((run_dir / "solve" / "manifest.json").read_text())
    assert slab_file.is_file()
    assert manifest["command"] == "solve"
    assert "slab.slab" in manifest["files"]
    assert "manifest.json" in manifest["files"]
    assert manifest["config"]["solver"]["dt"] == 0.0625
    assert len(manifest["run_id"]) == 12


def test_solve_prints_its_solver_totals(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE_CONFIG.split("[verify]")[0])
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"solve: wrote {out / 'slab.slab'} (5 levels; 8 Newton, 42 PCG iterations, "
        "0 linear cap hits)\n"
    )


def test_verify_l1_rows(run_dir):
    out = run_dir / "l1"
    code = main([
        "verify", "l1", "--config", str(run_dir / "run.ini"),
        "--out", str(out), "--seed", "7",
    ])
    assert code == 0
    rows = read_rows(out / "report.csv")
    assert len(rows) == 5
    assert all(r["error"] == "" for r in rows)
    assert all(float(r["gamma_star"]) > 0 for r in rows)
    assert [r["probe"] for r in rows] == [str(i) for i in range(5)]


@pytest.mark.parametrize("kind", VERIFY_KINDS)
def test_verify_deterministic_across_runs_and_threads(run_dir, kind):
    cfg = str(run_dir / "run.ini")
    outs = []
    for name, threads in (("det1", "1"), ("det2", "4"), ("det3", "4")):
        out = run_dir / f"{name}-{kind}"
        code = main([
            "verify", kind, "--config", cfg, "--out", str(out),
            "--seed", "3", "--threads", threads,
        ])
        assert code == 0
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_verify_explicit_probe(run_dir, tmp_path):
    cfg = tmp_path / "one.ini"
    cfg.write_text(BASE_CONFIG.replace("count = 5", "count = 1") + "rho = 0.25\nwindow = 0.125 0.25\n")
    # config-relative slab path
    (tmp_path / "solve").mkdir()
    (tmp_path / "solve" / "slab.slab").write_bytes(
        (run_dir / "solve" / "slab.slab").read_bytes()
    )
    out = tmp_path / "explicit"
    code = main(["verify", "l1", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = read_rows(out / "report.csv")
    assert len(rows) == 1
    assert rows[0]["rho"] == "0.25"


def test_verify_distributional(run_dir, tmp_path):
    cfg = tmp_path / "dist.ini"
    cfg.write_text(
        BASE_CONFIG.replace("count = 5", "count = 1")
        + "rho = 0.25\ncenter = 0.0 0.0\n"
    )
    (tmp_path / "solve").mkdir()
    (tmp_path / "solve" / "slab.slab").write_bytes(
        (run_dir / "solve" / "slab.slab").read_bytes()
    )
    out = tmp_path / "dist"
    code = main(["verify", "distributional", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = read_rows(out / "report.csv")
    assert len(rows) == 1
    assert rows[0]["error"] == ""
    assert float(rows[0]["shift_defect_at_one"]) == 0.0


def test_verify_pointwise_records_probe_errors(run_dir):
    # sampled probes on this tiny slab cannot satisfy the intrinsic geometry;
    # failures land in the error column, not the exit code
    out = run_dir / "pw"
    code = main([
        "verify", "pointwise", "--config", str(run_dir / "run.ini"),
        "--out", str(out), "--seed", "1",
    ])
    assert code == 0
    rows = read_rows(out / "report.csv")
    assert len(rows) == 5
    assert all(set(r) == set(rows[0]) for r in rows)


def test_verify_counts_probe_errors_by_class(run_dir, capsys):
    out = run_dir / "pw-errors"
    assert main([
        "verify", "pointwise", "--config", str(run_dir / "run.ini"),
        "--out", str(out), "--seed", "1",
    ]) == 0
    n_err = sum(1 for r in read_rows(out / "report.csv") if r["error"])
    errors = json.loads((out / "manifest.json").read_text())["config"]["verify_effective"]["errors"]
    assert n_err > 0
    assert sum(errors.values()) == n_err
    assert set(errors) <= {"GeometryError", "ParameterError"}
    detail = ", ".join(f"{name} {n}" for name, n in errors.items())
    assert f"({n_err} probe errors: {detail})" in capsys.readouterr().out


def test_verify_error_cells_round_floats_to_six_digits(run_dir):
    # full-precision floats would make report.csv bytes hang on roundoff
    out = run_dir / "pw-digits"
    assert main([
        "verify", "pointwise", "--config", str(run_dir / "run.ini"),
        "--out", str(out), "--seed", "1",
    ]) == 0
    errors = [r["error"] for r in read_rows(out / "report.csv") if r["error"]]
    floats = [f for e in errors for f in re.findall(r"\d+\.\d+(?:e[-+]?\d+)?", e)]
    assert floats  # the depth messages embed the window depth
    for f in floats:
        mantissa = f.split("e")[0].replace(".", "").lstrip("0")
        assert len(mantissa) <= 6, f


@pytest.mark.parametrize(
    "rho",
    ["0", "nan", pytest.param("center", id="nan-center"), pytest.param("window", id="nan-end")],
)
@pytest.mark.parametrize("dim", [1, 3])
def test_verify_records_a_rho_that_is_not_positive(tmp_path, dim, rho):
    # rho = 0 reached the l1 time term rho^lam and raised ZeroDivisionError, and
    # rho = nan passed the cube's edge check and raised ValueError (exit 1); a NaN
    # center coordinate and, for pointwise, a NaN window end did the same
    grid = Grid.regular(dim, 1.0, 0.25)
    write_slab(SpaceTimeSlab(grid, [0.0, 0.5], np.ones((2,) + grid.shape)), tmp_path / "s.slab")
    cfg = tmp_path / "v.ini"
    setting = {
        "center": "center = nan" + " 0" * (dim - 1), "window": "window = 0 nan"
    }.get(rho, f"rho = {rho}")
    # m = 0.5 keeps N(m-1)+2 > 0 in 3D, so l1-pme reaches the time term too
    cfg.write_text(f"[verify]\nslab = s.slab\ncount = 1\n{setting}\nm = 0.5\n")
    for kind in VERIFY_KINDS:
        out = tmp_path / kind
        assert main(["verify", kind, "--config", str(cfg), "--out", str(out)]) == 0
        (row,) = read_rows(out / "report.csv")
        assert row["error"] or (rho == "window" and kind == "distributional")  # no window
        if kind in ("l1", "l1-pme") and rho in ("0", "nan"):
            assert row["error"] == f"rho must be finite and positive, got {rho}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("count = 0", "[verify] count must be >= 1, got 0"),
        ("count = -3", "[verify] count must be >= 1, got -3"),
        (
            "count = 5\nrho = 0.1\ncenter = 0.3 0.3",
            "[verify] center, rho: set only with count = 1, got 5",
        ),
        ("count = 2\nwindow = 0.0 0.25", "[verify] window: set only with count = 1, got 2"),
    ],
    ids=["count-0", "count-negative", "count-5-center-rho", "count-2-window"],
)
def test_verify_count_below_one_or_with_an_explicit_probe_is_config_error(
    run_dir, tmp_path, capsys, text, message
):
    # count < 1 wrote one explicit probe, and count > 1 sampled its probes
    # without a word about the center, rho or window that the config set
    cfg = run_dir / f"{tmp_path.name}.ini"
    cfg.write_text(BASE_CONFIG.replace("count = 5", text))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["verify", "l1", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("dim, p", [(2, 5.0), (3, 6.0)])
def test_default_p_exceeds_n_plus_2(tmp_path, dim, p):
    # p = 5 made every pointwise probe on a 3D slab a row error, "need p > N + 2 = 5"
    grid = Grid.regular(dim, 1.0, 1.0 / 16)
    write_slab(BarenblattFD().sample_slab(grid, np.linspace(0.0, 0.25, 17)), tmp_path / "b.slab")
    cfg = tmp_path / "b.ini"
    cfg.write_text(
        f"[grid]\ndim = {dim}\ncells = 8\n\n[initial]\nfixture = barenblatt_fd\n\n"
        "[solver]\ndt = 0.015625\nhorizon = 0.03125\n\n"
        "[verify]\nslab = b.slab\ncount = 4\n\n[msweep]\nm_values = 0.4\n"
    )
    for command in (["verify", "pointwise"], ["msweep"]):
        out = tmp_path / command[-1]
        assert main(command + ["--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"][command[0]]["p"] == p
    rows = read_rows(tmp_path / "pointwise" / "report.csv")
    assert not any("need p" in row["error"] for row in rows)
    assert {row["p"] for row in rows if not row["error"]} == {repr(p)}


def test_msweep_cli(tmp_path):
    cfg = tmp_path / "ms.ini"
    cfg.write_text(
        BASE_CONFIG.split("[verify]")[0]
        + "[msweep]\nm_values = 0.4 0.2\n"
    )
    out = tmp_path / "ms"
    code = main(["msweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    summary = read_rows(out / "msweep" / "summary.csv")
    assert [r["m"] for r in summary] == ["0.4", "0.2"]
    assert (out / "msweep" / "logdiff.slab").is_file()
    assert (out / "msweep" / "pme_0.slab").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert any(f.startswith("msweep/") for f in manifest["files"])


def test_solve_starts_at_the_configured_t0(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE_CONFIG.split("[verify]")[0].replace("T = 1.0\n", "T = 1.0\nt0 = 0.25\n"))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 0
    slab = read_slab(tmp_path / "solve" / "slab.slab")
    assert slab.times[0] == 0.25
    expected = Lump2D(c=1.0, T=1.0).sample(slab.grid, 0.25).values
    assert np.array_equal(slab.values[0], expected)


def test_msweep_measures_the_mass_floor_on_the_configured_e_o_edge(tmp_path):
    cfg = tmp_path / "ms.ini"
    cfg.write_text(
        BASE_CONFIG.split("[verify]")[0] + "[msweep]\nm_values = 0.4 0.2\ne_o_edge = 0.5\n"
    )
    out = tmp_path / "ms"
    assert main(["msweep", "--config", str(cfg), "--out", str(out)]) == 0
    result = MSweepResult.load(out / "msweep")
    cube = Cube(result.center, 0.5)
    assert result.e_o_edge == 0.5 and len(result.entries) == 2
    for entry in result.entries:
        slab = result.pme_slabs[entry.m]
        assert entry.mass_floor == integrate(slab.values[-1], slab.grid, cube)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["msweep"]["e_o_edge"] == 0.5


def test_oracle_check_cli(tmp_path):
    out = tmp_path / "oc"
    code = main(["oracle-check", "lump2d", "--out", str(out), "--meshes", "8", "16", "32"])
    assert code == 0
    rows = read_rows(out / "oracle.csv")
    assert len(rows) == 3
    order = float(rows[0]["order"])
    assert 1.7 <= order <= 2.3


def test_oracle_check_reads_fixture_parameters_from_config(tmp_path):
    # the config's [initial] parameters reach the residuals, the dimension and the manifest
    runs = {}
    for name, text in {
        "default": None,
        "lump": "[initial]\nc = 0.25\nT = 2.0\n",
        "exp3d": "[initial]\na = 0.5, 0.25, 1.0\nscale = 3.0\n",
    }.items():
        fixture = "exp_steady" if name == "exp3d" else "lump2d"
        argv = ["oracle-check", fixture, "--out", str(tmp_path / name), "--meshes", "8", "16"]
        if text is not None:
            (tmp_path / f"{name}.ini").write_text(text)
            argv += ["--config", str(tmp_path / f"{name}.ini")]
        assert main(argv) == 0
        rows = read_rows(tmp_path / name / "oracle.csv")
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        runs[name] = ([float(r["residual"]) for r in rows], manifest)
    residuals, manifest = runs["lump"]
    assert manifest["config"]["initial"] == {"c": 0.25, "T": 2.0}
    assert manifest["run_id"] != "no-config"
    # u_t and the log's Laplacian both scale with c: another c gives other residuals
    assert residuals != runs["default"][0]
    residuals, manifest = runs["exp3d"]
    assert manifest["config"]["initial"] == {"a": [0.5, 0.25, 1.0], "scale": 3.0}
    assert all(r <= 1e-10 for r in residuals)  # ln u affine on the 3D grid
    assert runs["default"][1]["run_id"] == "no-config"


@pytest.mark.parametrize(
    "fixture, text",
    [("lump2d", "c = nan"), ("lump2d", "T = inf"), ("exp_steady", "scale = inf"),
     ("exp_steady", "a = 1.0, nan"), ("barenblatt_fd", "C = nan")],
)
def test_oracle_check_rejects_fixture_parameters_that_are_not_finite(
    tmp_path, capsys, fixture, text
):
    # each exited 0 with nan residuals and order, after a RuntimeWarning
    (tmp_path / "bad.ini").write_text(f"[initial]\n{text}\n")
    out = tmp_path / "oc"
    capsys.readouterr()
    argv = ["oracle-check", fixture, "--config", str(tmp_path / "bad.ini"), "--out", str(out)]
    assert main(argv + ["--meshes", "8", "16"]) == 2
    key = text.split("=")[0].strip()
    assert f"config error: {fixture} needs a finite {key}" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_check_exp_exact(tmp_path):
    out = tmp_path / "oce"
    code = main(["oracle-check", "exp_steady", "--out", str(out), "--meshes", "16", "32"])
    assert code == 0
    rows = read_rows(out / "oracle.csv")
    assert all(float(r["residual"]) <= 1e-10 for r in rows)


@pytest.mark.parametrize("command", ["solve", "verify", "msweep", "oracle-check"])
def test_negative_seed_is_a_config_error_before_any_work(run_dir, tmp_path, capsys, command):
    # verify with count > 1 died in numpy's default_rng with a traceback and exit 1
    args = {
        "solve": ["solve", "--config", str(run_dir / "run.ini")],
        "verify": ["verify", "l1", "--config", str(run_dir / "run.ini")],
        "msweep": ["msweep", "--config", str(run_dir / "run.ini")],
        "oracle-check": ["oracle-check", "lump2d", "--meshes", "8", "16"],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(args + ["--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_exit_codes(tmp_path, run_dir, capsys):
    # unknown fixture -> config error
    assert main(["oracle-check", "nope", "--out", str(tmp_path / "a")]) == 2
    # missing config file
    assert main(["solve", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "b")]) == 2
    # config without required --config flag
    assert main(["solve", "--out", str(tmp_path / "c")]) == 2
    # unreadable slab -> verification io error
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[verify]\nslab = missing.slab\n")
    assert main(["verify", "l1", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 4
    junk = tmp_path / "junk.slab"
    junk.write_bytes(b"not a slab")
    cfg2 = tmp_path / "bad2.ini"
    cfg2.write_text(f"[verify]\nslab = {junk}\n")
    assert main(["verify", "l1", "--config", str(cfg2), "--out", str(tmp_path / "e")]) == 4
    # truncated slab -> verification io error naming the byte counts
    full = (run_dir / "solve" / "slab.slab").read_bytes()
    cut = tmp_path / "cut.slab"
    cut.write_bytes(full[:-100])
    cfg3 = tmp_path / "bad3.ini"
    cfg3.write_text(f"[verify]\nslab = {cut}\n")
    capsys.readouterr()
    assert main(["verify", "l1", "--config", str(cfg3), "--out", str(tmp_path / "f")]) == 4
    err = capsys.readouterr().err
    assert f"has {len(full) - 100} bytes" in err and f"needs {len(full)}" in err


@pytest.mark.parametrize("command", ["solve", "verify", "msweep", "oracle-check"])
def test_an_output_that_cannot_be_written_is_an_io_error(tmp_path, run_dir, command):
    """Run as its own process, so the exit code is the one a shell sees."""
    solver = BASE_CONFIG.split("[verify]")[0]
    cfg = tmp_path / "run.ini"
    cfg.write_text({
        "solve": solver,
        "verify": f"[verify]\nslab = {run_dir / 'solve' / 'slab.slab'}\n",
        "msweep": solver + "[msweep]\nm_values = 0.4 0.2\n",
        "oracle-check": "",
    }[command])
    argv = {
        "verify": ["verify", "l1"],
        "oracle-check": ["oracle-check", "lump2d", "--meshes", "8", "16"],
    }.get(command, [command])
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    done = subprocess.run(
        [sys.executable, "-m", "logdiff.cli", *argv, "--config", str(cfg), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(Path(logdiff.__file__).parents[1])},
        capture_output=True, text=True,
    )
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("I/O error:") and str(out) in done.stderr
    assert "Traceback" not in done.stderr


def test_an_unwritable_output_is_found_before_the_solve(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(logdiff.cli, "solve_quasilinear", lambda *a: calls.append(a))
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE_CONFIG.split("[verify]")[0])
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    for target in (out, out / "below"):
        assert main(["solve", "--config", str(cfg), "--out", str(target)]) == 4
        assert capsys.readouterr().err.startswith(f"I/O error: [Errno {errno.ENOTDIR}]")
    assert calls == [] and out.read_text() == "a file, not a directory"


@pytest.mark.parametrize(
    "offset, fmt, value",
    [
        (9, "<d", 0.0),  # spacing
        (9, "<d", float("nan")),
        (9, "<d", 0.3),  # 17 nodes on edge 1 need 1/16
        (33, "<d", -1.0),  # edge
        (17, "<d", float("inf")),  # center
    ],
)
def test_verify_rejects_corrupted_grid_header(tmp_path, run_dir, capsys, offset, fmt, value):
    full = (run_dir / "solve" / "slab.slab").read_bytes()
    bad = tmp_path / "bad.slab"
    bad.write_bytes(full[:offset] + struct.pack(fmt, value) + full[offset + 8 :])
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[verify]\nslab = {bad}\n")
    capsys.readouterr()
    assert main(["verify", "l1", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert f"{bad} has a corrupted grid header" in err


@pytest.mark.parametrize("blob", [b"[1, 2]", b"12", b"[]"])
def test_verify_rejects_slab_metadata_that_is_not_an_object(tmp_path, run_dir, capsys, blob):
    full = (run_dir / "solve" / "slab.slab").read_bytes()
    meta = read_slab(run_dir / "solve" / "slab.slab").meta
    old = json.dumps(meta, sort_keys=True, default=str).encode()
    at = full.index(old)
    bad = tmp_path / "bad.slab"
    bad.write_bytes(full[: at - 4] + struct.pack("<i", len(blob)) + blob + full[at + len(old) :])
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[verify]\nslab = {bad}\n")
    capsys.readouterr()
    assert main(["verify", "l1", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert f"cannot read slab {bad}" in err and "not a JSON object" in err


@pytest.mark.parametrize("at, value", [(16, float("inf")), (5, float("nan"))])
def test_verify_rejects_slab_times_that_are_not_finite(tmp_path, capsys, at, value):
    # each slab was read and verified: exit 0 with every row computed
    slab = Lump2D(c=1.0, T=1.0).sample_slab(lump_grid(16), np.linspace(0.0, 0.5, 17))
    good = tmp_path / "good.slab"
    write_slab(slab, good)
    full = good.read_bytes()
    offset = full.index(slab.times.tobytes()) + 8 * at
    bad = tmp_path / "bad.slab"
    bad.write_bytes(full[:offset] + struct.pack("<d", value) + full[offset + 8 :])
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[verify]\nslab = {bad}\ncount = 20\n")
    capsys.readouterr()
    assert main(["verify", "l1", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert f"cannot read slab {bad}" in err and "slab times must be finite" in err
    assert not (tmp_path / "o").exists()


def test_solver_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "hard.ini"
    cfg.write_text(
        BASE_CONFIG.replace(
            "dt = 0.0625",
            "dt = 0.125\nnewton_tol = 1e-14\nnewton_max_iter = 1\nmax_damping = 0",
        )
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    # the failing step and its residual max-norms: the Newton start's, then one iteration's
    assert capsys.readouterr().err.splitlines()[-1] == (
        "failed step: 0; its Newton residuals: 9.069e+00, 6.051e-02"
    )


@pytest.mark.parametrize(
    "edit",
    [
        ("dt = 0.0625", "dt = nan"),
        ("horizon = 0.25", "horizon = inf"),
        ("horizon = 0.25", "horizon = nan"),
        ("dt = 0.0625", "dt = 0.0625\nnewton_tol = 0"),
        ("dt = 0.0625", "dt = 0.0625\nnewton_tol = nan"),
        ("dt = 0.0625", "dt = 0.0625\nnewton_max_iter = 0"),
        ("dt = 0.0625", "dt = 0.0625\nmax_damping = -1"),
    ],
    ids=lambda edit: edit[1].splitlines()[-1].replace(" ", ""),
)
def test_bad_solver_controls_are_config_errors(tmp_path, capsys, edit):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(BASE_CONFIG.replace(*edit))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "s").exists()


def _equation(equation, keys):
    """BASE_CONFIG with ``[solver] equation`` and the extra ``[solver]`` lines."""
    return BASE_CONFIG.replace("equation = log-diffusion", f"equation = {equation}\n{keys}")


@pytest.mark.parametrize(
    "equation, keys",
    [("pme", "m = 0.3"), ("quasilinear", "m = 0.2\na = 1.0 0.7")],
    ids=["pme", "quasilinear"],
)
def test_solve_runs_the_flux_of_the_equation(tmp_path, equation, keys):
    cfg = tmp_path / "eq.ini"
    cfg.write_text(_equation(equation, keys))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    got = read_slab(tmp_path / "s" / "slab.slab")
    lump = Lump2D(c=1.0, T=1.0)
    initial, config = lump.sample(lump_grid(16), 0.0), SolverConfig(dt=0.0625, boundary_values=lump)
    if equation == "pme":
        want = solve_porous_medium(initial, 0.3, config, 0.25)
    else:
        flux = QuasilinearFlux("diagonal-perturbed", m=0.2, a=(1.0, 0.7), c_o=0.7)
        want = solve_quasilinear(initial, flux, config, 0.25)
    assert np.array_equal(got.times, want.times) and np.array_equal(got.values, want.values)
    assert got.meta["equation"] == want.meta["equation"]


@pytest.mark.parametrize(
    "equation, kind, m_cell",
    [("log-diffusion", "flux-log", "nan"), ("pme", "flux-pme", "0.3")],
    ids=["log-diffusion", "pme"],
)
def test_verify_flux_follows_the_equation(run_dir, equation, kind, m_cell):
    # the log flux has m = 0 whatever [solver] m says, so it keeps the log bound
    cfg = run_dir / f"flux-{equation}.ini"
    cfg.write_text(_equation(equation, "m = 0.3"))
    out = run_dir / f"flux-{equation}"
    assert main(["verify", "flux", "--config", str(cfg), "--out", str(out), "--seed", "2"]) == 0
    rows = [r for r in read_rows(out / "report.csv") if not r["error"]]
    assert rows and all((r["kind"], r["m"]) == (kind, m_cell) for r in rows)
    assert json.loads((out / "manifest.json").read_text())["config"]["solver"]["m"] == 0.3


def test_verify_flux_echoes_the_solver_m_it_read(run_dir):
    # without [solver] m, every verify kind reads it as 0.2, the log flux too
    for kind in ("flux", "l1-pme"):
        out = run_dir / f"echo-{kind}"
        assert main(["verify", kind, "--config", str(run_dir / "run.ini"), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["solver"]["m"] == 0.2, kind


def test_flux_with_too_few_coefficients_is_config_error(run_dir):
    # one a on a 2D grid: solve and verify flux read the per-axis coefficients
    # through one check, so neither drops axis 1
    cfg = run_dir / "one-a.ini"
    cfg.write_text(_equation("quasilinear", "a = 1.0"))
    assert main(["solve", "--config", str(cfg), "--out", str(run_dir / "one-a-solve")]) == 2
    out = run_dir / "one-a-verify"
    assert main(["verify", "flux", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "report.csv").exists()


def test_solver_m_has_one_default(run_dir):
    # quasilinear without m: the flux and the pme verify kinds read one default
    cfg = run_dir / "no-m.ini"
    cfg.write_text(_equation("quasilinear", "a = 1.0 0.7"))
    echoed = set()
    for kind in ("flux", "l1-pme"):
        out = run_dir / f"no-m-{kind}"
        assert main(["verify", kind, "--config", str(cfg), "--out", str(out)]) == 0
        echoed.add(json.loads((out / "manifest.json").read_text())["config"]["solver"]["m"])
    assert echoed == {0.2}
    rows = [r for r in read_rows(run_dir / "no-m-flux" / "report.csv") if not r["error"]]
    assert rows and all(r["m"] == "0.2" for r in rows)


def test_constant_fixture_is_config_error(tmp_path):
    cfg = tmp_path / "const.ini"
    cfg.write_text(BASE_CONFIG.replace("fixture = lump2d", "fixture = constant"))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
    # the same constant state, and steady: exp_steady with a = 0 (without the lump's c and T)
    steady = "fixture = exp_steady\na = 0 0\nscale = 2.0"
    cfg.write_text(BASE_CONFIG.replace("fixture = lump2d\nc = 1.0\nT = 1.0", steady))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0
    assert (read_slab(tmp_path / "e" / "slab.slab").values == 2.0).all()


def test_msweep_cli_records_a_failed_m_and_goes_on(tmp_path, capsys):
    # one Newton iteration per step meets tol 2e-3 at m = 0.2 but not at 0.4
    cfg = tmp_path / "ms.ini"
    solver = "dt = 0.015625\nnewton_tol = 2e-3\nnewton_max_iter = 1"
    cfg.write_text(
        BASE_CONFIG.split("[verify]")[0].replace("dt = 0.0625", solver)
        + "[msweep]\nm_values = 0.4 0.2\n"
    )
    assert main(["msweep", "--config", str(cfg), "--out", str(tmp_path / "ms")]) == 0
    summary = read_rows(tmp_path / "ms" / "msweep" / "summary.csv")
    assert [(r["m"], r["ok"]) for r in summary] == [("0.4", "False"), ("0.2", "True")]
    assert summary[0]["fs_sup_u"] == summary[0]["gamma_star"] == "nan"
    assert "failed at m = [0.4]" in capsys.readouterr().out


def test_bad_equation_is_config_error(tmp_path):
    cfg = tmp_path / "eq.ini"
    cfg.write_text(BASE_CONFIG.replace("equation = log-diffusion", "equation = heat"))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 2


@pytest.mark.parametrize(
    "edit, message",
    [
        (("dt = 0.0625", "dt = 0.0625\npositivity_floor = 0.5"), "in [solver]: positivity_floor"),
        (("[verify]", "[solvers]\ndt = 0.1\n\n[verify]"), "section [solvers]"),
        (("T = 1.0", "T = 1.0\nvalue = 2.0"), "in [initial]: value"),
        (("dt = 0.0625", "dt = 0.0625\nkind = pme\nc_o = 0.5"), "in [solver]: c_o, kind"),
    ],
    ids=["stale-key", "misspelt-section", "removed-value", "removed-kind"],
)
def test_unknown_config_key_or_section_is_config_error(tmp_path, capsys, edit, message):
    cfg = tmp_path / "stale.ini"
    cfg.write_text(BASE_CONFIG.replace(*edit))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_reading_a_key_missing_from_the_known_keys_fails(tmp_path):
    # a reader added without its _KNOWN_KEYS entry fails on its first read, not
    # only when a user sets the key
    cfg = tmp_path / "base.ini"
    cfg.write_text(BASE_CONFIG)
    with pytest.raises(AssertionError, match="positivity_floor"):
        load_config(cfg).get("solver", "positivity_floor", 0.0, float)


def test_oracle_past_lifespan_is_config_error(tmp_path, capsys):
    # the lump is defined for t < T = 1; the last step evaluates its boundary
    # values at t = 1
    cfg = tmp_path / "late.ini"
    cfg.write_text(BASE_CONFIG.replace("horizon = 0.25", "horizon = 1.0"))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "z")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_non_positive_boundary_value_is_config_error(tmp_path, capsys, monkeypatch):
    # an oracle that turns negative after t = 0 fails the solve, it is not clipped
    exact = Lump2D.eval
    monkeypatch.setattr(
        Lump2D, "eval", lambda self, x, t: exact(self, x, t) if t == 0.0 else -exact(self, x, t)
    )
    cfg = tmp_path / "neg.ini"
    cfg.write_text(BASE_CONFIG)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "n")]) == 2
    err = capsys.readouterr().err
    assert "boundary values must be finite and positive at t=0.0625" in err


@pytest.mark.parametrize("command", ["solve", "msweep"])
def test_initial_key_of_another_fixture_is_config_error(tmp_path, capsys, command):
    # m belongs to barenblatt_fd: with the lump it would be ignored and never echoed
    cfg = tmp_path / "foreign.ini"
    cfg.write_text(BASE_CONFIG.replace("T = 1.0", "T = 1.0\nm = 0.3"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "[initial] m: not a parameter of fixture 'lump2d'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_MSWEEP_CONFIG = BASE_CONFIG.split("[verify]")[0] + "[msweep]\nm_values = 0.4 0.2\n"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["verify", "l1"], "window = 0.5", "[verify] window: need 2 values, got 1"),
        (["verify", "l1"], "window = 0.1 0.2 0.3", "[verify] window: need 2 values, got 3"),
        (["verify", "l1"], "center = 0.1", "[verify] center: need 2 values, got 1"),
        (["verify", "l1"], "center = 0 0 0", "[verify] center: need 2 values, got 3"),
        (["msweep"], "window = 0.2", "[msweep] window: need 2 values, got 1"),
        (["oracle-check", "lump2d", "--meshes", "0", "8"], None, "--meshes must be >= 2"),
        (["oracle-check", "lump2d", "--meshes", "8", "8"], None, "must not repeat a mesh, got 8 8"),
    ],
    ids=[
        "window-1", "window-3", "center-1", "center-3", "msweep-window-1", "meshes-0",
        "meshes-repeated",
    ],
)
def test_list_of_the_wrong_length_or_too_few_cells_is_config_error(
    run_dir, tmp_path, capsys, argv, text, message
):
    # a window holds two times, a center one coordinate per axis, a mesh at least 2 cells
    out = tmp_path / "out"
    if text is not None:
        cfg = run_dir / f"{tmp_path.name}.ini"
        single = BASE_CONFIG.replace("count = 5", "count = 1")
        base = _MSWEEP_CONFIG if argv == ["msweep"] else single
        cfg.write_text(base + text + "\n")
        argv = argv + ["--config", str(cfg)]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        (["verify", "pointwise"], "p = nan"),
        (["verify", "l1"], "q = inf"),
        (["verify", "energy"], "r = -inf"),
        (["msweep"], "eps = nan"),
        (["msweep"], "p = inf"),
    ],
    ids=["verify-p-nan", "verify-q-inf", "verify-r-minus-inf", "msweep-eps-nan", "msweep-p-inf"],
)
def test_probe_constants_that_are_not_finite_are_config_errors(
    run_dir, tmp_path, capsys, command, text
):
    # each ran and exited 0, with NaN cells or a quiet wrong lambda_p
    section = command[0]
    base = BASE_CONFIG if section == "verify" else _MSWEEP_CONFIG
    cfg = run_dir / f"{tmp_path.name}.ini"
    cfg.write_text(base.replace(f"[{section}]\n", f"[{section}]\n{text}\n"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
    key, value = (part.strip() for part in text.split("="))
    err = capsys.readouterr().err
    assert f"config error: bad value for [{section}] {key}: must be finite, got {value}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, m, message",
    [
        ("l1-pme", "0", "m must be in (0, 1)"),
        ("l1-pme", "1", "m must be in (0, 1)"),
        ("energy-pme", "0.7", "power energy bound needs 0 < m < 2/3"),
    ],
    ids=["l1-pme-m0", "l1-pme-m1", "energy-pme-m0.7"],
)
def test_power_kind_m_out_of_range_is_config_error(run_dir, tmp_path, capsys, kind, m, message):
    # each wrote one identical error row per probe and exited 0
    cfg = run_dir / f"{tmp_path.name}.ini"
    cfg.write_text(BASE_CONFIG.replace("[verify]\n", f"[verify]\nm = {m}\n"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["verify", kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("energy", "sigma = 1.5", "sigma must lie in (0, 1) for the energy bound"),
        ("energy-pme", "sigma = 0", "sigma must lie in (0, 1) for the energy bound"),
        ("flux", "sigma = 1.5", "sigma must lie in (0, 1) for the flux bound"),
        ("distributional", "sigma = 1.5", "cutoff sigma must lie in [0, 1)"),
        ("pointwise", "p = 3", "need p > N + 2 = 4, got 3.0"),
        ("pointwise", "eps = -0.1", "q and eps must be positive"),
        ("pointwise", "r = 0.5", "need N(m-1) + 2r > 0, got -1"),
    ],
    ids=["energy-sigma", "energy-pme-sigma", "flux-sigma", "distributional-sigma",
         "pointwise-p", "pointwise-eps", "pointwise-r"],
)
def test_probe_constant_out_of_range_is_config_error(run_dir, tmp_path, capsys, kind, text, message):
    # each wrote one identical error row per probe and exited 0
    cfg = run_dir / f"{tmp_path.name}.ini"
    cfg.write_text(BASE_CONFIG.replace("sigma = 0.5\n", "") + f"{text}\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["verify", kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_msweep_rejects_m_values_that_do_not_decrease(tmp_path, capsys):
    cfg = tmp_path / "ms.ini"
    cfg.write_text(_MSWEEP_CONFIG.replace("m_values = 0.4 0.2", "m_values = 0.2 0.4"))
    assert main(["msweep", "--config", str(cfg), "--out", str(tmp_path / "ms")]) == 2
    assert "config error: m_values must be strictly decreasing" in capsys.readouterr().err
