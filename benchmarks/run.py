"""logdiff benchmark: one workload per process, end-to-end or traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--smoke] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.  A run
sets up its inputs several times (``setup_s`` is the import time plus the
median set-up), then repeats the workload's timed operation until the next
one would end past ``--seconds`` (at least twice, so that the outputs of two
repetitions can be compared byte for byte), checks every repetition's
outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, with ``wall_s`` and ``setup_s`` scaled to the machine
speed a reference kernel measures during the same run (see ``speed.py``;
the unscaled values are printed too).  ``--trace 1`` reports the per-layer
ones: it alternates untraced
and traced repetitions and reads the layers from spans recorded around the
calls into each logdiff module (see ``tracing.py``).

``--workload all`` runs every workload, each in its own child process, prints
a table and checks that each run emits exactly the metrics of
``BENCHMARK.json`` with their units.  ``--smoke`` shrinks every workload to
its minimal size; with ``all`` it runs both trace modes.

BLAS and OpenMP pools are pinned to one thread before numpy loads: on a
2-vCPU x86-64 VM the 64^2 solve took 4.3-4.7 s with one OpenBLAS thread and
4.9-5.9 s with two.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
MIN_REPS = 2
WORKLOAD_NAMES = ("lump2d-solve", "verify-battery", "msweep", "barenblatt3d")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "oracle_rel_err": "ratio",
}


def _import_program():
    """Import logdiff from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import logdiff

    origin = Path(logdiff.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"logdiff imported from {origin}, not from {ROOT / 'src'}")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        deps = config.get("Build Dependencies", {}).get("blas", {})
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"

    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "git_sha": _git_sha(),
    }


def run_workload(args) -> dict:
    _import_program()
    import speed
    import tracing
    import workloads

    import_s = time.perf_counter() - _T0
    kernel = speed.ReferenceKernel()
    for _ in range(3):
        kernel.sample()
    size = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](size, args.seed, args.smoke)
    tracer = tracing.Tracer() if args.trace else None
    null = tracing.NullTracer()
    budget = 0.0 if args.smoke else args.seconds
    traced_reps = []
    problems = []

    work = Path(tempfile.mkdtemp(prefix=".benchwork-", dir=ROOT))
    try:
        inputs = work / "input"
        inputs.mkdir()
        setup_times = []
        for i in range(SETUP_REPS):
            if tracer:
                tracer.rep = ("setup", i)
                traced_reps.append(tracer.rep)
                tracer.install()
            start = time.perf_counter()
            workload.setup(inputs, tracer or null)
            setup_times.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()

        walls = {False: [], True: []}
        timed_s = 0.0
        reps = []
        loop_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_start
            durations = walls[False] + walls[True]
            if len(reps) >= MIN_REPS and elapsed + statistics.median(durations) > budget:
                break
            traced = bool(tracer) and len(reps) % 2 == 1
            if traced:
                tracer.rep = ("op", len(reps))
                traced_reps.append(tracer.rep)
                tracer.install()
            out = work / f"rep{len(reps)}"
            rep = workloads.Rep()
            wall = 0.0
            try:
                for part in workload.parts(out, tracer if traced else null, rep):
                    kernel.keep_up(timed_s + wall)
                    start = time.perf_counter()
                    part()
                    wall += time.perf_counter() - start
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            timed_s += wall
            workload.check(out, rep)
            shutil.rmtree(out, ignore_errors=True)
            reps.append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kernel.sample()
    scale = kernel.scale()

    first = reps[0]
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {p}" for p in rep.problems]
        if rep.digests != first.digests:
            changed = sorted(
                k for k in set(rep.digests) | set(first.digests)
                if rep.digests.get(k) != first.digests.get(k)
            )
            problems.append(f"rep {i}: outputs differ from rep 0: {changed}")
    items = sum(r.items for r in reps)
    item_errors = sum(r.item_errors for r in reps)
    wall_s = statistics.median(walls[False])
    setup_s = import_s + statistics.median(setup_times)
    e2e = {
        "setup_s": scale * setup_s,
        "wall_s": scale * wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (items - item_errors) / items,
        "oracle_rel_err": max(r.oracle_rel_err for r in reps),
    }
    drift = max((r.values.get("neumann_mass_drift", 0.0) for r in reps), default=0.0)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "walls": walls,
        "unscaled": {"setup_s": setup_s, "wall_s": wall_s, "speed_scale": scale},
        "items": items,
        "item_errors": item_errors,
        "fail_frac": item_errors / items,
        "neumann_mass_drift": drift,
        "e2e": {k: (v, E2E_UNITS[k]) for k, v in e2e.items()},
        "problems": problems,
    }
    if tracer:
        layers = tracing.layer_metrics(tracer, traced_reps)
        layers["solvers.neumann_mass_drift"] = (drift, "ratio")
        overhead = statistics.median(walls[True]) / wall_s - 1.0
        layers["trace.overhead_frac"] = (overhead, "ratio")
        metrics = layers
    else:
        metrics = report["e2e"]
    report["result"] = {
        "correct": not problems,
        "attempted": sum(r.operations for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report


def print_report(report: dict, env: dict) -> None:
    print(f"env {json.dumps(env, sort_keys=True)}")
    walls = report["walls"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  "
        f"untraced walls {[round(w, 3) for w in walls[False]]}  "
        f"traced walls {[round(w, 3) for w in walls[True]]}"
    )
    print(
        "  unscaled "
        + "  ".join(f"{k} {v:.6g}" for k, v in report["unscaled"].items())
    )
    for problem in report["problems"]:
        print(f"FAILED CHECK {problem}")
    print(
        f"  {'fail_frac':<44} {report['fail_frac']:.6g} ratio "
        f"({report['item_errors']} of {report['items']} probes/solves)"
    )
    print(f"  {'neumann_mass_drift':<44} {report['neumann_mass_drift']:.6g} ratio")
    for name, metric in report["result"]["metrics"].items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report["result"]))


def run_all(args) -> int:
    """Each workload in a child process; checks metric names and units against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        print("BENCHMARK.json workloads differ from the benchmark's", file=sys.stderr)
        return 1
    ok = True
    modes = (0, 1) if args.smoke else (args.trace,)
    for name in WORKLOAD_NAMES:
        for trace in modes:
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            print("\n".join(lines[1:-1]))
            result = json.loads(lines[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                print(f"{name} trace={trace}: metrics differ from BENCHMARK.json:")
                for key in sorted(set(got) | set(expected[trace])):
                    if got.get(key) != expected[trace].get(key):
                        print(f"  {key}: emitted {got.get(key)}, declared {expected[trace].get(key)}")
                ok = False
            ok = ok and result["correct"] and result["failed"] == 0
    print("all workloads:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args)
    print_report(report, _environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
