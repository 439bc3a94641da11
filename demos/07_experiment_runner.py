"""
Batch experiments through the command line runner
=================================================

Everything in the library is also reachable through the ``logdiff``
command: solve a slab from a config file, verify estimates over sampled
cylinders into CSV, and re-certify the oracles.  Runs are reproducible
byte for byte, so diffing two output directories is a meaningful test.
"""

import csv
import json
import pathlib
import tempfile

from logdiff.cli import main

CONFIG = """
[grid]
dim = 2
edge = 1.0
cells = 32

[initial]
fixture = lump2d

[solver]
equation = log-diffusion
dt = 0.015625
horizon = 0.25
boundary = dirichlet-from-oracle

[verify]
slab = solve/slab.slab
count = 8
sigma = 0.5
"""

with tempfile.TemporaryDirectory(prefix="logdiff_demo_") as tmp:
    root = pathlib.Path(tmp)
    cfg = root / "experiment.ini"
    cfg.write_text(CONFIG)

    # Solve once, then run two verification passes against the stored slab.
    rc = main(["solve", "--config", str(cfg), "--out", str(root / "solve")])
    print("solve exit code:", rc)

    for out in ("verify_a", "verify_b"):
        rc = main(
            [
                "verify",
                "l1",
                "--config",
                str(cfg),
                "--out",
                str(root / out),
                "--seed",
                "11",
                "--threads",
                "4",
            ]
        )
        print(f"{out} exit code:", rc)

    a = (root / "verify_a" / "report.csv").read_bytes()
    b = (root / "verify_b" / "report.csv").read_bytes()
    print("two runs byte-identical:", a == b)

    # The CSV is plain enough for the stdlib reader; every row carries the
    # full probe geometry next to the computed constants.
    with open(root / "verify_a" / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    print(f"\n{len(rows)} probes verified")
    for row in rows[:4]:
        print(
            f"  center={row['center']}  rho={row['rho']}  "
            f"window=[{row['t_start']}, {row['t_end']}]  gamma*={row['gamma_star']}"
        )

    # Each run directory carries a manifest naming its inputs and outputs.
    manifest = json.loads((root / "verify_a" / "manifest.json").read_text())
    print(f"\nmanifest run_id={manifest['run_id']}  files={manifest['files']}")

    # Oracle certification from the command line, no config needed.
    rc = main(
        ["oracle-check", "lump2d", "--meshes", "16", "32", "64", "--out", str(root / "oracle")]
    )
    print("\noracle-check exit code:", rc)
    print((root / "oracle" / "oracle.csv").read_text().strip())
