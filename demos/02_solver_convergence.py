"""
BDF2 solver and its convergence orders in space and time
========================================================

The solver advances u_t = lap(ln u) with BDF2 (backward Euler on the first
step) and a damped Newton iteration.  Measured against the exact travelling
lump, halving h (with dt tied to h^2) should cut the error by about four.
The lump is linear in t, so it sees no time error; the Barenblatt profile
does, and halving dt on a fixed mesh should cut that by about four too.
"""

import numpy as np

from logdiff import (
    BarenblattFD,
    Grid,
    Lump2D,
    QuasilinearFlux,
    SolverConfig,
    convergence_order,
    residual_norm,
    solve_log_diffusion,
    solve_porous_medium,
)

sol = Lump2D(c=1.0, T=1.0)
HORIZON = 0.25

# dt = 16 h^2 keeps the time error subordinate to the spatial one while
# the step count stays proportional to cells^2 / 16.
slabs = []
for cells in (16, 32, 64):
    grid = Grid.regular(2, 1.0, 1.0 / cells)
    config = SolverConfig(
        dt=16.0 * grid.spacing**2,
        boundary="dirichlet-from-oracle",
        boundary_values=sol,
    )
    slab = solve_log_diffusion(sol.sample(grid, 0.0), config, HORIZON)
    slabs.append(slab)
    print(
        f"cells={cells:3d}  steps={len(slab.times) - 1:4d}  "
        f"newton_iters={slab.meta['newton_iters']}"
    )

report = convergence_order(slabs, sol)
print("\nmax relative interior error at t =", HORIZON)
for h, err in zip(report.spacings, report.errors):
    print(f"  h={h:.6f}  error={err:.3e}")
print(f"fitted order = {report.order:.4f}  reliable={report.reliable}")

# The solved slab should satisfy its own discrete equation to solver
# tolerance; residual_norm replays the scheme the slab names on its levels.
res = residual_norm(slabs[-1], QuasilinearFlux("log-diffusion"))
print(f"\n{slabs[-1].meta['scheme']} residual on finest slab: {res:.3e}")

# Time order: the Barenblatt pme solution (m = 0.5) on 32^2 cells over 32 h^2,
# at dt = 8, 4, 2 h^2, against the same mesh at dt = h^2/4.
baren = BarenblattFD(m=0.5)
grid = Grid.regular(2, 1.0, 1.0 / 32)
h2 = grid.spacing**2


def final_level(dt):
    config = SolverConfig(dt=dt, boundary="dirichlet-from-oracle", boundary_values=baren)
    return solve_porous_medium(baren.sample(grid, 0.0), 0.5, config, 32 * h2).values[-1]


ref = final_level(h2 / 4)
errs = [float(np.abs(final_level(f * h2) - ref).max()) for f in (8, 4, 2)]
print("\nBarenblatt m=0.5, time error against dt = h^2/4")
for f, err in zip((8, 4, 2), errs):
    print(f"  dt={f}h^2  error={err:.3e}")
orders = np.log2(np.divide(errs[:-1], errs[1:]))
print("time order per halving = " + " / ".join(f"{o:.2f}" for o in orders))

# A constant is a steady state of every run of this equation: nothing
# flows when ln u is flat.  One coarse sanity step to close the loop.
grid = Grid.regular(2, 1.0, 1.0 / 16)
const = np.full(grid.shape, 3.0)
config = SolverConfig(dt=0.01, boundary="neumann-zero-flux")
from logdiff import Field

flat = solve_log_diffusion(Field(grid, const), config, 0.05)
drift = float(np.abs(flat.values[-1] - 3.0).max())
print(f"constant-state drift after 5 steps: {drift:.3e}")
