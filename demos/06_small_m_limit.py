"""
The small-m limit: porous medium runs collapsing onto log-diffusion
===================================================================

As m decreases to zero, (u^m - 1)/m approaches ln u from below and the
porous-medium flow should converge to the log-diffusion flow.  This
script watches three things: the functional gap halving with m, the L1
distance between solved slabs shrinking, and the uniform-in-m verdict
on the quantities that must not blow up along the way.
"""

import numpy as np

from logdiff import (
    Cube,
    Grid,
    Lump2D,
    SolverConfig,
    check_mass_lower_bound,
    check_uniform_conditions,
    oscillation,
    run_m_sweep,
)

sol = Lump2D(c=1.0, T=1.0)
grid = Grid.regular(2, 1.0, 1.0 / 64)

# Functional level first, no solver involved: on a fixed sampled field
# the normalized power oscillation sits below its log limit and the gap
# halves every time m does.
slab = sol.sample_slab(grid, [0.0, 0.01])
cube, window = Cube((0.0, 0.0), 1.0), (-0.005, 0.005)
lam = oscillation(slab, cube, window, M=8.0, p=2.0)
print(f"log oscillation (p=2)           = {lam:.6f}")
prev = None
for m in (0.4, 0.2, 0.1, 0.05):
    val = oscillation(slab, cube, window, M=8.0, m=m / 2.0, p=2.0, normalized=True)
    gap = val - lam
    line = f"m={m:4.2f}  power value={val:.6f}  gap={gap:+.2e}"
    if prev is not None:
        line += f"  gap ratio={gap / prev:.3f}"
    prev = gap
    print(line)

# Now the flows themselves.  One log-diffusion reference run, one
# porous-medium run per m, and the cross-slab diagnostics bundled into
# a single sweep result.
coarse = Grid.regular(2, 1.0, 1.0 / 32)
config = SolverConfig(
    dt=1.0 / 64, boundary="dirichlet-from-oracle", boundary_values=sol
)
result = run_m_sweep(sol.sample(coarse, 0.0), (0.4, 0.2, 0.1, 0.05), config, 0.25)

print("\nm sweep on the solved lump")
for entry in result.entries:
    print(
        f"  m={entry.m:5.2f}  ok={entry.ok}  L1 distance={entry.l1_distance:.3e}  "
        f"gamma*={entry.gamma_star:.4f}  energy ratio={entry.energy_ratio:.4f}"
    )

# The verdict aggregates the sup norms of u and of the power-scaled
# auxiliary field across the sweep: "bounded" means no hidden blow-up
# in the limit, which is the quantitative heart of the stability claim.
verdict = check_uniform_conditions(result, r=2.0, p=5.0)
print(
    f"\nuniform verdict: {verdict.verdict}  "
    f"(u max={verdict.u_max:.4f}, w max={verdict.w_max:.4f})"
)

# Mass does not leak out of a fixed interior cube either, uniformly in
# m; the floor is a fraction sigma_floor of the initial mass there.
mass = check_mass_lower_bound(result, Cube((0.0, 0.0), 0.5), 0.5)
print(
    f"mass lower bound on cube edge 0.5: min mass={mass.min_mass:.5f}  "
    f"passed={mass.passed}"
)
