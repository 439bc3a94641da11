"""
Pointwise lower bounds and interior analyticity
===============================================

Two local statements about positive solutions.  First, the value at a
point controls the infimum on a surrounding cube after an intrinsic
waiting time: the report boils this down to a factor f* in (0, 1].
Second, space derivatives at an interior point grow no faster than
factorially, which is the discrete footprint of analyticity.
"""

import numpy as np

from logdiff import (
    Grid,
    Lump2D,
    SolverConfig,
    check_pointwise_harnack,
    derivative_table,
    fit_derivative_growth,
    fit_pointwise_constants,
    intrinsic_rescale,
    normalized_spatial_roots,
    rescale_residual,
    rescaled_sup_bounds,
    solve_log_diffusion,
)

sol = Lump2D(c=1.0, T=1.0)
grid = Grid.regular(2, 1.0, 1.0 / 64)
config = SolverConfig(
    dt=16.0 * grid.spacing**2,
    boundary="dirichlet-from-oracle",
    boundary_values=sol,
)
slab = solve_log_diffusion(sol.sample(grid, 0.0), config, 0.5)

# Pointwise bound at a few interior anchors.  degenerate=True would
# flag a probe whose waiting time fell outside the slab; none should.
print("pointwise lower bound, rho = 1/16")
reports = []
for x_o, t_o in (((0.0, 0.0), 0.5), ((0.125, 0.0), 0.45), ((0.0, -0.125), 0.4)):
    rep = check_pointwise_harnack(slab, x_o, t_o, 1.0 / 16)
    reports.append(rep)
    print(
        f"  x_o={x_o}  t_o={t_o:.2f}  theta={rep.theta:.4f}  "
        f"eta={rep.eta:.4f}  f*={rep.f_star:.4f}  degenerate={rep.degenerate}"
    )

# One (c1, c2) pair should explain every probe at once; the fit scans a
# small grid and reports the worst violation of the implied bound.
fit = fit_pointwise_constants(reports)
print(
    f"joint fit: c1={fit.c1:.4f}  c2={fit.c2:.4f}  "
    f"violation={fit.violation:.2e}"
)

# Analyticity signature.  Sixth-order differences on a sampled slab,
# then the factorial-normalized root of each derivative.  Bounded roots
# and a stable fitted radius are the pass condition.
sampled = sol.sample_slab(grid, np.linspace(-0.1, 0.1, 5))
table = derivative_table(sampled, (0.0, 0.0), 0.0, a_max=6, k_max=3)
roots = normalized_spatial_roots(table, 1.0)
print("\nnormalized derivative roots at the origin")
for alpha in sorted(roots):
    print(f"  |alpha|={sum(alpha)}  alpha={alpha}  root={roots[alpha]:.4f}")
growth = fit_derivative_growth(table, 1.0)
print(f"fitted growth radius H = {growth.fitted_h:.4f}")

# Intrinsic rescaling: zoom the solved slab to a unit cylinder where
# the solution is normalized at the top vertex.  The residual measures
# how far the zoomed field is from solving the unit-scale equation.
v = intrinsic_rescale(slab, (0.0, 0.0), 0.5, 0.25)
print(
    f"\nrescaled slab: edge={v.grid.edge}  levels={len(v.times)}  "
    f"residual={rescale_residual(v):.4f}"
)
# On the half-size sub-cylinder the zoomed field and its derivatives stay
# bounded, and so does the equation's coefficient 1/v: the interior
# estimates the analyticity argument starts from.
sups = rescaled_sup_bounds(v, 0.5)
print(
    f"half cylinder: sup|Dv|={sups.sup_dv:.4f}  sup|v_t|={sups.sup_vt:.4f}  "
    f"1/v in [{sups.coef_low:.4f}, {sups.coef_high:.4f}]"
)
