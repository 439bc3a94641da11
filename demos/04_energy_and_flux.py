"""
Gradient energy lemma and the flux corollary
============================================

Two space-time estimates on the same cylinders: the weighted energy of
grad(ln u) is bounded by a mass term plus a time term, and the total
flux through the cutoff region obeys the matching L1 bound.  Both are
exercised on a solved slab and on an exactly known steady state.
"""

import numpy as np

from logdiff import (
    Cutoff,
    ExpSteady,
    Grid,
    Lump2D,
    QuasilinearFlux,
    SolverConfig,
    check_energy_lemma,
    check_flux_corollary,
    gradient_energy,
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

# Energy lemma on the solved lump.  The ratio lhs / rhs is the quality
# number: finite and positive is a pass, and it barely moves when the
# cylinder stays fixed and the mesh is refined (see the test suite).
rep = check_energy_lemma(slab, (0.0, 0.0), 0.25, 0.5, (0.25, 0.5))
print("energy lemma on the lump slab")
print(f"  lhs (weighted energy)   = {rep.lhs:.6f}")
print(f"  rhs mass term           = {rep.rhs_mass_term:.6f}")
print(f"  rhs time term           = {rep.rhs_time_term:.6f}")
print(f"  ratio                   = {rep.ratio:.6f}")

# Calibration on the exponential steady state: with a sharp indicator
# cutoff (sigma = 0) the energy over a unit window is exactly
# |a|^2 * volume * T, here 1.0.
exp_sol = ExpSteady(a=(1.0, 0.0), scale=1.0)
exp_slab = exp_sol.sample_slab(grid, np.linspace(0.0, 1.0, 9))
lhs = gradient_energy(exp_slab, Cutoff((0.0, 0.0), 1.0, 0.0), (0.0, 1.0))
print(f"\nexp_steady energy over unit window = {lhs:.6f}  (exact value 1)")

# Flux corollary.  The logarithmic flux is grad(u)/u; its space-time L1
# norm over the cutoff support is controlled by the same two terms.
flux = QuasilinearFlux("log-diffusion")
frep = check_flux_corollary(slab, flux, 0.25, 0.5, (0.25, 0.5))
print("\nflux corollary on the lump slab")
print(f"  kind={frep.kind}  lhs={frep.lhs:.6f}  rhs={frep.rhs:.6f}")
print(f"  time_ratio={frep.time_ratio:.6f}")

# A diagonal perturbation with coefficients pinched in [c_o, c_1] keeps
# the same report shape; the constants enter the bound, not the code.
pert = QuasilinearFlux("diagonal-perturbed", a=(1.0, 1.2), c_o=1.0, c_1=1.2)
prep = check_flux_corollary(slab, pert, 0.25, 0.5, (0.25, 0.5))
print(f"  perturbed: kind={prep.kind}  lhs={prep.lhs:.6f}  rhs={prep.rhs:.6f}")
