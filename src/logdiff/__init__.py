"""Numerical laboratory for the logarithmic diffusion equation.

The package solves ``u_t = Lap(ln u)`` and its power-law regularizations
``u_t = Lap((u^m - 1)/m)`` on regular grids, and measures the quantities
that control local behavior of positive solutions: integral Harnack
constants, cutoff gradient energies, flux integrals, intrinsic pointwise
positivity factors, derivative growth at interior points, and the stability
of all of these as the power exponent tends to zero.
"""

from .errors import DomainError, GeometryError, ParameterError, SolverError
from .grid import (
    Cube,
    Cutoff,
    Field,
    Grid,
    SpaceTimeSlab,
    integrate,
    interior_slices,
    laplacian,
    read_slab,
    write_slab,
)
from .oracles import (
    FIXTURES,
    BarenblattFD,
    ExactSolution,
    ExpSteady,
    Lump2D,
    OrderReport,
    build_fixture,
    convergence_order,
    fit_order,
    residual_check,
)
from .solvers import (
    QuasilinearFlux,
    SolverConfig,
    residual_norm,
    solve_log_diffusion,
    solve_porous_medium,
    solve_quasilinear,
)
from .functionals import (
    FunctionalSet,
    ess_sup,
    functional_set,
    gradient_energy,
    moment_scaling_exponent,
    oscillation,
    time_scaling_exponent,
)
from .harnack import (
    DistributionalCheck,
    EnergyReport,
    FluxReport,
    HarnackReport,
    JensenCheck,
    PointwiseFit,
    PointwiseHarnackReport,
    check_energy_lemma,
    check_energy_lemma_pme,
    check_flux_corollary,
    check_l1_harnack,
    check_l1_harnack_pme,
    check_pointwise_harnack,
    distributional_identity_check,
    fit_pointwise_constants,
    jensen_check,
    sample_cylinders,
)
from .analyticity import (
    AnalyticityReport,
    DerivativeTable,
    GrowthFit,
    SupBoundsReport,
    analyticity_report,
    derivative_table,
    fit_derivative_growth,
    intrinsic_rescale,
    normalized_spatial_roots,
    rescale_residual,
    rescaled_sup_bounds,
)
from .limit_m import (
    MassBoundVerdict,
    MSweepEntry,
    MSweepResult,
    UniformVerdict,
    check_mass_lower_bound,
    check_uniform_conditions,
    run_m_sweep,
)

__version__ = "0.1.0"
