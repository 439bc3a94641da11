"""Closed-form solutions used to certify the discrete machinery.

Every fixture knows how to evaluate itself and its exact time derivative,
so :func:`residual_check` can measure ``max |u_t - Lap_h(beta(u))|`` over
interior nodes with no discrete differentiation in time.  A fixture must not
be used to drive error measurements until that residual has been shown to
decay at the expected second order over two mesh halvings (the gate is
exercised by the test suite and by the ``oracle-check`` CLI subcommand).

Fixtures
--------
``lump2d(c, T)``
    ``u = 8c(T - t) / (c + |x|^2)^2`` in two space dimensions.  Satisfies
    ``u_t = Lap(ln u)`` identically for ``t < T`` (both sides equal
    ``-8c/(c+|x|^2)^2``, independent of ``t``).
``exp_steady(a, scale)``
    ``u = scale * exp(a . x)``.  ``ln u`` is affine, hence harmonic, and the
    solution is steady in any dimension.
``barenblatt_fd(m, T, C)``
    Source solution of fast diffusion ``u_t = Lap(u^m)`` with the time
    variable dilated by ``1/m``: since ``(u^m - 1)/m`` and ``u^m/m`` differ
    by a constant, ``u(x, t) = B(x, T + t/m)`` solves
    ``u_t = Lap((u^m - 1)/m)``.  Requires ``N(m-1) + 2 > 0``; positive
    everywhere (no compact support in the fast range).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .grid import Cube, Field, Grid, SpaceTimeSlab, interior_slices, laplacian
from .solvers import _beta


class ExactSolution:
    """Base class for closed-form space-time solutions."""

    #: exponent of beta(u) in residual checks: ln u at 0, (u^m - 1)/m otherwise
    m = 0.0
    name = "exact"

    def eval(self, x: np.ndarray, t: float) -> np.ndarray:
        """Values at points ``x`` of shape ``(..., dim)`` at time ``t``."""
        raise NotImplementedError

    def time_derivative(self, x: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def check_dim(self, dim: int) -> None:
        pass

    def sample(self, grid: Grid, t: float) -> Field:
        self.check_dim(grid.dim)
        return Field(grid, self.eval(grid.points(), t), time=t)

    def sample_slab(self, grid: Grid, times) -> SpaceTimeSlab:
        """The fixture at ``times``, evaluated level by level into the one
        array the slab then takes over."""
        self.check_dim(grid.dim)
        pts = grid.points()
        times = np.asarray(times, dtype=float)
        vals = np.empty(times.shape + grid.shape)
        for k, t in enumerate(times):
            vals[k] = self.eval(pts, float(t))
        vals.setflags(write=False)
        return SpaceTimeSlab(grid, times, vals, meta={"source": self.name})


@dataclass(frozen=True)
class Lump2D(ExactSolution):
    """Decaying lump solution of ``u_t = Lap(ln u)`` in the plane."""

    c: float = 1.0
    T: float = 1.0

    name = "lump2d"

    def __post_init__(self):
        if self.c <= 0 or self.T <= 0:
            raise ParameterError("lump2d needs c > 0 and T > 0")

    def check_dim(self, dim: int) -> None:
        if dim != 2:
            raise DomainError("lump2d is only defined for dim = 2")

    def _guard(self, t: float) -> None:
        if t >= self.T:
            raise DomainError(f"lump2d is defined for t < T = {self.T}, got t = {t}")

    def eval(self, x, t):
        self._guard(t)
        x = np.asarray(x, dtype=float)
        r2 = (x**2).sum(axis=-1)
        return 8 * self.c * (self.T - t) / (self.c + r2) ** 2

    def time_derivative(self, x, t):
        self._guard(t)
        x = np.asarray(x, dtype=float)
        r2 = (x**2).sum(axis=-1)
        return -8 * self.c / (self.c + r2) ** 2


@dataclass(frozen=True)
class ExpSteady(ExactSolution):
    """Steady exponential profile: ``ln u`` affine, so ``Lap(ln u) = 0``."""

    a: tuple[float, ...] = (1.0, 0.0)
    scale: float = 1.0

    name = "exp_steady"

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        if self.scale <= 0:
            raise ParameterError("exp_steady needs scale > 0")

    def check_dim(self, dim: int) -> None:
        if dim != len(self.a):
            raise DomainError(
                f"exp_steady direction has dim {len(self.a)}, grid has dim {dim}"
            )

    def eval(self, x, t):
        x = np.asarray(x, dtype=float)
        a = np.asarray(self.a)
        return self.scale * np.exp(np.tensordot(x, a, axes=([-1], [0])))

    def time_derivative(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])


@dataclass(frozen=True)
class BarenblattFD(ExactSolution):
    """Fast-diffusion source solution, time-dilated for the ``(u^m - 1)/m`` flux."""

    m: float = 0.5
    T: float = 1.0
    C: float = 1.0

    name = "barenblatt_fd"

    def __post_init__(self):
        if not 0.0 < self.m < 1.0:
            raise ParameterError("barenblatt_fd needs m in (0, 1)")
        if self.T <= 0 or self.C <= 0:
            raise ParameterError("barenblatt_fd needs T > 0 and C > 0")

    def check_dim(self, dim: int) -> None:
        lam = dim * (self.m - 1) + 2
        if lam <= 0:
            raise ParameterError(
                f"barenblatt_fd needs N(m-1)+2 > 0; got {lam} for N={dim}, m={self.m}"
            )

    def _profile(self, x, s):
        x = np.asarray(x, dtype=float)
        dim = x.shape[-1]
        self.check_dim(dim)
        lam = dim * (self.m - 1) + 2
        alpha = dim / lam
        beta = 1.0 / lam
        kappa = (1.0 - self.m) / (2 * self.m * lam)
        r2 = (x**2).sum(axis=-1)
        P = self.C + kappa * r2 * s ** (-2 * beta)
        return alpha, beta, kappa, r2, P

    def eval(self, x, t):
        s = self.T + t / self.m
        if s <= 0:
            raise DomainError(f"barenblatt_fd needs T + t/m > 0, got {s}")
        alpha, beta, kappa, r2, P = self._profile(x, s)
        return s ** (-alpha) * P ** (-1.0 / (1.0 - self.m))

    def time_derivative(self, x, t):
        s = self.T + t / self.m
        if s <= 0:
            raise DomainError(f"barenblatt_fd needs T + t/m > 0, got {s}")
        alpha, beta, kappa, r2, P = self._profile(x, s)
        e = -1.0 / (1.0 - self.m)
        dP_ds = kappa * r2 * (-2 * beta) * s ** (-2 * beta - 1)
        dB_ds = (-alpha) * s ** (-alpha - 1) * P**e + s ** (-alpha) * e * P ** (
            e - 1
        ) * dP_ds
        return dB_ds / self.m


FIXTURES = {
    "lump2d": Lump2D,
    "exp_steady": ExpSteady,
    "barenblatt_fd": BarenblattFD,
}


def build_fixture(name: str, **params) -> ExactSolution:
    if name not in FIXTURES:
        raise ParameterError(
            f"unknown fixture {name!r}; known: {sorted(FIXTURES)}"
        )
    try:
        return FIXTURES[name](**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for fixture {name!r}: {exc}")


def residual_check(sol: ExactSolution, grid: Grid, t: float) -> float:
    """Max interior defect of the sampled solution under the discrete operator.

    Computes ``max |u_t(x, t) - Lap_h(beta(u))(x)|`` over interior nodes with
    the analytic time derivative, so the result isolates the spatial stencil
    error: second order for smooth fixtures, roundoff for exp_steady.
    """
    ut = sol.time_derivative(grid.points()[interior_slices(grid)], t)
    lap = laplacian(_beta(sol.m)[0](sol.sample(grid, t).values), grid)
    return float(np.abs(ut - lap).max())


def fit_order(spacings, errors) -> float:
    """Least-squares slope of ``log(error)`` against ``log(h)``."""
    hs = np.asarray(spacings, dtype=float)
    es = np.asarray(errors, dtype=float)
    if np.unique(hs).size < 2:
        raise ParameterError("need >= 2 distinct mesh spacings to fit an order")
    for name, x in (("spacings", hs), ("errors", es)):
        if not (x.min() > 0 and x.max() < np.inf):
            raise ParameterError(f"{name} must be finite and positive to fit an order")
    return float(np.polyfit(np.log(hs), np.log(es), 1)[0])


@dataclass
class OrderReport:
    """Outcome of a convergence study: fitted order plus per-mesh errors."""

    order: float
    spacings: list[float]
    errors: list[float]
    reliable: bool
    note: str = ""


def convergence_order(slabs, sol: ExactSolution) -> OrderReport:
    """Fitted order of max relative error against the exact solution.

    ``slabs`` is a nested family (spacings halving, same final time).  The
    error for each run is the max relative difference on a fixed interior
    cube (half the domain edge) at the final time level.  Non-monotone or
    roundoff-floor errors flag the fit as unreliable instead of raising.
    """
    if len(slabs) < 2:
        raise ParameterError("convergence_order needs at least two runs")
    t_final = [float(s.times[-1]) for s in slabs]
    if max(t_final) - min(t_final) > 1e-9 * max(1.0, abs(t_final[0])):
        raise ParameterError("runs must share the final time")
    hs, errs = [], []
    for slab in slabs:
        grid = slab.grid
        # fixed comparison region: concentric cube of half the edge; its distance
        # to the boundary (edge/4) exceeds the 4h collar on all meshes used here
        sl = grid.cube_slices(Cube(grid.center, grid.edge / 2))
        exact = sol.sample(grid, t_final[0]).values[sl]
        got = slab.values[-1][sl]
        errs.append(float(np.abs(got - exact).max() / np.abs(exact).max()))
        hs.append(grid.spacing)
    pairs = sorted(zip(hs, errs), reverse=True)
    hs = [p[0] for p in pairs]
    errs = [p[1] for p in pairs]
    note = ""
    reliable = True
    if any(e < 1e-12 for e in errs):
        reliable = False
        note = "errors at roundoff floor; order degenerate"
    elif any(errs[i + 1] >= errs[i] for i in range(len(errs) - 1)):
        reliable = False
        note = "errors not monotone under refinement"
    order = fit_order(hs, errs) if all(0 < e < np.inf for e in errs) else float("nan")
    return OrderReport(order, hs, errs, reliable, note)
