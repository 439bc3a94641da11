"""Implicit solvers for singular diffusion equations.

All solvers march BDF2 (Gear 1971), with backward Euler for the first step:
the step to level k + 1 solves the nonlinear system

    x - gamma * Op(x) = rhs

for ``x = u_(k+1)``, with ``(gamma, rhs) = (dt, u_0)`` on the first step and
``(2 dt / 3, (4 u_k - u_(k-1))/3)`` on every later one.  ``rhs`` is read off
the backward differences the Newton start keeps (below): ``u_k + ∇u_k / 3``.
``_SCHEMES`` holds each scheme's ``theta = dt / gamma`` and ``rhs``
coefficients per order, ``_step_coefficients`` reads them for ``_march`` and
``residual_norm``, and a slab names its scheme in ``meta["scheme"]``.  Each
step runs a damped Newton iteration (step halving up to ``max_damping``
times) on the residual ``r = x - gamma Op(x) - rhs`` until ``max|r| <=
newton_tol``, written once, inline in ``_march``, the module's one step loop.
BDF2 is second order and A-stable but not positivity preserving: ``rhs <= 0``
where ``u_(k-1) > 4 u_k``.  The Newton step in ``beta`` below keeps every
iterate positive all the same.

Every ``Op`` is ``div_h(a grad_h beta(u))``, with ``beta(u) = ln u`` at ``m = 0``
and ``(u^m - 1)/m`` for ``0 < m < 1``.  ``solve_log_diffusion`` (``m = 0``) and
``solve_porous_medium`` take ``a = 1``.  ``solve_quasilinear`` with a
``diagonal-perturbed`` flux takes ``a = a_d(x, t)`` at the midpoint of each face
of axis ``d``: as ``a_d`` does not depend on u, ``a_d u^(m-1) du/dx_d = a_d d
beta(u)/dx_d``, and at ``a = 1`` its results are the model solvers' bit for bit.

The divergence lives on the faces of the grid, one per pair of neighbouring
nodes: ``div(phi) = -(D^T (w * phi)) / (W h^2)`` with ``(D u)_f = u[right] -
u[left]``, and ``Op(u) = div(a * D beta(u))``.  This is the vertex-centred
finite-volume zero-flux scheme: ``W`` are the trapezoid weights (dual cell
volumes over ``h^dim``) and ``w`` the dual face areas over ``h^(dim-1)``,
halved once for each other axis on whose boundary the face lies.  Interior
rows are the standard ``2*dim + 1`` point stencil, and ``sum_i W_i div_i = 0``.

``D`` is notation only: ``L = div(a D)`` and the PCG matrix below are built
straight in CSR form, from a stencil table laid out once per operator that
lists each node's faces (below and above it on each axis) and the node
across each, in column order.  An assembly gathers the face values ``c_f =
w_f a_f / h^2`` into the table: row ``v`` of ``L`` holds ``c_f / W_v`` at the
node across each face ``f`` of ``v`` and minus their sum at ``v``, and ``D^T
diag(w a) D / h^2`` holds ``-c_f`` off the diagonal and ``sum_f c_f`` on it.
Each off-diagonal entry is one product, so that matrix is exactly symmetric;
a diagonal entry sums the node's faces in face order (below, then above,
axis by axis).  Under a callable ``a`` each time level redoes only the
gather.  ``scipy.sparse`` is imported in ``_csr_layout`` alone, so the
checkers, which import this module for ``QuasilinearFlux`` and ``_beta``, run
without scipy.

Boundary conditions: ``dirichlet-from-oracle`` fixes boundary nodes to values
supplied by an exact solution (or any callable ``(points, t) -> values``) and
solves for the interior nodes; ``neumann-zero-flux`` solves for every node and
conserves the trapezoid mass per step to roundoff.

Newton corrections solve ``J delta = -r`` (``J = I - gamma dOp/du``) by PCG
from zero, in ``_BetaOperator.solve``.  Multiplied by ``theta = dt / gamma``
(1, then 3/2), ``theta W J = (diag(theta W/b') + C) diag(b')`` for ``b' =
beta'(u)`` and ``C = dt D^T diag(w a) D / h^2``, which is exactly symmetric
and the same on every step: one operator, built at dt, serves both kinds of
step, and each correction rewrites only the diagonal.  PCG solves for ``y =
b' delta``, the linearised change of ``beta(u)``, with right-hand side
``-theta W r``.  It stops once ``max|theta W (J delta + r)| <= theta 0.1
newton_tol min W``, or after ``n`` iterations for ``n`` unknowns (a cap hit);
the damped line search guards the result.  That stop sits 10x below the
Newton test, so a tighter one would cost PCG iterations and save no Newton
iteration (inexact Newton, Dembo, Eisenstat & Steihaug 1982).  The stop test
reads only the residual and comes before the preconditioner, so each
iteration applies ``P^-1`` (below) once, none is applied to the residual that
ends the loop, and ``linear_iters`` counts iterations: one product with the
PCG matrix and one ``P^-1`` each.

PCG is preconditioned by ``P^-1`` for ``P = s W + sum_a c_a C_a``, with ``C_a``
the axis-``a`` part of ``C`` at ``a = 1``, ``c_a`` the mean of ``a`` over the
faces of axis ``a`` and ``s = sqrt(min d max d)`` for ``d = theta/b'``.  One
orthonormal DST-I (Dirichlet) or DCT-I (Neumann, after scaling by ``W^(1/2)``)
matrix per axis diagonalises ``W`` and every ``C_a`` together (fast
diagonalisation, Lynch, Rice & Thomas 1964), so applying ``P^-1`` is a
transform along each axis, a division by ``s + sum_a c_a lam_a`` and the
transform back; the matrix depends only on the grid and dt and is built once
per solve, and ``sum_a c_a lam_a`` is formed again only when ``c`` changes:
once per solve at a constant ``a``, at most once per time level under a
callable one.  At ``a = 1`` the condition number is at most ``(max d +
lam_min)/(min d + lam_min)`` for the least eigenvalue ``lam_min`` of ``C``
against ``W``, whatever dt/h^2 is.

Newton steps in ``beta``, in which ``Op`` is linear: the trial at damping
``s`` is ``beta^-1(beta(u) + s y)``, i.e. ``u exp(s y)`` at ``m = 0`` and
otherwise ``(u^m + m s y)^(1/m)``, NaN where ``u^m + m s y <= 0``.  A NaN
residual is never smaller than the last, so ``s`` halves until the trial is
positive: every iterate is positive by construction and nothing is clipped.
Under Neumann ``W^T r = W^T (u - rhs)``, as ``W^T Op = 0``, and ``rhs`` has
the mass ``W^T u_k``, as every ``∇u_k`` has none; each trial is multiplied
by ``W^T u_k / W^T u``, which zeroes that sum and keeps u > 0.

Newton for step k starts on the unknowns from the backward differences ``u_k,
∇u_k, ..., ∇^q u_k``, ``q = min(k, 4)``, ``∇^(j+1) u_k = ∇^j u_k - ∇^j
u_(k-1)``.  The polynomial through the last p levels is ``sum_(j<p) ∇^j u_k``
at the new time and misses by exactly ``∇^p u_(k+1)``, so the start takes the
p in ``1..q`` that minimises ``max|∇^p u_k|``, the error that order made on the
newest level (variable-order multistep codes: Gear 1971, Shampine & Gordon
1975); step 0 starts from ``u_0`` and step 1, with no ``∇^2`` to judge by, from
``2 u_1 - u_0``.  Every ``∇^j``, ``j >= 1``, has zero Neumann trapezoid mass,
and the order choice is invariant under ``u -> lam u`` and ``x -> x/r``, so
the guess keeps the mass and the scaling symmetries hold step by step.  Every
step still solves to ``newton_tol``.  Where the guess is not positive, that
node starts from ``u_k`` (not from ``rhs``, which can be <= 0), counted in
``predictor_fallbacks``;
``start_levels`` counts the steps started from 1, 2, 3 and 4 levels.
Initial data and Dirichlet boundary values must be finite and positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

from .errors import ParameterError, SolverError
from .grid import Field, Grid, SpaceTimeSlab, _trapezoid_weights, interior_slices

_BOUNDARY_KINDS = ("dirichlet-from-oracle", "neumann-zero-flux")


@dataclass(frozen=True)
class SolverConfig:
    """Time step and Newton controls shared by all solvers: ``dt`` and
    ``newton_tol`` finite and positive, ``newton_max_iter >= 1`` and
    ``max_damping >= 0``, or ParameterError."""

    dt: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    max_damping: int = 30
    boundary: str = "dirichlet-from-oracle"
    boundary_values: object = None  # ExactSolution or callable (points, t) -> values

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ParameterError(f"dt must be finite and positive, got {self.dt}")
        if not 0.0 < self.newton_tol < np.inf:
            raise ParameterError(f"newton_tol must be finite and positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ParameterError(f"newton_max_iter must be at least 1, got {self.newton_max_iter}")
        if self.max_damping < 0:
            raise ParameterError(f"max_damping must be at least 0, got {self.max_damping}")
        if self.boundary not in _BOUNDARY_KINDS:
            raise ParameterError(
                f"boundary must be one of {_BOUNDARY_KINDS}, got {self.boundary!r}"
            )
        if self.boundary == "dirichlet-from-oracle" and self.boundary_values is None:
            raise ParameterError("dirichlet-from-oracle requires boundary_values")


@dataclass(frozen=True)
class QuasilinearFlux:
    """Flux description ``A`` for quasilinear runs and residual checks.

    ``diagonal-perturbed`` means ``A_d = a_d(x, t) * u^(m-1) * du/dx_d`` with
    ``c_o <= a_d <= c_1``; ``a`` holds one constant or callable per axis and
    ``m = 0`` selects the logarithmic coefficient ``1/u``, i.e. ``beta = ln u``.
    The model kinds carry their effective values: ``a = ()`` (that is, ``a =
    1``), and ``m = 0`` for ``log-diffusion``.
    """

    kind: str
    m: float = 0.0
    a: tuple = ()
    c_o: float = 1.0
    c_1: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"flux kind must be one of {tuple(_KINDS)}")
        if self.kind != "diagonal-perturbed":
            object.__setattr__(self, "a", ())
        if self.kind == "log-diffusion":
            object.__setattr__(self, "m", 0.0)
        if self.kind == "pme" and not 0.0 < self.m < 1.0:
            raise ParameterError(f"pme flux needs m in (0, 1), got {self.m}")
        if self.kind == "diagonal-perturbed":
            if not 0.0 <= self.m < 1.0:
                raise ParameterError("diagonal-perturbed flux needs m in [0, 1)")
            if not self.a:
                raise ParameterError("diagonal-perturbed flux needs per-axis a")
            if not 0 < self.c_o <= self.c_1:
                raise ParameterError("structure bounds need 0 < c_o <= c_1")

    def beta(self):
        """:func:`_beta` of this flux's ``m``."""
        return _beta(self.m)

    def coefficients(self, dim: int) -> tuple:
        """``a`` on a ``dim``-dimensional grid, one constant or callable per
        axis (ones for the model kinds); ParameterError for any other count."""
        a = self.a or (1.0,) * dim
        if len(a) != dim:
            raise ParameterError(
                f"flux needs one coefficient per axis: got {len(a)} for {dim} axes"
            )
        return a

    def checked(self, axis: int, vals, t=None) -> np.ndarray:
        """Values ``vals`` of ``a_axis`` (at ``t``) as floats; ParameterError
        unless each is finite and within the structure interval ``[c_o, c_1]``.
        The one check of ``a`` for the solvers and the flux functionals."""
        vals = np.asarray(vals, dtype=float)
        if not np.isfinite(vals).all():
            raise ParameterError(f"a_{axis} is not finite at t={t}")
        tol = 1e-9 * max(1.0, self.c_1)
        if vals.min() < self.c_o - tol or vals.max() > self.c_1 + tol:
            raise ParameterError(
                f"a_{axis} leaves the structure interval [{self.c_o}, {self.c_1}]"
            )
        return vals


def _check_horizon(horizon: float, dt: float) -> int:
    if not np.isfinite(horizon):
        raise ParameterError(f"horizon must be finite, got {horizon}")
    nsteps = horizon / dt
    n = int(round(nsteps))
    if n < 1 or abs(nsteps - n) > 1e-8 * max(1.0, nsteps):
        raise ParameterError(f"horizon {horizon} is not an integer multiple of dt {dt}")
    return n


# most levels the Newton start extrapolates through
_START_LEVELS = 4

# PCG stop over newton_tol min W: 10x below the Newton test, so it costs no Newton iteration
_PCG_FRACTION = 0.1


def _newton_start(table):
    """``(guess, p)`` from the backward differences ``[u_k, ∇u_k, ..., ∇^q u_k]``:
    ``sum_(j<p) ∇^j u_k``, the polynomial through the last ``p`` levels at the
    next time, for the ``p`` in ``1..q`` that minimises ``max|∇^p u_k|``; ``p =
    q + 1`` while no ``∇^2`` exists to judge it (``u_0``, then ``2 u_1 - u_0``)."""
    q = len(table) - 1
    p = min(range(1, q + 1), key=lambda j: _max_abs(table[j])) if q >= 2 else q + 1
    guess = table[0].copy()
    for diff in table[1:p]:
        guess += diff
    return guess, p


def _max_abs(x: np.ndarray) -> float:
    """``max|x|`` without the ``|x|`` temporary; NaN if ``x`` holds one."""
    return float(max(x.max(), -x.min()))


def _push_level(table, level):
    """The table one level on: ``∇^(j+1) u_(k+1) = ∇^j u_(k+1) - ∇^j u_k``."""
    return list(accumulate(table[:_START_LEVELS], np.subtract, initial=level))


# time scheme -> (theta, c) by order: from the backward differences [u_k, ∇u_k,
# ...], a step solves x - (dt/theta) Op(x) = u_k + sum_j c_j ∇^j u_k (j >= 1)
# at the highest order the table holds; BDF2 is (3/2, u_k + ∇u_k/3), that is
# (3/2, (4 u_k - u_(k-1))/3)
_SCHEMES = {
    "backward-euler": ((1.0, ()),),
    "bdf2": ((1.0, ()), (1.5, (1.0 / 3.0,))),
}
# the scheme every solver marches
_SCHEME = "bdf2"


def _step_coefficients(scheme: str, table):
    """``(theta, rhs)`` of the next step of ``scheme`` from the backward
    differences ``table = [u_k, ∇u_k, ...]``; ParameterError for a scheme
    not in ``_SCHEMES``."""
    if scheme not in _SCHEMES:
        raise ParameterError(f"unknown time scheme {scheme!r}: one of {tuple(_SCHEMES)}")
    orders = _SCHEMES[scheme]
    theta, c = orders[min(len(table), len(orders)) - 1]
    return theta, sum((c_j * diff for c_j, diff in zip(c, table[1:])), table[0])


def _pcg(A, b, precond, atol, cap):
    """Preconditioned CG for SPD ``A y = b`` from zero, until
    ``max|b - A y| <= atol`` or ``cap`` iterations: ``(y, iterations, converged)``.

    The stop test reads only the residual, so it runs before the
    preconditioner: ``precond`` is applied once per iteration (none when ``b``
    already meets ``atol``), never to a residual that ends the loop."""
    y, res = np.zeros_like(b), b.copy()
    if (converged := _max_abs(res) <= atol) or cap == 0:
        return y, 0, converged
    p = precond(res)
    rz = res @ p
    for it in range(1, cap + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        y += alpha * p
        Ap *= alpha
        res -= Ap
        if (converged := _max_abs(res) <= atol) or it == cap:
            return y, it, converged
        z = precond(res)
        rz, rz_old = res @ z, rz
        p *= rz / rz_old
        p += z


def _geometric_mid(d: np.ndarray) -> float:
    """``sqrt(min d * max d)``: the mass shift ``s`` of the preconditioner, which
    bounds ``d/s`` within ``[sqrt(min d/max d), sqrt(max d/min d)]``."""
    return float(np.sqrt(d.min() * d.max()))


def _tensor(factors) -> np.ndarray:
    """Flat outer product of per-axis factors, in the grid's node order."""
    return reduce(np.multiply.outer, factors).ravel()


class _Faces:
    """Faces of a grid and its stencil table (module docstring).

    ``left``/``right`` are the flat node indices of every face, axis by axis,
    ``per_axis`` faces to an axis; ``W`` are the node and ``w`` the face
    weights.  Row ``v`` of the table lists node ``v``'s stencil in column
    order, ``2 dim + 1`` slots: the faces below ``v`` on axes ``0, ..., dim -
    1``, ``v`` itself, then the faces above it on axes ``dim - 1, ..., 0``.
    ``across`` holds the node across each slot's face and ``at`` the face,
    both -1 where ``v`` lies on the boundary; the middle slot is ``v`` in
    ``across`` and -1 in ``at``.  ``face_order`` lists the slots below and
    above ``v`` axis by axis, the order of the faces themselves.
    """

    def __init__(self, grid: Grid):
        n, dim = grid.npts, grid.dim
        idx = np.arange(n**dim).reshape(grid.shape)
        tw = _trapezoid_weights(n)
        self.per_axis = (n - 1) * n ** (dim - 1)
        self.face_order = [slot for axis in range(dim) for slot in (axis, 2 * dim - axis)]
        self.at = np.full((idx.size, 2 * dim + 1), -1)
        self.across = np.full((idx.size, 2 * dim + 1), -1)
        self.across[:, dim] = idx.ravel()
        left, right, w = [], [], []
        for axis in range(dim):
            lo = tuple(slice(0, -1) if k == axis else slice(None) for k in range(dim))
            hi = tuple(slice(1, None) if k == axis else slice(None) for k in range(dim))
            lft, rgt = idx[lo].ravel(), idx[hi].ravel()
            faces = np.arange(axis * self.per_axis, (axis + 1) * self.per_axis)
            self.at[rgt, axis], self.across[rgt, axis] = faces, lft
            self.at[lft, 2 * dim - axis], self.across[lft, 2 * dim - axis] = faces, rgt
            left.append(lft)
            right.append(rgt)
            w.append(_tensor([np.ones(n - 1) if k == axis else tw for k in range(dim)]))
        self.grid = grid
        self.left = np.concatenate(left)
        self.right = np.concatenate(right)
        self.w = np.concatenate(w)
        self.W = _tensor([tw] * dim)


def _csr_layout(cols: np.ndarray, ncols: int):
    """An all-zero CSR matrix with one row per row of the table ``cols``, whose
    entries sit at its columns (increasing along a row; -1: no entry), and
    ``src``, the flat table position of each stored entry."""
    # the checkers import QuasilinearFlux and _beta: scipy loads only to build an operator
    import scipy.sparse as sp

    kept = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(kept.sum(axis=1))])
    M = sp.csr_matrix((np.zeros(indptr[-1]), cols[kept], indptr), shape=(len(cols), ncols))
    return M, np.flatnonzero(kept)


def _row_sum(table: np.ndarray, order) -> np.ndarray:
    """Per row, the sum of a stencil table over the slots ``order`` in turn."""
    return reduce(np.add, (table[:, slot] for slot in order))


class _Spectral:
    """``P^-1`` for ``P = s W + sum_a c_a C_a`` on the unknowns of ``_march``
    (module docstring).  ``Q`` is the orthonormal DST-I on the interior nodes
    (Dirichlet) or DCT-I on every node (Neumann), symmetric and its own
    inverse; ``lam_j = (dt/h^2)(2 - 2 cos(pi j / N))`` for ``N`` cells."""

    def __init__(self, faces: _Faces, rows: np.ndarray, dt: float):
        grid = faces.grid
        cells, neumann = grid.npts - 1, rows.size == faces.W.size
        j = np.arange(cells + 1) if neumann else np.arange(1, cells)
        angle = np.pi * np.outer(j, j) / cells
        if neumann:
            ends = np.where((j == 0) | (j == cells), np.sqrt(0.5), 1.0)
            self.Q = np.sqrt(2.0 / cells) * ends[:, None] * np.cos(angle) * ends
        else:
            self.Q = np.sqrt(2.0 / cells) * np.sin(angle)
        self.lam = dt / grid.spacing**2 * (2.0 - 2.0 * np.cos(np.pi * j / cells))
        inv_root_w = 1.0 / np.sqrt(faces.W[rows])
        self.inv_root_w = None if (inv_root_w == 1.0).all() else inv_root_w
        self.dim = grid.dim
        self.c, self.lam_c = None, None

    def _transform(self, x: np.ndarray) -> np.ndarray:
        """``Q`` applied along every axis of the flat node array ``x``: the last
        axis by one matmul, each earlier one as a stack of ``Q @`` blocks."""
        Q, m = self.Q, self.Q.shape[0]
        x = x.reshape(-1, m) @ Q
        for later in range(1, self.dim):
            x = Q @ x.reshape(-1, m, m**later)
        return x.ravel()

    def inverse(self, s: float, c):
        """``x -> P^-1 x`` for ``s > 0`` and one ``c_a > 0`` per axis; the
        scaling by ``W^(-1/2)`` is left out where it is one (Dirichlet).  The
        table ``sum_a c_a lam_a`` is formed again only when ``c`` changes."""
        if self.c != c:
            self.c = c
            self.lam_c = reduce(np.add.outer, [c_a * self.lam for c_a in c]).ravel()
        denom = s + self.lam_c
        scale = self.inv_root_w

        def apply(x):
            z = self._transform(x if scale is None else scale * x)
            z /= denom
            z = self._transform(z)
            return z if scale is None else np.multiply(z, scale, out=z)

        return apply


def _beta(m: float):
    """``(beta, beta', step)`` for ``beta = ln u`` at ``m = 0`` and ``(u^m - 1)/m``
    for ``0 < m < 1``; ``step(u, y) = beta^-1(beta(u) + y)``, NaN where
    ``beta(u) + y`` is not a value of beta (``u^m + m y <= 0``)."""
    if m == 0.0:
        return np.log, np.reciprocal, lambda u, y: u * np.exp(y)

    def step(u, y):
        base = u**m + m * y
        return np.power(base, 1.0 / m, out=np.full_like(base, np.nan), where=base > 0.0)

    return (lambda u: (u**m - 1.0) / m), (lambda u: u ** (m - 1.0)), step


class _BetaOperator:
    """``div_h(a grad_h beta(u))`` on ``rows`` (module docstring): ``step(t)``
    once per level, then ``apply(u)`` (Op on ``rows``, u on every node) and,
    given a time step ``dt``, ``solve(u, r, atol, theta) -> (y, iters,
    converged)``, the PCG Newton correction of a step ``x - (dt/theta) Op(x)
    = rhs``; without ``dt`` only ``L`` is built.

    ``L = div(a D)`` and, with ``dt``, the PCG matrix ``A = diag(theta W/b') +
    dt K``, ``K = D^T diag(w a) D / h^2``, are laid out once from the stencil
    table and gathered once, or by each ``step`` when some ``a_d`` is callable;
    ``solve`` rewrites only the diagonal of ``A``.
    """

    def __init__(self, faces: _Faces, rows: np.ndarray, flux: QuasilinearFlux, dt=None):
        grid = faces.grid
        self.faces, self.rows, self.flux, self.dt = faces, rows, flux, dt
        self.W = faces.W[rows]
        self.unit_weights = bool((self.W == 1.0).all())  # the Dirichlet unknowns
        self.beta, self.beta_prime, self.beta_step = flux.beta()
        self.a = flux.coefficients(grid.dim)
        self.varying = any(map(callable, self.a))
        if self.varying:
            pts = grid.points().reshape(-1, grid.dim)
            mid = 0.5 * (pts[faces.left] + pts[faces.right])
            self.mid = mid.reshape(grid.dim, -1, grid.dim)
        # the stencil table of the rows; A's columns are the unknowns' positions
        self.at, across = faces.at[rows], faces.across[rows]
        self.L, self.L_src = _csr_layout(across, faces.W.size)
        if dt is not None:
            unknown = np.full(faces.W.size + 1, -1)  # across = -1 stays -1
            unknown[rows] = np.arange(rows.size)
            self.A, self.A_src = _csr_layout(unknown[across], rows.size)
            self.diag_at = np.flatnonzero(self.A_src % across.shape[1] == grid.dim)
            self.spectral = _Spectral(faces, rows, dt)
        if not self.varying:
            self._assemble(None)

    def _assemble(self, t) -> None:
        """Gather ``L`` and ``A`` and set the preconditioner's per-axis means
        ``c`` of ``a`` at ``t``, each ``a_d`` checked by
        :meth:`QuasilinearFlux.checked`."""
        per_axis = []
        for axis, a_d in enumerate(self.a):
            vals = a_d(self.mid[axis], t) if callable(a_d) else a_d
            vals = self.flux.checked(axis, vals, t)
            per_axis.append(np.broadcast_to(vals, self.faces.per_axis))
        self.c = [vals.mean() for vals in per_axis]
        # w a per slot: 0 in the node's own slot and where no face is
        wa = np.append(self.faces.w * np.concatenate(per_axis), 0.0)[self.at]
        h2, own, order = self.faces.grid.spacing**2, self.faces.grid.dim, self.faces.face_order
        table = (1.0 / (self.W * h2))[:, None] * wa
        table[:, own] = -_row_sum(table, order)
        np.take(table, self.L_src, out=self.L.data)
        if self.dt is not None:
            c = wa / h2
            self.c_diag = self.dt * _row_sum(c, order)
            table = -self.dt * c
            table[:, own] = self.c_diag
            np.take(table, self.A_src, out=self.A.data)

    def step(self, t: float) -> None:
        if self.varying:
            self._assemble(t)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.L @ self.beta(u)

    def solve(self, u: np.ndarray, r: np.ndarray, atol: float, theta: float):
        """PCG on ``(diag(theta W/b') + dt K) y = -theta W r`` for ``b' =
        beta'(u)``, to ``theta atol``: the Newton step of ``x - (dt/theta)
        Op(x) = rhs`` with residual ``r``, multiplied by ``theta W``."""
        d = theta / self.beta_prime(u[self.rows])
        Wd, b = (d, -theta * r) if self.unit_weights else (self.W * d, -theta * self.W * r)
        self.A.data[self.diag_at] = self.c_diag + Wd
        precond = self.spectral.inverse(_geometric_mid(d), self.c)
        return _pcg(self.A, b, precond, theta * atol, self.rows.size)


# flux kind -> slab meta "equation"; every kind runs ``_BetaOperator``
_KINDS = {
    "log-diffusion": "log-diffusion",
    "pme": "pme",
    "diagonal-perturbed": "quasilinear:diagonal-perturbed",
}


def _march(
    initial: Field, config: SolverConfig, horizon: float, flux: QuasilinearFlux
) -> SpaceTimeSlab:
    """BDF2 after one backward-Euler step (module docstring) for the operator of
    ``flux.kind``; the module's one step loop."""
    grid = initial.grid
    if not ((initial.values > 0.0) & (initial.values < np.inf)).all():
        raise ParameterError("initial data must be finite and strictly positive")
    nsteps = _check_horizon(horizon, config.dt)

    # unknowns: every node under Neumann, the interior nodes (trapezoid weight
    # one) under Dirichlet
    faces = _Faces(grid)
    neumann = config.boundary == "neumann-zero-flux"
    on_boundary = np.zeros(faces.W.size, dtype=bool) if neumann else faces.W < 1.0
    known, rows = np.flatnonzero(on_boundary), np.flatnonzero(~on_boundary)
    pts_known = grid.points().reshape(-1, grid.dim)[known]
    boundary = getattr(config.boundary_values, "eval", config.boundary_values)
    op = _BetaOperator(faces, rows, flux, config.dt)
    W, atol = op.W, _PCG_FRACTION * config.newton_tol * op.W.min()

    times = np.linspace(initial.time, initial.time + horizon, nsteps + 1)
    levels = np.empty((nsteps + 1,) + grid.shape)
    levels[0] = initial.values
    stats = {"newton_iters": 0, "linear_iters": 0, "linear_cap_hits": 0,
             "predictor_fallbacks": 0, "start_levels": [0] * _START_LEVELS}

    def residual(x):
        """``(r, max|r|)`` at unknowns ``x``, which it writes into ``u``."""
        u[rows] = x
        r = op.apply(u)
        r *= -gamma
        r += x
        r -= rhs
        return r, _max_abs(r)

    u = initial.values.ravel().copy()
    table = [u[rows]]
    for k in range(nsteps):
        t = float(times[k + 1])
        op.step(t)
        if not neumann:
            values = np.asarray(boundary(pts_known, t), dtype=float)
            if not ((values > 0.0) & (values < np.inf)).all():
                raise ParameterError(f"boundary values must be finite and positive at t={t}")
            u[known] = values
        theta, rhs = _step_coefficients(_SCHEME, table)
        gamma = config.dt / theta
        x, p = _newton_start(table)
        stats["start_levels"][p - 1] += 1
        if x.min() <= 0.0:
            low = x <= 0.0
            stats["predictor_fallbacks"] += int(low.sum())
            x[low] = table[0][low]  # u_k, as rhs can be <= 0 where u_(k-1) > 4 u_k
        if neumann:  # rows are every node; each trial keeps W^T r = W^T (x - rhs) zero
            mass = W @ table[0]

        # damped Newton: each iteration takes the first trial x_s = beta^-1(beta(x)
        # + s y), s = 1, 1/2, ..., whose residual is smaller (a NaN one never is);
        # u holds x after every accepted trial
        r, rnorm = residual(x)
        history = [rnorm]  # max|r| before each Newton iteration and after the last
        for _ in range(config.newton_max_iter):
            if rnorm <= config.newton_tol:
                break
            y, iters, converged = op.solve(u, r, atol, theta)
            stats["newton_iters"] += 1
            stats["linear_iters"] += iters
            stats["linear_cap_hits"] += not converged
            for halvings in range(config.max_damping + 1):
                x_try = op.beta_step(x, 0.5**halvings * y if halvings else y)
                if neumann:
                    x_try *= mass / (W @ x_try)
                r_try, rn_try = residual(x_try)
                if rn_try < rnorm:
                    x, r, rnorm = x_try, r_try, rn_try
                    break
            else:
                raise SolverError(
                    f"Newton stalled at t={t}: residual {rnorm:.3e}",
                    residual=rnorm, time=t, step=k, history=history,
                )
            history.append(rnorm)
        if rnorm > config.newton_tol:
            raise SolverError(
                f"Newton did not reach tol at t={t}: residual {rnorm:.3e}",
                residual=rnorm, time=t, step=k, history=history,
            )
        levels[k + 1] = u.reshape(grid.shape)
        table = _push_level(table, x)

    meta = {
        "equation": _KINDS[flux.kind],
        "scheme": _SCHEME,
        "m": None if flux.kind == "log-diffusion" else flux.m,
        "dt": config.dt,
        "horizon": horizon,
        "newton_tol": config.newton_tol,
        "boundary": config.boundary,
        **stats,
    }
    levels.setflags(write=False)  # handed over to the slab, not copied
    return SpaceTimeSlab(grid, times, levels, meta=meta)


def solve_log_diffusion(
    initial: Field, config: SolverConfig, horizon: float
) -> SpaceTimeSlab:
    """March ``u_t = Lap_h(ln u)`` from ``initial`` over ``horizon``."""
    return _march(initial, config, horizon, QuasilinearFlux("log-diffusion"))


def solve_porous_medium(
    initial: Field, m: float, config: SolverConfig, horizon: float
) -> SpaceTimeSlab:
    """March ``u_t = Lap_h((u^m - 1)/m)`` for ``0 < m < 1``."""
    return _march(initial, config, horizon, QuasilinearFlux("pme", m=m))


def solve_quasilinear(
    initial: Field, flux: QuasilinearFlux, config: SolverConfig, horizon: float
) -> SpaceTimeSlab:
    """BDF2 after one backward-Euler step for the quasilinear flux ``u_t = div
    A(x, t, u, Du)`` (module docstring).

    Every kind runs ``div_h(a grad_h beta(u))`` (module docstring): the model
    kinds with ``a = 1``, as :func:`solve_log_diffusion` and
    :func:`solve_porous_medium` do, and ``diagonal-perturbed`` with ``a = a_d``
    and the ``beta`` of ``flux.m``, so at ``a = 1`` it gives their results.
    """
    return _march(initial, config, horizon, flux)


def residual_norm(slab: SpaceTimeSlab, flux: QuasilinearFlux) -> float:
    """Max over steps and interior nodes of ``|theta (u_k - rhs_k)/dt - Op(u_k)|``.

    Replays the step of the scheme in ``slab.meta["scheme"]`` (backward Euler
    where the key is missing, as on older files and sampled slabs; an unknown
    name raises ParameterError): ``(theta, rhs_k)`` from the backward
    differences of the levels before ``u_k`` (``_step_coefficients``), so the
    first term is ``(u_k - u_(k-1))/dt`` for backward Euler and BDF2's first
    step and ``(3 u_k - 4 u_(k-1) + u_(k-2))/(2 dt)`` after it.  The operator
    matches the flux kind, is built on the interior rows the norm reads and
    is evaluated at the newer level, so a solver slab scores at its Newton
    tolerance times ``theta/dt`` plus stencil-consistency terms.
    """
    scheme = slab.meta.get("scheme", "backward-euler")
    grid = slab.grid
    faces = _Faces(grid)
    op = _BetaOperator(faces, np.flatnonzero(faces.W == 1.0), flux)  # the interior rows
    inner = interior_slices(grid)
    table, worst = [slab.values[0][inner]], []
    for k in range(1, slab.nlevels):
        theta, rhs = _step_coefficients(scheme, table)
        u = slab.values[k]
        op.step(float(slab.times[k]))
        defect = theta * (u[inner] - rhs) / slab.dt - op.apply(u.ravel()).reshape(rhs.shape)
        worst.append(np.abs(defect).max())
        table = _push_level(table, u[inner])
    return float(np.max(worst))
