"""Implicit solvers for singular diffusion equations.

All solvers march backward Euler: each step solves the nonlinear system

    u_new - dt * Op(u_new) = u_old

with a damped Newton iteration (exact Jacobian of the discrete operator,
step halving up to ``max_damping`` times).  ``Op`` is:

* ``solve_log_diffusion``: ``Lap_h(ln u)``,
* ``solve_porous_medium``:  ``Lap_h((u^m - 1)/m)``, ``0 < m < 1``,
* ``solve_quasilinear`` with a ``diagonal-perturbed`` flux: ``div_h`` of the
  face flux ``a_d(x,t) * d_face * du``, where ``d_face`` is the harmonic mean
  of ``u^(1-m)`` (the arithmetic mean of ``u^(m-1)``; ``m = 0`` gives the
  logarithmic coefficient ``1/u``).

``solve_quasilinear`` with kind ``log-diffusion`` or ``pme`` runs the model
solvers' operator, so the reduction at ``a == 1`` is exact by construction.

Every ``Op`` is the divergence of a flux ``phi`` on the faces of the grid,
one per pair of neighbouring nodes: ``div(phi) = -(D^T (w * phi)) / (W h^2)``
with ``(D u)_f = u[right] - u[left]``.  This is the vertex-centred
finite-volume zero-flux scheme: ``W`` are the trapezoid weights (dual cell
volumes over ``h^dim``) and ``w`` the dual face areas over ``h^(dim-1)``,
halved once for each other axis on whose boundary the face lies.  Interior
rows are the standard ``2*dim + 1`` point stencil, and ``sum_i W_i div_i = 0``.

Boundary conditions: ``dirichlet-from-oracle`` fixes boundary nodes to values
supplied by an exact solution (or any callable ``(points, t) -> values``) and
solves for the interior nodes; ``neumann-zero-flux`` solves for every node and
conserves the trapezoid mass per step up to the Newton residual.

Newton corrections solve ``J delta = -r`` (``J = I - dt dOp/du``) by Krylov
iterations from zero.  For log and pme, ``W J = (diag(W/b') + C) diag(b')`` with
``C = dt D^T diag(w) D / h^2`` exactly symmetric: PCG finds ``b' delta``.  The
flux form runs BiCGSTAB (right-preconditioned) on ``W J delta = -W r``.  Both
loops stop by one rule, ``max|W (J delta + r)| <= 0.01 newton_tol min W``, or
at a cap of ``n`` (PCG) or ``2 n + 20`` (BiCGSTAB) iterations for ``n``
unknowns (a cap hit); a BiCGSTAB breakdown returns its iterate as not
converged.  The damped line search guards the result.  Under Neumann
``W^T J = W^T``, so the constant restoring ``W^T delta = -W^T r`` is added to
each correction.

Both loops are preconditioned by ``P^-1`` for ``P = s W + sum_a c_a C_a``, with
``C_a`` the axis-``a`` part of ``C``.  One orthonormal DST-I (Dirichlet) or
DCT-I (Neumann, after scaling by ``W^(1/2)``) matrix per axis diagonalises
``W`` and every ``C_a`` together (fast diagonalisation, Lynch, Rice & Thomas
1964), so applying ``P^-1`` is a transform along each axis, a division by
``s + sum_a c_a lam_a`` and the transform back; the matrix depends only on
the grid and dt and is built once per solve.  PCG takes ``c_a = 1`` and
``s = sqrt(min d max d)`` for ``d = 1/b'``, so its condition number is at most
``(max d + lam_min)/(min d + lam_min)`` for the least eigenvalue ``lam_min``
of ``C`` against ``W``, whatever dt/h^2 is.  BiCGSTAB freezes the flux
coefficient ``k = u^(m-1)`` (``1/u`` at ``m = 0``) into the unknown,
``W J delta ~ (diag(W/k) + sum_a a_a C_a)(k delta)``, and preconditions by
``x -> P^-1 x / k`` with ``s`` from ``d = 1/k`` and ``c_a`` the mean of ``a_a``
over the faces of axis ``a``.

The flux form keeps ``W J`` in one CSR matrix per solve, whose pattern is the
diagonal and both off-diagonal entries of every face whose two end nodes are
unknowns; a Newton call rewrites only its data.  As ``W div = -D^T diag(w) /
h^2``, ``W J = W + (dt/h^2) D^T diag(w) dphi/du``, so a face ``(L, R)`` adds
the 2x2 block ``[[g1 - g2 d'_L, -(g1 + g2 d'_R)], [-g1 + g2 d'_L, g1 + g2
d'_R]]`` on its rows and columns ``L, R``, with ``g1 = (dt/h^2) w a (d_L +
d_R)/2``, ``g2 = (dt/h^2) w a (u_R - u_L)/2`` and ``d' = (m - 1) d / u`` for
``d = u^(m-1)``.  A face with one unknown end adds only that end's diagonal
entry.

Newton for step k starts on the unknowns from the polynomial through the
last ``min(k + 1, 3)`` levels, extrapolated to the new time: ``u_k``, then
``2 u_k - u_(k-1)``, then ``3 u_k - 3 u_(k-1) + u_(k-2)``.  The coefficients
sum to one, so under Neumann the guess keeps the trapezoid mass, and the
guess is linear in the levels, so the time and space scaling symmetries hold
step by step.  Only the start changes: every step still solves its
backward-Euler system to ``newton_tol``.  Where the guess falls below the
positivity floor, that node starts from ``u_k`` instead, counted in
``predictor_fallbacks``; the Neumann correction above restores the mass of
such a start.

Positivity is maintained by a floor (default ``1e-10 * max(initial)``); every
clipped entry is counted, and a step whose clipped fraction exceeds
``floor_warn_fraction`` appends a warning to the slab metadata rather than
failing, since approach to zero is the phenomenon under study.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SolverError
from .grid import Field, Grid, SpaceTimeSlab, _trapezoid_weights, interior_slices

_BOUNDARY_KINDS = ("dirichlet-from-oracle", "neumann-zero-flux")


@dataclass(frozen=True)
class SolverConfig:
    """Time step and Newton controls shared by all solvers."""

    dt: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    max_damping: int = 30
    positivity_floor: float | None = None
    floor_warn_fraction: float = 0.01
    boundary: str = "dirichlet-from-oracle"
    boundary_values: object = None  # ExactSolution or callable (points, t) -> values

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
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
    ``m = 0`` selects the logarithmic coefficient ``1/u``.
    """

    kind: str
    m: float = 0.0
    a: tuple = ()
    c_o: float = 1.0
    c_1: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"flux kind must be one of {tuple(_KINDS)}")
        if self.kind == "pme" and not 0.0 < self.m < 1.0:
            raise ParameterError(f"pme flux needs m in (0, 1), got {self.m}")
        if self.kind == "diagonal-perturbed":
            if not 0.0 <= self.m < 1.0:
                raise ParameterError("diagonal-perturbed flux needs m in [0, 1)")
            if not self.a:
                raise ParameterError("diagonal-perturbed flux needs per-axis a")
            if not 0 < self.c_o <= self.c_1:
                raise ParameterError("structure bounds need 0 < c_o <= c_1")


def _check_horizon(horizon: float, dt: float) -> int:
    nsteps = horizon / dt
    n = int(round(nsteps))
    if n < 1 or abs(nsteps - n) > 1e-8 * max(1.0, nsteps):
        raise ParameterError(f"horizon {horizon} is not an integer multiple of dt {dt}")
    return n


# coefficients of the polynomial through the last 1, 2, 3 levels at the next
# time, newest level first; each row sums to 1
_EXTRAPOLATION = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0))


def _damped_newton(x0, residual_fn, correction_fn, floor, config, t, stats):
    """Solve residual(x) = 0 by steps ``correction_fn(x, r)``; keeps x >= floor."""
    x = np.maximum(x0, floor)
    r = residual_fn(x)
    rnorm = float(np.abs(r).max())
    for _ in range(config.newton_max_iter):
        if rnorm <= config.newton_tol:
            return x
        delta = correction_fn(x, r)
        stats["newton_iters"] += 1
        for halvings in range(config.max_damping + 1):
            x_try = x + 0.5**halvings * delta
            clipped = x_try < floor
            if clipped.any():
                x_try = np.maximum(x_try, floor)
            r_try = residual_fn(x_try)
            rn_try = float(np.abs(r_try).max())
            if rn_try < rnorm:
                nclip = int(clipped.sum())
                stats["floor_triggers"] += nclip
                stats["max_floor_fraction"] = max(
                    stats["max_floor_fraction"], nclip / x.size
                )
                x, r, rnorm = x_try, r_try, rn_try
                break
        else:
            raise SolverError(
                f"Newton stalled at t={t}: residual {rnorm:.3e}", residual=rnorm, time=t
            )
    if rnorm <= config.newton_tol:
        return x
    raise SolverError(
        f"Newton did not reach tol at t={t}: residual {rnorm:.3e}", residual=rnorm, time=t
    )


def _pcg(A, b, precond, atol, cap):
    """Preconditioned CG for SPD ``A y = b`` from zero, until
    ``max|b - A y| <= atol`` or ``cap`` iterations: ``(y, iterations, converged)``."""
    y, res = np.zeros_like(b), b.copy()
    p = z = precond(res)
    rz = res @ z
    for it in range(cap + 1):
        if (converged := bool(np.abs(res).max() <= atol)) or it == cap:
            return y, it, converged
        Ap = A @ p
        alpha = rz / (p @ Ap)
        y += alpha * p
        res -= alpha * Ap
        z = precond(res)
        rz, rz_old = res @ z, rz
        p = z + (rz / rz_old) * p


def _bicgstab(A, b, precond, atol, cap):
    """Right-preconditioned BiCGSTAB for ``A x = b`` from zero, with the stopping
    rule and return value of :func:`_pcg`.  A breakdown (``rho``, ``rhat.v`` or
    ``t.t`` zero or not finite) returns the current iterate, not converged."""
    x, res = np.zeros_like(b), b.copy()
    rhat, p, v = res.copy(), np.zeros_like(b), np.zeros_like(b)
    rho = alpha = omega = 1.0
    for it in range(cap + 1):
        if (converged := bool(np.abs(res).max() <= atol)) or it == cap:
            return x, it, converged
        rho, rho_old = rhat @ res, rho
        if rho == 0.0 or not np.isfinite(rho):
            return x, it, False
        p = res + (rho / rho_old) * (alpha / omega) * (p - omega * v)
        phat = precond(p)
        v = A @ phat
        rv = rhat @ v
        if rv == 0.0 or not np.isfinite(rv):
            return x, it, False
        alpha = rho / rv
        x += alpha * phat
        res -= alpha * v
        if np.abs(res).max() <= atol:
            return x, it + 1, True
        shat = precond(res)
        t = A @ shat
        tt = t @ t
        if tt == 0.0 or not np.isfinite(tt):
            return x, it + 1, False
        omega = (t @ res) / tt
        if omega == 0.0:  # res is orthogonal to t: a later beta would divide by it
            return x, it + 1, False
        x += omega * shat
        res -= omega * t


def _geometric_mid(d: np.ndarray) -> float:
    """``sqrt(min d * max d)``: the mass shift ``s`` of the preconditioner, which
    bounds ``d/s`` within ``[sqrt(min d/max d), sqrt(max d/min d)]``."""
    return float(np.sqrt(d.min() * d.max()))


def _tensor(factors) -> np.ndarray:
    """Flat outer product of per-axis factors, in the grid's node order."""
    return reduce(np.multiply.outer, factors).ravel()


class _Faces:
    """Faces of a grid and the zero-flux divergence on them (module docstring).

    ``left``/``right`` are the flat node indices of every face, axis by axis;
    ``D`` is the difference matrix, ``W`` the node and ``w`` the face weights.
    """

    def __init__(self, grid: Grid):
        n, dim = grid.npts, grid.dim
        idx = np.arange(n**dim).reshape(grid.shape)
        tw = _trapezoid_weights(n)
        left, right, w = [], [], []
        for axis in range(dim):
            lo = tuple(slice(0, -1) if k == axis else slice(None) for k in range(dim))
            hi = tuple(slice(1, None) if k == axis else slice(None) for k in range(dim))
            left.append(idx[lo].ravel())
            right.append(idx[hi].ravel())
            w.append(_tensor([np.ones(n - 1) if k == axis else tw for k in range(dim)]))
        self.grid = grid
        self.left = np.concatenate(left)
        self.right = np.concatenate(right)
        self.w = np.concatenate(w)
        self.W = _tensor([tw] * dim)
        eye = sp.identity(idx.size, format="csr")
        self.D = eye[self.right] - eye[self.left]

    def divergence(self, rows: np.ndarray) -> sp.csr_matrix:
        """Rows ``rows`` of ``phi -> -(D^T (w * phi)) / (W h^2)``."""
        scale = -1.0 / (self.W[rows] * self.grid.spacing**2)
        return sp.csr_matrix(sp.diags(scale) @ self.D[:, rows].T @ sp.diags(self.w))

    def stiffness(self, rows: np.ndarray) -> sp.csr_matrix:
        """``-W L = D^T diag(w) D / h^2`` on ``rows``; exactly symmetric, as
        each off-diagonal entry is one product of exact factors."""
        D = self.D[:, rows]
        return sp.csr_matrix(D.T @ sp.diags(self.w / self.grid.spacing**2) @ D)


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
        self.inv_root_w = 1.0 / np.sqrt(faces.W[rows])
        self.dim = grid.dim

    def _transform(self, x: np.ndarray) -> np.ndarray:
        """``Q`` applied along every axis of the flat node array ``x``: the last
        axis by one matmul, each earlier one as a stack of ``Q @`` blocks."""
        Q, m = self.Q, self.Q.shape[0]
        x = x.reshape(-1, m) @ Q
        for later in range(1, self.dim):
            x = Q @ x.reshape(-1, m, m**later)
        return x.ravel()

    def inverse(self, s: float, c):
        """``x -> P^-1 x`` for ``s > 0`` and one ``c_a > 0`` per axis."""
        denom = s + reduce(np.add.outer, [c_a * self.lam for c_a in c]).ravel()
        scale = self.inv_root_w

        def apply(x):
            return scale * self._transform(self._transform(scale * x) / denom)

        return apply


# Operators: ``step(t)`` once per level, then ``apply(u)`` (Op on ``rows``, u on every
# node) and ``newton_solver(dt, atol)`` -> ``solve(u, r) -> (delta, iters, converged)``.


class _BetaOperator:
    """``Lap_h beta(u)``, with ``L = div D`` assembled once."""

    def __init__(self, faces: _Faces, rows: np.ndarray, beta, beta_prime):
        self.faces, self.rows, self.beta, self.beta_prime = faces, rows, beta, beta_prime
        self.L = faces.divergence(rows) @ faces.D

    def step(self, t: float) -> None:
        pass

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.L @ self.beta(u)

    def newton_solver(self, dt: float, atol: float):
        """PCG on ``(diag(W/b') + C) y = -W r``; a call rewrites only the diagonal."""
        n, W = self.rows.size, self.faces.W[self.rows]
        C = dt * self.faces.stiffness(self.rows)
        A = (C + sp.identity(n)).tocsr()  # stores every diagonal entry
        diag_at = np.flatnonzero(A.indices == np.repeat(np.arange(n), np.diff(A.indptr)))
        c_diag = C.diagonal()
        spectral = _Spectral(self.faces, self.rows, dt)
        unit = np.ones(self.faces.grid.dim)

        def solve(u, r):
            bp = self.beta_prime(u[self.rows])
            A.data[diag_at] = c_diag + W / bp
            precond = spectral.inverse(_geometric_mid(1.0 / bp), unit)
            y, iters, converged = _pcg(A, -W * r, precond, atol, n)
            return y / bp, iters, converged

        return solve


class _FluxOperator:
    """Divergence of the face flux ``a_d * d_face * du`` (diagonal-perturbed).

    ``a_d`` is evaluated at the face midpoints and checked against
    ``[c_o, c_1]`` once per step.
    """

    def __init__(self, faces: _Faces, rows: np.ndarray, flux: QuasilinearFlux):
        grid = faces.grid
        if len(flux.a) != grid.dim:
            raise ParameterError("flux needs one coefficient per axis")
        self.faces, self.flux, self.rows = faces, flux, rows
        self.div = faces.divergence(rows)
        pts = grid.points().reshape(-1, grid.dim)
        mid = 0.5 * (pts[faces.left] + pts[faces.right])
        self.mid = mid.reshape(grid.dim, -1, grid.dim)

    def step(self, t: float) -> None:
        flux = self.flux
        tol = 1e-9 * max(1.0, flux.c_1)
        per_axis = []
        for axis, (a_d, mid) in enumerate(zip(flux.a, self.mid)):
            vals = a_d(mid, t) if callable(a_d) else a_d
            vals = np.broadcast_to(np.asarray(vals, dtype=float), len(mid))
            if vals.min() < flux.c_o - tol or vals.max() > flux.c_1 + tol:
                raise ParameterError(
                    f"a_{axis} leaves the structure interval [{flux.c_o}, {flux.c_1}]"
                )
            per_axis.append(vals)
        self.a = np.concatenate(per_axis)

    def _coefficient(self, u: np.ndarray) -> np.ndarray:
        """``k = u^(m-1)``; ``m = 0`` gives the log coefficient ``1/u``."""
        m = self.flux.m
        return u ** (m - 1.0) if m != 0.0 else 1.0 / u

    def _face_terms(self, u: np.ndarray):
        """``a_d * d_face`` and ``du`` on every face."""
        d = self._coefficient(u)
        left, right = self.faces.left, self.faces.right
        return self.a * 0.5 * (d[left] + d[right]), u[right] - u[left]

    def apply(self, u: np.ndarray) -> np.ndarray:
        coef, du = self._face_terms(u)
        return self.div @ (coef * du)

    def newton_solver(self, dt: float, atol: float):
        """BiCGSTAB on ``W J delta = -W r``, preconditioned by ``x -> P^-1 x / k``;
        a call rewrites the data of one fixed CSR ``W J`` (module docstring)."""
        faces, rows, m = self.faces, self.rows, self.flux.m
        left, right, n = faces.left, faces.right, rows.size
        W = faces.W[rows]
        at = np.full(faces.W.size, -1)
        at[rows] = np.arange(n)
        inner = np.flatnonzero((at[left] >= 0) & (at[right] >= 0))
        diag = np.arange(n)
        i = np.concatenate([diag, at[left[inner]], at[right[inner]]])
        j = np.concatenate([diag, at[right[inner]], at[left[inner]]])
        order = np.lexsort((j, i))  # entries in CSR order: by row, then column
        indptr = np.concatenate([[0], np.cumsum(np.bincount(i, minlength=n))])
        A = sp.csr_matrix((np.zeros(i.size), j[order], indptr), shape=(n, n))
        scale = 0.5 * dt * faces.w / faces.grid.spacing**2
        spectral = _Spectral(faces, rows, dt)

        def solve(u, r):
            d = self._coefficient(u)
            g1 = scale * self.a * (d[left] + d[right])
            g2 = scale * self.a * (u[right] - u[left])
            dprime = (m - 1.0) * d / u
            g2_left, g2_right = g2 * dprime[left], g2 * dprime[right]
            on_diag = W + (
                np.bincount(left, g1 - g2_left, faces.W.size)
                + np.bincount(right, g1 + g2_right, faces.W.size)
            )[rows]
            entries = [on_diag, -(g1 + g2_right)[inner], (g2_left - g1)[inner]]
            np.take(np.concatenate(entries), order, out=A.data)
            k = d[rows]
            c = self.a.reshape(faces.grid.dim, -1).mean(axis=1)
            inverse = spectral.inverse(_geometric_mid(1.0 / k), c)
            return _bicgstab(A, -W * r, lambda x: inverse(x) / k, atol, 2 * r.size + 20)

        return solve


def _log_operator(faces, rows, flux):
    return _BetaOperator(faces, rows, np.log, np.reciprocal)


def _pme_operator(faces, rows, flux):
    m = flux.m
    return _BetaOperator(faces, rows, lambda u: (u**m - 1.0) / m, lambda u: u ** (m - 1.0))


# flux kind -> (operator factory (faces, rows, flux), slab meta "equation")
_KINDS = {
    "log-diffusion": (_log_operator, "log-diffusion"),
    "pme": (_pme_operator, "pme"),
    "diagonal-perturbed": (_FluxOperator, "quasilinear:diagonal-perturbed"),
}


def _operator_on_all_nodes(grid: Grid, flux: QuasilinearFlux):
    faces = _Faces(grid)
    return _KINDS[flux.kind][0](faces, np.arange(faces.W.size), flux)


def _march(
    initial: Field, config: SolverConfig, horizon: float, flux: QuasilinearFlux
) -> SpaceTimeSlab:
    """Backward Euler for the operator of ``flux.kind``; the module's one step loop."""
    grid = initial.grid
    if initial.min() <= 0:
        raise ParameterError("initial data must be strictly positive")
    nsteps = _check_horizon(horizon, config.dt)
    floor = config.positivity_floor
    if floor is None:
        floor = 1e-10 * initial.max()

    # unknowns: every node under Neumann, the interior nodes (trapezoid weight
    # one) under Dirichlet
    faces = _Faces(grid)
    neumann = config.boundary == "neumann-zero-flux"
    known = np.zeros(faces.W.size, dtype=bool) if neumann else faces.W < 1.0
    rows = np.flatnonzero(~known)
    pts_known = grid.points().reshape(-1, grid.dim)[known]
    boundary = getattr(config.boundary_values, "eval", config.boundary_values)
    op = _KINDS[flux.kind][0](faces, rows, flux)
    solve = op.newton_solver(config.dt, 0.01 * config.newton_tol * faces.W[rows].min())

    times = np.linspace(initial.time, initial.time + horizon, nsteps + 1)
    levels = np.empty((nsteps + 1,) + grid.shape)
    levels[0] = initial.values
    stats = {"newton_iters": 0, "linear_iters": 0, "linear_cap_hits": 0,
             "floor_triggers": 0, "max_floor_fraction": 0.0, "predictor_fallbacks": 0}

    u = initial.values.ravel().copy()
    history = levels.reshape(nsteps + 1, -1)
    for k in range(nsteps):
        t = float(times[k + 1])
        op.step(t)
        if not neumann:
            u[known] = np.maximum(boundary(pts_known, t), floor)
        prev = u[rows]
        coefs = _EXTRAPOLATION[min(k, 2)]
        guess = sum(c * history[k - j, rows] for j, c in enumerate(coefs))
        low = (guess < floor) & (prev >= floor)  # initial data may lie below it
        stats["predictor_fallbacks"] += int(low.sum())
        guess[low] = prev[low]

        def residual_fn(x):
            u[rows] = x
            return x - config.dt * op.apply(u) - prev

        def correction_fn(x, r):
            u[rows] = x
            delta, iters, converged = solve(u, r)
            stats["linear_iters"] += iters
            stats["linear_cap_hits"] += not converged
            if neumann:  # rows are every node; restore W^T delta = -W^T r
                delta -= faces.W @ (r + delta) / faces.W.sum()
            return delta

        u[rows] = _damped_newton(guess, residual_fn, correction_fn, floor, config, t, stats)
        levels[k + 1] = u.reshape(grid.shape)

    warnings = []
    if stats["max_floor_fraction"] > config.floor_warn_fraction:
        warnings.append(
            f"positivity floor clipped up to {stats['max_floor_fraction']:.2%} "
            f"of nodes in a Newton step"
        )
    meta = {
        "equation": _KINDS[flux.kind][1],
        "m": None if flux.kind == "log-diffusion" else flux.m,
        "dt": config.dt,
        "horizon": horizon,
        "newton_tol": config.newton_tol,
        "boundary": config.boundary,
        "positivity_floor": floor,
        **stats,
        "warnings": warnings,
    }
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
    """Backward Euler for the quasilinear flux ``u_t = div A(x, t, u, Du)``.

    Model kinds run the operator of :func:`solve_log_diffusion` /
    :func:`solve_porous_medium`; ``diagonal-perturbed`` runs the face flux.
    """
    return _march(initial, config, horizon, flux)


def flux_divergence(
    grid: Grid, values: np.ndarray, flux: QuasilinearFlux, t: float
) -> np.ndarray:
    """The operator of ``flux.kind`` at time ``t`` on every node.

    Interior rows are the standard stencil, boundary rows the zero-flux form
    (dual-area faces, rows divided by the trapezoid weight; module docstring).
    """
    op = _operator_on_all_nodes(grid, flux)
    op.step(t)
    return op.apply(values.ravel()).reshape(grid.shape)


def residual_norm(slab: SpaceTimeSlab, flux: QuasilinearFlux) -> float:
    """Max over steps and interior nodes of ``|(u_k - u_{k-1})/dt - Op(u_k)|``.

    The operator matches the flux kind and is evaluated at the newer level
    (backward-Euler convention), so solver-produced slabs score at the Newton
    tolerance divided by ``dt`` plus stencil-consistency terms.
    """
    grid = slab.grid
    op = _operator_on_all_nodes(grid, flux)
    inner = interior_slices(grid)
    worst = 0.0
    for k in range(1, slab.nlevels):
        u = slab.values[k]
        op.step(float(slab.times[k]))
        defect = (u - slab.values[k - 1]) / slab.dt - op.apply(u.ravel()).reshape(u.shape)
        worst = max(worst, float(np.abs(defect[inner]).max()))
    return worst
