"""Scalar quantities measured on slabs: sups, oscillation means, mass bounds.

Conventions shared by every function here:

* cubes are edge-specified (``Cube(y, e)`` spans ``e``, not ``2e``);
* spatial means are trapezoid averages over the snapped cube;
* a space-time region is a cube and a window ``(t_start, t_end)`` with
  ``t_start < t_end``, passed in that order;
* time windows select stored levels (closed window, roundoff tolerant);
* the discrete essential sup/inf over a region is the max/min of its samples.

Every quantity over a cube, or a batch's bounding block, and a window is read
by one kernel, :func:`_cube_chunks`, as ``(ks, u, work)``: a slice of slab
levels, a view of the block's nodes there and a view of the one work buffer it
allocates per call.  A chunk holds ``_CHUNK_DOUBLES = 1 << 15`` values (or one
level, if that is larger), and half as many in the two batch sweeps
(:func:`_probe_stats`, :func:`_flux_integrals`), whose ``pair`` of buffers
holds their running sums too, of three planes in the statistics sweep (at most
768 KiB in all, which fits a 2 MiB per-core L2) and of one in the flux sweep.
Integrands are written in place and integrated per level in one product with
flattened trapezoid weights; sups, infs and time integrals are numpy
reductions too, so a NaN sample makes the result NaN.  A chunk split can move
a per-level sum by an ulp: BLAS groups matrix rows.

Resolve-once rule: the private kernels take resolved blocks, a cube's snapped
slices ``nodes`` (:meth:`Grid.cube_slices`) and a window's level indices
``levels`` (:meth:`SpaceTimeSlab.window_indices`), and resolve none
themselves; the public entry points and the checkers resolve each cube and
window of a probe once and pass the same blocks to every kernel that reads it.
A batch of probes is resolved probe by probe before its one sweep.

Probe-local rule: the work of one probe scales with its own cylinder, and the
work of a batch with its bounding block.  No function here evaluates
anything on a whole level and slices it afterwards: powers, logarithms and
cutoff weights are applied to the cube's nodes only, gradients are
differenced at the cube's nodes from one neighbour on each side
(:func:`logdiff.grid.squared_gradient_at`, per chunk, in the energy and flux
integrals only), and node coordinates are built only for the block a callable
flux coefficient is sampled on.  The statistics sweep reads the block that
bounds a batch's ``K_2rho`` cubes once over the batch's levels, the flux
sweep the block that bounds its ``K_rho`` cubes and one node around it, plus
O(1) per probe and level; a batch of one reads its own cubes only.

The checkers' per-probe statistics come from three kernels.  :func:`_probe_stats`
serves a batch of probes in one level sweep (summed-area tables; F. C. Crow,
SIGGRAPH 1984): per chunk of levels it writes u, the oscillation integrand
``g_t`` at each level's max ``t`` over the bounding block and its square into
one buffer, takes their running trapezoid sums along every axis at the
probes' cube corners only, and reads each probe's ``K_2rho`` and
``K_(1+sigma)rho`` integrals by 2^d-term inclusion-exclusion
(:func:`_box_integrals`).  An exact identity moves those to the probe's sup
``M``, one read-only max over its own cylinder, into running per-probe maxima
and minima.  :func:`_flux_integrals` reads the flux corollary's left-hand
side the same way: per chunk ``beta'(u) |a Du|`` on the block that bounds the
batch's ``K_rho``, each probe's cube integral from the same corner sums, and
a time trapezoid per probe over its own levels; the energy left-hand side
stays per probe.  One rule refuses a bad block in both sweeps
(:func:`_per_probe_on_refusal`): a node that is not finite and positive (or,
in the flux sweep, a callable ``a_d`` outside its structure interval) fails a
batch of one and reads a larger batch probe by probe.
:func:`_power_oscillation` gives the pointwise check ``M`` and ``lambda_p``
over ``K_8rho x window``: ``M`` from the chunk's copy (or a read-only pre-pass
over several chunks), then ``|ln M - ln u|`` and its p-th power in one buffer.
A whole ``p`` up to 64 is taken by repeated squaring (:func:`_power_into`;
Knuth, TAOCP vol. 2, 4.6.3), any other by ``np.power``.

One oscillation functional serves both equations, with ``m = 0`` as the
logarithmic case, as in the checkers: :func:`oscillation` is the sup over
time levels of the p-mean over a cube of ``|ln(u/M)|`` at ``m = 0`` and of
``|1 - (u/M)^m|/m`` for ``0 < m < 1``, which increases to ``|ln(M/u)|`` as
``m`` decreases to zero.  ``normalized=False`` takes the plain space
integral instead of the mean, the form the energy and flux bounds consume.
It runs the pointwise pass with a given ``M``, so the pointwise ``lambda_p``
equals it bit for bit.  :func:`gradient_energy` and the scale kernels take
``m`` alike.  A probe constant that is not finite raises ParameterError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import (
    Cube,
    Cutoff,
    Field,
    SpaceTimeSlab,
    _block_volume,
    _flat_trapezoid_weights,
    _point_str,
    _trapezoid,
    squared_gradient_at,
)
from .reporting import Row

# Values per level chunk (256 KiB of doubles): large enough that the Python
# overhead per chunk is small, small enough that work buffers stay in L2.
_CHUNK_DOUBLES = 1 << 15


def _cube_chunks(slab: SpaceTimeSlab, nodes, levels, planes: int = 0, pair: bool = False):
    """Yield ``(ks, u, work)`` over level chunks of the block ``nodes x levels``: ``ks``
    slices the slab levels of the chunk, ``u`` is a view shaped ``(levels, *cube)`` and
    ``work`` views one buffer per call, shaped ``(1 + pair, planes, *u.shape)`` (the first
    chunk is the largest).  A chunk holds ``_CHUNK_DOUBLES`` values, half as many for a
    ``pair`` of buffers, or one level if that is larger; a reader that needs gradients
    takes them from ``slab.values[ks]`` by :func:`logdiff.grid.gradient_at`."""
    first, stop = int(levels[0]), int(levels[-1]) + 1
    size = math.prod(s.stop - s.start for s in nodes)
    step = max(1, _CHUNK_DOUBLES // ((1 + pair) * size))
    buf = np.empty((1 + pair, planes * min(step, stop - first) * size))
    for k in range(first, stop, step):
        ks = slice(k, min(k + step, stop))
        u = slab.values[(ks,) + nodes]
        yield ks, u, buf[:, : planes * u.size].reshape((1 + pair, planes) + u.shape)


def _level_integrals(slab: SpaceTimeSlab, nodes, levels, integrand, weights=1.0):
    """Trapezoid integral over the block ``nodes`` of ``weights * integrand(ks, u, out)``
    at each of ``levels``, for the chunks :func:`_cube_chunks` yields; ``weights`` is
    flat over the block's nodes, and ``out``, shaped like ``u``, views its one work
    buffer, which the integrand may overwrite and return."""
    w = _flat_trapezoid_weights(tuple(s.stop - s.start for s in nodes)) * weights
    vals = [
        integrand(ks, u, work[0, 0]).reshape(len(u), -1) @ w
        for ks, u, work in _cube_chunks(slab, nodes, levels, 1)
    ]
    return np.concatenate(vals) * slab.grid.spacing**slab.grid.dim


def _window(window) -> tuple[float, float]:
    """``(t_start, t_end)`` as floats; ParameterError unless ``t_start < t_end``."""
    t0, t1 = float(window[0]), float(window[1])
    if not t0 < t1:
        raise ParameterError("window must satisfy t_start < t_end")
    return t0, t1


def ess_sup(slab: SpaceTimeSlab, cube: Cube, window) -> float:
    """Max of the samples over ``cube x window`` (discrete essential sup)."""
    nodes, levels = slab.grid.cube_slices(cube), slab.window_indices(*_window(window))
    return float(np.max([u.max() for _, u, _ in _cube_chunks(slab, nodes, levels)]))


def _check_m(m: float) -> None:
    if not 0.0 <= m < 1.0:
        raise ParameterError(f"m must lie in [0, 1), got {m:.6g}")


def _check_finite(**values) -> None:
    """ParameterError naming the first of ``values`` that is not a finite number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value:.6g}")


def _not_positive(center, edge: float, where: str = "") -> ParameterError:
    """The error of a probe whose cube of edge ``edge`` holds a node that is not
    finite and positive; ``where`` names other nodes the probe reads."""
    return ParameterError(
        f"u must be finite and positive on the cube of edge {edge:.6g} at {_point_str(center)}"
        + where
    )


def _positive_max(u, center, edge: float) -> float:
    """``u.max()``; ParameterError unless u is finite and positive."""
    t = float(u.max())
    if not (math.isfinite(t) and u.min() > 0.0):
        raise _not_positive(center, edge)
    return t


def _osc_integrand(u, ln_M, e: float, out) -> np.ndarray:
    """``g_M(u)``, written into ``out``, from ``ln_M = ln M`` (broadcast against u):
    ``ln M - ln u`` at ``e = 0``, else ``(1 - (u/M)^e)/e`` as ``-expm1(-e (ln M - ln u))/e``;
    nonnegative for ``u <= M``."""
    np.subtract(ln_M, np.log(u, out=out), out=out)
    if e == 0.0:
        return out
    out *= -e
    return np.divide(np.expm1(out, out=out), -e, out=out)


# the largest whole exponent _power_into takes by squaring
_SQUARING_MAX = 64


def _power_into(g, p: float, out) -> np.ndarray:
    """``g^p``: for a whole ``p`` in ``[1, _SQUARING_MAX]`` by left-to-right binary
    powering (square ``out``, times ``g`` at each one bit after the leading one), else
    by ``np.power``; the result is in ``out``, or is ``g`` itself at ``p = 1``."""
    n = int(p)
    if n != p or not 1 <= n <= _SQUARING_MAX:
        return np.power(g, p, out=out)
    acc = g
    for bit in bin(n)[3:]:
        acc = np.square(acc, out=out)
        if bit == "1":
            acc *= g
    return acc


def _power_oscillation(
    slab: SpaceTimeSlab, cube: Cube, nodes, levels, M, p: float, e: float = 0.0, normalized=True
):
    """``(M, osc)``: ``osc`` the sup over ``levels`` of the p-root of the mean
    (``normalized``) or integral over ``nodes``, ``cube`` snapped, of ``|g_M(u)|^p``
    (:func:`_osc_integrand`), at every ``e``.

    Each chunk is copied into the first half of one work buffer per call, ``g_M`` is
    written over the copy and its power (:func:`_power_into`) into the second half.
    ``M=None`` takes the sup of u over ``nodes x levels``, checked by
    :func:`_positive_max` on the one chunk's copy, or in a read-only pre-pass when the
    cylinder spans several chunks.
    """
    grid = slab.grid
    chunks = list(_cube_chunks(slab, nodes, levels, 2))
    if M is None and len(chunks) > 1:
        M = max(_positive_max(u, cube.center, cube.edge) for _, u, _ in chunks)
    w = _flat_trapezoid_weights(tuple(s.stop - s.start for s in nodes))
    vals = []
    for _, u, work in chunks:
        g, out = work[0]
        np.copyto(g, u)
        if M is None:
            M = _positive_max(g, cube.center, cube.edge)
        # |g|: a given M need not bound u, and math.log(M) can pass np.log(M)
        np.abs(_osc_integrand(g, math.log(M), e, g), out=g)
        vals.append(_power_into(g, p, out).reshape(len(u), -1) @ w)
    vals = np.concatenate(vals) * grid.spacing**grid.dim
    scale = _block_volume(nodes, grid.spacing) if normalized else 1.0
    return M, float(np.max((vals / scale) ** (1.0 / p)))


def oscillation(
    slab: SpaceTimeSlab, cube: Cube, window, M: float, p: float, m: float = 0.0, normalized=True
) -> float:
    """Sup over levels of the p-root of the cube mean of ``|g|^p``, an L^p mean also where
    ``M`` is below u, ``g`` the :func:`_osc_integrand`: ``ln(M/u)`` at ``m = 0``,
    ``(1 - (u/M)^m)/m`` for ``0 < m < 1``.  ``normalized=False`` takes the plain cube
    integral, the form the energy and flux bounds consume."""
    window = _window(window)
    _check_m(m)
    _check_finite(M=M, p=p)
    if M <= 0:
        raise ParameterError("M must be positive")
    if p < 1:
        raise ParameterError("p must be >= 1")
    nodes, levels = slab.grid.cube_slices(cube), slab.window_indices(*window)
    return _power_oscillation(slab, cube, nodes, levels, M, p, m, normalized)[1]


def _cube_mean(field: Field, nodes, f) -> float:
    """Trapezoid mean of ``f(u)`` over the snapped cube ``nodes``, ``f`` applied on its
    nodes only."""
    h = field.grid.spacing
    return float(_trapezoid(f(field.values[nodes]), h)) / _block_volume(nodes, h)


def _intrinsic_scale(field: Field, nodes, q: float, eps: float, m: float = 0.0) -> float:
    """``eps * (mean over the snapped cube nodes of u^q)^((1 - m)/q)``: the time-scaling
    factor, ``m = 0`` the logarithmic case and ``0 < m < 1`` the power-flux one."""
    _check_m(m)
    _check_finite(q=q, eps=eps)
    if q <= 0 or eps <= 0:
        raise ParameterError("q and eps must be positive")
    return eps * _cube_mean(field, nodes, lambda u: u**q) ** ((1.0 - m) / q)


def _intrinsic_window(
    slab: SpaceTimeSlab, nodes, x_o, k_o: int, rho: float, q: float, eps: float
):
    """``(theta, levels)`` of the vertex ``x_o`` at the stored level ``k_o``, time ``t_o``.

    ``theta`` is :func:`_intrinsic_scale` over ``K_rho``, snapped to ``nodes``, at
    ``t_o``, and ``levels`` are the stored levels of ``(t_o - theta rho^2/16, t_o]``
    by :meth:`SpaceTimeSlab.window_indices`, so they end on ``k_o``.  Raises
    ParameterError, before the window is formed, if theta is not finite.
    """
    t_o = float(slab.times[k_o])
    theta = _intrinsic_scale(slab.level(k_o), nodes, q, eps)
    if not math.isfinite(theta):
        raise ParameterError(
            f"u must be finite and positive near the vertex {_point_str(x_o)}, "
            f"t_o {t_o:.6g}, rho {rho:.6g}"
        )
    return theta, slab.window_indices(t_o - theta * rho**2 / 16.0, t_o)


def _degeneracy_ratio(field: Field, nodes, q: float, M: float, r: float, m: float = 0.0):
    """Normalized mass indicator in (0, 1] over the snapped cube ``nodes``, 1 iff
    ``u == M`` there: ``(mean (u/M)^q)^((1/q) * 2/(N(m-1) + 2r))`` with ``N(m-1) + 2r >
    0``; ``m = 0`` gives the logarithmic exponent ``2/(2r - N)``."""
    _check_m(m)
    _check_finite(q=q, M=M)
    if M <= 0 or q <= 0:
        raise ParameterError("M and q must be positive")
    lam_r = moment_scaling_exponent(field.grid.dim, m, r)
    mean = _cube_mean(field, nodes, lambda u: (u / M) ** q)
    return mean ** ((1.0 / q) * (2.0 / lam_r))


def time_scaling_exponent(N: int, m: float = 0.0) -> float:
    """Exponent ``N(m - 1) + 2`` of ``rho`` scaling the time term; ``2 - N`` at m = 0."""
    return N * (m - 1.0) + 2.0


def moment_scaling_exponent(N: int, m: float, r: float) -> float:
    """``N(m - 1) + 2r``; must be positive for the ratio exponents to make sense."""
    _check_finite(r=r)
    val = N * (m - 1.0) + 2.0 * r
    if val <= 0:
        raise ParameterError(f"need N(m-1) + 2r > 0, got {val:.6g}")
    return val


def gradient_energy(slab: SpaceTimeSlab, cutoff: Cutoff, window, m: float = 0.0) -> float:
    """Space-time integral of ``zeta^2 |Du|^2 / u^(2 - m/2)`` over the cutoff support
    (``|Du|^2 / u^2`` at ``m = 0``): trapezoid in time over the window levels, discrete
    central gradient in space.  The weight vanishes outside the support cube, so
    integrating over that cube captures the whole quantity."""
    _check_m(m)
    levels = slab.window_indices(*_window(window))
    return _gradient_energy(slab, cutoff, slab.grid.cube_slices(cutoff.support_cube()), levels, m)


def _gradient_energy(slab: SpaceTimeSlab, cutoff: Cutoff, nodes, levels, m: float) -> float:
    """:func:`gradient_energy` on the support cube's snapped ``nodes`` at ``levels``."""
    if levels.size < 2:
        raise ParameterError("energy window needs at least two levels")
    zeta_sq = cutoff.block(slab.grid, nodes) ** 2

    def density(ks, u, out):  # |Du|^2 / u^(2 - m/2); zeta^2 goes into the node weights
        sq = squared_gradient_at(slab.values[ks], slab.grid, nodes)
        return np.divide(sq, np.power(u, 2.0 - m / 2.0, out=out), out=out)

    vals = _level_integrals(slab, nodes, levels, density, zeta_sq.ravel())
    return float(_trapezoid(vals, slab.dt))


def _probe_nodes(grid, center, rho: float, sigma: float):
    """``(outer, inner)``: the snapped ``K_2rho`` and ``K_(1+sigma)rho`` of a probe, the
    blocks :func:`_probe_stats` reads.  ParameterError unless ``0 <= sigma < 1``."""
    if not 0.0 <= sigma < 1.0:
        raise ParameterError("sigma must lie in [0, 1)")
    return tuple(grid.cube_slices(Cube(tuple(center), k * rho)) for k in (2.0, 1.0 + sigma))


@functools.lru_cache(maxsize=16)
def _running_weights(n: int, at: tuple) -> np.ndarray:
    """``(n, len(at))``: column j holds the signed trapezoid weights of the nodes between
    the middle node ``o = (n - 1) // 2`` of an axis of ``n`` nodes and ``at[j]``, so a
    product with it gives the running trapezoid sums from o at ``at``, and nodes ``a .. b``
    integrate to the sum at b minus that at a.  Running from the middle halves, along
    every axis, the sums whose difference is a box's integral, and so their rounding.
    Read-only: a probe's checks, and msweep's at every m, ask for the same columns."""
    i, o, at = np.arange(n)[:, None], (n - 1) // 2, np.array(at)
    lo, hi = np.minimum(at, o), np.maximum(at, o)
    W = np.sign(at - o) * (((i >= lo) & (i <= hi)) - 0.5 * (i == lo) - 0.5 * (i == hi))
    W.setflags(write=False)
    return W


def _box_integrals(ends):
    """``(box, integrals)`` for the node boxes ``ends`` of a batch, shaped ``(probes, boxes,
    dim, 2)``: each box's first and last node per axis.  ``box`` slices the block that
    bounds them all, and ``integrals(q, pair)`` gives the trapezoid integrals, without the
    ``h^d``, of each plane of ``q``, shaped ``(..., *block)``, over every box, shaped
    ``(..., boxes, probes)``.

    A product with :func:`_running_weights` per axis takes the running sums of ``q`` at the
    boxes' corners only, and 2^d of them, signed ``-`` at a box's first node on an axis and
    ``+`` at its last, give each box's integral (summed-area tables; F. C. Crow, SIGGRAPH
    1984).  ``q`` is the first of ``pair``, two buffers of ``q``'s size (a ``pair`` of
    :func:`_cube_chunks`): each stage of the products is written into the buffer the one
    before it read, so ``q`` is overwritten.
    """
    n, k, dim = ends.shape[:3]
    origin = ends[..., 0].min(axis=(0, 1))
    box = tuple(slice(a, b + 1) for a, b in zip(origin, ends[..., 1].max(axis=(0, 1))))
    shape = tuple(s.stop - s.start for s in box)
    ends = ends - origin[:, None]
    at = [tuple(sorted(set(ends[:, :, d].ravel().tolist()))) for d in range(dim)]
    weights = [_running_weights(size, a) for size, a in zip(shape, at)]
    # the 2^d corners of each box as flat indices into the running sums, the last axis
    # fastest, and their signs
    flat, sign = np.zeros((n, k, 1), dtype=np.intp), np.ones(1)
    for d, a in enumerate(at):
        pos = np.searchsorted(a, ends[:, :, d]).reshape(n, k, 1, 2)  # (probe, box, 1, end)
        flat = (flat[..., None] * len(a) + pos).reshape(n, k, -1)
        sign = np.multiply.outer(sign, (-1.0, 1.0)).ravel()
    corners = flat.swapaxes(0, 1).ravel()

    def integrals(q, pair):
        lead, pair = q.shape[: q.ndim - dim], pair.reshape(2, -1)
        # running sums along the last axis, then along each axis before it
        rows, tail = q.reshape(-1, shape[-1]), len(at[-1])
        x = np.matmul(rows, weights[-1], out=pair[1, : len(rows) * tail].reshape(len(rows), tail))
        for j, (w, n_d) in enumerate(zip(weights[-2::-1], shape[-2::-1])):
            x = x.reshape(-1, n_d, tail)
            into = pair[j % 2, : len(x) * w.shape[1] * tail].reshape(len(x), w.shape[1], tail)
            x, tail = np.matmul(w.T, x, out=into), tail * w.shape[1]
        sums = np.take(x.reshape(math.prod(lead), -1), corners, axis=1)
        return sums.reshape(*lead, k, n, -1) @ sign

    return box, integrals


def _per_probe_on_refusal(sweep):
    """The one refusal rule of the batch sweeps ``sweep(slab, blocks, *args)``: a
    ParameterError ends the sweep, and then a batch of one returns it and a larger
    batch each block's batch of one, which fails exactly when its own block holds what
    was refused."""

    @functools.wraps(sweep)
    def run(slab: SpaceTimeSlab, blocks, *args) -> list:
        if not blocks:
            return []
        try:
            return sweep(slab, blocks, *args)
        except ParameterError as exc:
            if len(blocks) == 1:
                return [ParameterError(*exc.args)]  # no traceback, which holds the slab
            return [run(slab, [block], *args)[0] for block in blocks]

    return run


@_per_probe_on_refusal
def _probe_stats(slab: SpaceTimeSlab, probes, m: float = 0.0) -> list:
    """``M, Lambda_1, Lambda_2, S_sigma`` and the inf of the ``K_2rho`` mass of each probe
    ``(center, rho, outer, inner, levels)``, or the ParameterError of a probe whose
    ``K_2rho x levels`` holds a node that is not finite and positive.

    ``M`` is the sup of u over ``outer x levels`` (``K_2rho``, :func:`_probe_nodes`) and
    ``Lambda_1``, ``Lambda_2`` the log oscillation means there at ``m = 0``, else the
    plain-integral power ones with exponent ``e = m/2``; ``S_sigma`` is the sup over the
    levels of the mass on ``inner`` (``K_(1+sigma)rho``).  Equal to the composed
    :func:`ess_sup`, :func:`oscillation` and the level masses' max and min, to a rounding
    that grows with the ratio of the batch's bounding block to the probe's cube.

    One sweep serves the batch: each :func:`_cube_chunks` chunk of its levels is read
    once over the block that bounds the probes' ``outer``, into a buffer of u, ``g_t``
    and ``g_t^2`` (:func:`_osc_integrand` at each level's max ``t`` there), whose
    integrals over each probe's two boxes :func:`_box_integrals` reads.  Those move to
    the probe's ``M`` exactly, ``g_M = c + a g_t`` with ``c = g_M(t)`` and ``a = 1 - e c
    > 0``, into running maxima and minima: no probes x levels table.  A chunk with a
    node that is not finite and positive is refused (:func:`_per_probe_on_refusal`);
    a batch of one's block is its own ``K_2rho x levels``.
    """
    grid, e, dim, n = slab.grid, m / 2.0, slab.grid.dim, len(probes)
    first = np.array([p[4][0] for p in probes])
    last = np.array([p[4][-1] for p in probes])
    # M: one read-only max over each probe's own cylinder; a bad one ends the sweep
    M = np.array([slab.values[(slice(a, b + 1),) + p[2]].max() for a, b, p in zip(first, last, probes)])
    ln_M = np.log(np.where((M > 0.0) & (M < math.inf), M, 1.0))
    # K_2rho, then K_(1+sigma)rho
    box, integrals = _box_integrals(
        np.array([[[(s.start, s.stop - 1) for s in nodes] for nodes in p[2:4]] for p in probes])
    )
    h_d = grid.spacing**dim
    V = np.array([_block_volume(p[2], grid.spacing) for p in probes])
    osc1, osc2 = np.zeros(n), np.zeros(n)  # the true values are >= 0
    s_sigma, inf_mass = np.full(n, -math.inf), np.full(n, math.inf)
    space = tuple(range(1, dim + 1))
    # a pair of buffers of three planes, the second for the running sums
    for ks, u, work in _cube_chunks(slab, box, (first.min(), last.max()), 3, pair=True):
        q = work[0]
        np.copyto(q[0], u)
        t = q[0].max(axis=space)
        if not (np.isfinite(t).all() and q[0].min() > 0.0):
            raise _not_positive(probes[0][0], 2.0 * probes[0][1])
        _osc_integrand(q[0], np.log(t).reshape((-1,) + (1,) * dim), e, q[1])
        np.square(q[1], out=q[2])
        sums = integrals(q, work) * h_d  # (3, levels, 2, probes)
        (mass, inner), (g1, _), (g2, _) = sums.swapaxes(1, 2)
        c = _osc_integrand(t[:, None], ln_M, e, np.empty((len(u), n)))  # g_M(t)
        a = 1.0 - e * c
        a_g1 = a * g1
        o1 = c * V + a_g1
        o2 = c * (o1 + a_g1) + a * a * g2  # c^2 V + 2 a c g1 + a^2 g2
        lvl = np.arange(ks.start, ks.stop)[:, None]
        on = (lvl >= first) & (lvl <= last)
        np.maximum(osc1, o1.max(axis=0, where=on, initial=0.0), out=osc1)
        np.maximum(osc2, o2.max(axis=0, where=on, initial=0.0), out=osc2)
        np.maximum(s_sigma, inner.max(axis=0, where=on, initial=-math.inf), out=s_sigma)
        np.minimum(inf_mass, mass.min(axis=0, where=on, initial=math.inf), out=inf_mass)
    scale = V if m == 0.0 else 1.0
    # x -> x / scale and sqrt are monotone in floating point, so they commute with max
    stats = (M, osc1 / scale, np.sqrt(osc2 / scale), s_sigma, inf_mass)
    return list(zip(*(x.tolist() for x in stats)))


@_per_probe_on_refusal
def _flux_integrals(slab: SpaceTimeSlab, blocks, flux) -> list:
    """``int int |A| dx dtau`` over each probe ``(center, rho, nodes, levels)`` of
    ``blocks``, ``nodes`` its snapped ``K_rho``, for the flux ``A_d = a_d beta'(u)
    du/dx_d`` of ``flux`` (``a = 1`` for the model kinds), or the ParameterError of a
    probe whose levels take a callable ``a_d`` outside the structure interval, or whose
    ``nodes`` or a node next to them, where the gradient reads, is not finite and
    positive.  Its caller checks the constant ``a_d`` and that each probe has two levels.

    One sweep serves the batch: each :func:`_cube_chunks` chunk of its levels is read
    once over the block that bounds the probes' ``nodes``, whose gradient
    :func:`logdiff.grid.squared_gradient_at` takes as on the whole level; ``beta'(u)
    |a Du|`` goes into one buffer, whose integral over each probe's cube
    :func:`_box_integrals` reads at each level, and each probe sums its own levels by
    the trapezoid rule.  A callable ``a_d`` is sampled on the block's nodes at each
    level, one value broadcasting as in the solvers.  A refused ``a_d`` or a bad node
    ends the sweep (:func:`_per_probe_on_refusal`); a batch of one's block is its own
    ``K_rho``.
    """
    grid, a, beta_prime = slab.grid, flux.coefficients(slab.grid.dim), flux.beta()[1]
    first = np.array([b[3][0] for b in blocks])
    last = np.array([b[3][-1] for b in blocks])
    ends = [[[(s.start, s.stop - 1) for s in b[2]]] for b in blocks]
    box, integrals = _box_integrals(np.array(ends))
    shape = tuple(s.stop - s.start for s in box)
    # the nodes the gradient reads: the block and one more on each side, inside the grid
    near = tuple(slice(max(s.start - 1, 0), min(s.stop + 1, grid.npts)) for s in box)
    if any(callable(a_d) for a_d in a):
        points = np.stack(np.broadcast_arrays(*grid.block_axes(box)), axis=-1).reshape(-1, grid.dim)
    total = np.zeros(len(blocks))
    # a pair of buffers of one plane, the second for the running sums
    for ks, u, work in _cube_chunks(slab, box, (first.min(), last.max()), 1, pair=True):
        read = slab.values[(ks,) + near]
        if not (read.min() > 0.0 and read.max() < math.inf):
            raise _not_positive(blocks[0][0], blocks[0][1], " or next to it")
        coefficients = [
            float(a_d) if not callable(a_d) else np.stack([
                np.broadcast_to(flux.checked(axis, a_d(points, float(t)), float(t)), u[0].size)
                .reshape(shape)
                for t in slab.times[ks]
            ])
            for axis, a_d in enumerate(a)
        ]
        sq = squared_gradient_at(slab.values[ks], grid, box, coefficients)
        # beta' > 0, so |a beta'(u) Du| = beta'(u) |a Du|
        q = np.multiply(np.sqrt(sq, out=sq), beta_prime(u), out=work[0, 0])
        lvl = np.arange(ks.start, ks.stop)[:, None]
        w = ((lvl >= first) & (lvl <= last)) - 0.5 * (lvl == first) - 0.5 * (lvl == last)
        total += (integrals(q, work)[:, 0] * w).sum(axis=0)
    return (total * (grid.spacing**grid.dim * slab.dt)).tolist()


def _only(results):
    """The one result of a batch of one; raises it if it is an error."""
    (got,) = results
    if isinstance(got, Exception):
        raise got
    return got


@dataclass
class FunctionalSet(Row):
    """One probe's worth of functionals with full parameter provenance.

    ``sup_u`` is the sup over the doubled cube and window; oscillation values
    are taken there too.  ``time_scale``/``mass_ratio`` families are evaluated
    on the window's final level over the base cube.
    """

    center: tuple
    rho: float
    t_start: float
    t_end: float
    q: float
    p: float
    r: float
    eps: float
    sigma: float
    m: float
    sup_u: float
    osc_p1: float
    osc_p2: float
    osc_p: float
    osc_pow_p1: float
    osc_pow_p2: float
    osc_pow_p: float
    time_scale: float
    time_scale_pow: float
    mass_ratio: float
    mass_ratio_pow: float
    sup_mass_sigma: float
    inf_mass_2rho: float


def functional_set(
    slab: SpaceTimeSlab,
    center,
    rho: float,
    window,
    *,
    m: float,
    q: float = 2.0,
    p: float = 5.0,
    r: float = 2.0,
    eps: float = 0.1,
    sigma: float = 0.5,
) -> FunctionalSet:
    """Evaluate the full probe family on one cylinder, the power entries at ``0 < m < 1``."""
    if not 0 < m < 1:
        raise ParameterError("m must be in (0, 1)")
    _check_finite(p=p)
    if p < 1:  # as in oscillation(), which the osc entries below equal
        raise ParameterError("p must be >= 1")
    levels = slab.window_indices(*_window(window))
    outer, inner = _probe_nodes(slab.grid, center, rho, sigma)
    stats = _only(_probe_stats(slab, [(center, rho, outer, inner, levels)]))
    M, osc_p1, osc_p2, s_sig, inf_2rho = stats
    cube2, last = Cube(tuple(center), 2.0 * rho), slab.level(int(levels[-1]))
    base = slab.grid.cube_slices(Cube(tuple(center), rho))  # K_rho, read by the last four

    def osc(p, e=0.0, normalized=True):  # oscillation() on the resolved K_2rho x window
        return _power_oscillation(slab, cube2, outer, levels, M, p, e, normalized)[1]

    return FunctionalSet(
        center=tuple(center),
        rho=rho,
        t_start=float(window[0]),
        t_end=float(window[1]),
        q=q,
        p=p,
        r=r,
        eps=eps,
        sigma=sigma,
        m=m,
        sup_u=M,
        osc_p1=osc_p1,
        osc_p2=osc_p2,
        osc_p=osc(p),
        osc_pow_p1=osc(1.0, m, normalized=False),
        osc_pow_p2=osc(2.0, m, normalized=False),
        osc_pow_p=osc(p, m, normalized=False),
        time_scale=_intrinsic_scale(last, base, q, eps),
        time_scale_pow=_intrinsic_scale(last, base, q, eps, m),
        mass_ratio=_degeneracy_ratio(last, base, q, M, r),
        mass_ratio_pow=_degeneracy_ratio(last, base, q, M, r, m),
        sup_mass_sigma=s_sig,
        inf_mass_2rho=inf_2rho,
    )
