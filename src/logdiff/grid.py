"""Uniform tensor grids, fields, space-time slabs, and discrete calculus.

Geometry conventions
--------------------
All cubes are axis-aligned and specified by their *edge length*: ``Cube(y, e)``
is the closed cube centered at ``y`` with side ``e`` (so it spans
``y_i - e/2 .. y_i + e/2`` along every axis); every public constructor and
function takes the edge.

Quadrature is composite trapezoid with nodes on the grid points, which is
exact for affine integrands up to roundoff.  Cube bounds snap to the nearest
grid nodes; a cube whose requested bounds exceed the grid raises
:class:`~logdiff.errors.GeometryError`.

Discrete operators are second order: central differences for the gradient
and the standard ``2*dim + 1`` point stencil for the Laplacian.  The gradient
keeps the grid shape, with one-sided second-order formulas at the grid faces,
because a probe whose cube reaches a face reads it there
(:func:`gradient_at`).  The Laplacian exists at the interior nodes only
(:func:`interior_slices`) and is returned on them.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError

_SNAP_TOL = 1e-9


def _point_str(point) -> str:
    """A point for an error message, six significant digits per coordinate."""
    return "(" + ", ".join(f"{float(c):.6g}" for c in point) + ")"


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a cube of edge ``edge`` centered at ``center``.

    ``npts`` nodes per axis with spacing ``spacing``, so
    ``spacing * (npts - 1) == edge``.  Halving the spacing produces a grid
    whose nodes are a superset of the original nodes (mesh nesting).
    """

    dim: int
    edge: float
    spacing: float
    center: tuple[float, ...]
    npts: int

    @staticmethod
    def regular(dim: int, edge: float, spacing: float, center=None) -> "Grid":
        if dim not in (1, 2, 3):
            raise ParameterError(f"dim must be 1, 2, or 3, got {dim}")
        if not (0 < edge < math.inf and 0 < spacing < math.inf):
            raise ParameterError(f"edge {edge} and spacing {spacing} must be finite and > 0")
        ncells = edge / spacing
        n = int(round(ncells))
        if n < 2 or abs(ncells - n) > _SNAP_TOL * max(1.0, ncells):
            raise ParameterError(
                f"edge {edge} is not an integer multiple (>=2) of spacing {spacing}"
            )
        if center is None:
            center = (0.0,) * dim
        center = tuple(float(c) for c in center)
        if len(center) != dim:
            raise ParameterError("center length does not match dim")
        if not all(math.isfinite(c) for c in center):
            raise ParameterError(f"center {center} must be finite")
        return Grid(dim, float(edge), float(spacing), center, n + 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.npts,) * self.dim

    def axis(self, d: int) -> np.ndarray:
        lo = self.center[d] - self.edge / 2
        return lo + self.spacing * np.arange(self.npts)

    def axes(self) -> list[np.ndarray]:
        return [self.axis(d) for d in range(self.dim)]

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def points(self) -> np.ndarray:
        """All nodes as an array of shape ``(*shape, dim)``."""
        return np.stack(self.meshgrid(), axis=-1)

    def index_of(self, point) -> tuple[int, ...]:
        """Nearest-node multi-index of ``point`` (must lie on the grid)."""
        point = np.asarray(point, dtype=float)
        idx = []
        for d in range(self.dim):
            lo = self.center[d] - self.edge / 2
            j = (point[d] - lo) / self.spacing
            jr = int(round(j)) if math.isfinite(j) else -1  # a NaN or infinite point is off
            if jr < 0 or jr >= self.npts or abs(j - jr) > 1e-6:
                raise GeometryError(f"point {_point_str(point)} is not a grid node")
            idx.append(jr)
        return tuple(idx)

    def block_axes(self, nodes) -> list[np.ndarray]:
        """Coordinates of the block ``nodes`` (one slice per axis): one array
        per axis, shaped to broadcast against the others."""
        return [
            self.axis(d)[s].reshape([-1 if k == d else 1 for k in range(self.dim)])
            for d, s in enumerate(nodes)
        ]

    def cube_slices(self, cube: "Cube") -> tuple[slice, ...]:
        """Index slices of the snapped cube; raises if the cube leaves the grid."""
        out = []
        tol = _SNAP_TOL * max(1.0, self.edge)
        for d in range(self.dim):
            lo = cube.center[d] - cube.edge / 2
            hi = cube.center[d] + cube.edge / 2
            a0 = self.center[d] - self.edge / 2
            a1 = self.center[d] + self.edge / 2
            if not (lo >= a0 - tol and hi <= a1 + tol):  # a NaN center fails too
                raise GeometryError(
                    f"cube edge {cube.edge:.6g} at {_point_str(cube.center)} "
                    f"exceeds grid bounds on axis {d}"
                )
            i0 = max(int(round((lo - a0) / self.spacing)), 0)
            i1 = min(int(round((hi - a0) / self.spacing)), self.npts - 1)
            if i1 <= i0:
                raise GeometryError("cube is smaller than one mesh cell")
            out.append(slice(i0, i1 + 1))
        return tuple(out)


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube given by center and edge length."""

    center: tuple[float, ...]
    edge: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not self.edge > 0:
            raise ParameterError("cube edge must be positive")


def _owned(values) -> np.ndarray:
    """The read-only float array a :class:`Field` or :class:`SpaceTimeSlab` keeps.

    An array that is read-only and owns its memory is taken over as it is:
    its producer hands it over and no longer writes to it.  Anything else (a
    writable array, a view, a list) is copied, so the caller's data can never
    change the container's values.
    """
    values = np.asarray(values, dtype=float)
    if values.flags.writeable or not values.flags.owndata:
        values = values.copy()
        values.setflags(write=False)
    return values


class Field:
    """Scalar samples on a grid at a fixed time.  Values are immutable.

    Ownership: ``values`` that are read-only and own their memory are taken
    over without a copy; any other input is copied (see :class:`SpaceTimeSlab`).
    """

    __slots__ = ("grid", "values", "time")

    def __init__(self, grid: Grid, values, time: float = 0.0):
        values = _owned(values)
        if values.shape != grid.shape:
            raise ParameterError(
                f"field shape {values.shape} does not match grid shape {grid.shape}"
            )
        self.grid = grid
        self.values = values
        self.time = float(time)


class SpaceTimeSlab:
    """Fields on a shared grid at uniformly spaced time levels.

    ``values`` has shape ``(len(times), *grid.shape)`` and is immutable.
    ``meta`` carries solver provenance: the run's settings and its
    deterministic Newton and PCG counters (``schema/columns.md``).

    Ownership: the slab holds one buffer.  ``values`` (and ``times``) that
    are read-only and own their memory are taken over without a copy, so a
    producer that is done writing its array marks it read-only and hands it
    over; a writable array, a read-only view of a writable base or any other
    input is copied.  Taking over never changes the values or the bytes
    :func:`write_slab` puts on disk.
    """

    __slots__ = ("grid", "times", "values", "meta")

    def __init__(self, grid: Grid, times, values, meta: dict | None = None):
        times = _owned(times)
        values = _owned(values)
        if times.ndim != 1 or times.size < 2:
            raise ParameterError("slab needs at least two time levels")
        if not np.isfinite(times).all():  # an inf or NaN time passes both checks below
            raise ParameterError("slab times must be finite")
        steps = np.diff(times)
        if steps.min() <= 0:
            raise ParameterError("slab times must increase")
        if (steps.max() - steps.min()) > 1e-9 * max(1.0, steps.max()):
            raise ParameterError("slab time levels must be uniformly spaced")
        if values.shape != (times.size,) + grid.shape:
            raise ParameterError("slab values shape does not match times x grid")
        self.grid = grid
        self.times = times
        self.values = values
        self.meta = dict(meta or {})

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def nlevels(self) -> int:
        return int(self.times.size)

    def level(self, k: int) -> Field:
        """Level ``k`` as a Field viewing the slab's read-only values, not a copy."""
        field = Field.__new__(Field)
        field.grid, field.values, field.time = self.grid, self.values[k], float(self.times[k])
        return field

    def level_index(self, t: float) -> int:
        """Index of the stored level nearest to ``t`` (must be within dt/2)."""
        k = (t - self.times[0]) / self.dt
        k = int(round(k)) if math.isfinite(k) else -1  # a NaN or infinite t is outside
        if k < 0 or k >= self.nlevels:
            raise GeometryError(f"time {t:.6g} outside slab range")
        if abs(self.times[k] - t) > 0.51 * self.dt:
            raise GeometryError(f"time {t:.6g} does not match a stored level")
        return k

    def window_indices(self, t_start: float, t_end: float) -> np.ndarray:
        """The stored levels of ``(t_start, t_end]`` by the one rule every measurement
        uses: closed and roundoff tolerant, so a window that ends on a stored level
        holds it, and ``(t, t]`` holds the level at ``t``.  GeometryError if the
        window holds none."""
        tol = 1e-9 * max(1.0, abs(self.times[-1]))
        # times increase, so the window's levels are one run of indices
        lo = int(np.searchsorted(self.times, t_start - tol, "left"))
        hi = int(np.searchsorted(self.times, t_end + tol, "right"))
        if hi <= lo or math.isnan(t_end):  # a NaN end sorts past every level
            raise GeometryError(
                f"window ({t_start:.6g}, {t_end:.6g}] contains no stored levels"
            )
        return np.arange(lo, hi)


class Cutoff:
    """C1 cutoff: 1 on the cube of edge ``rho``, 0 outside edge ``(1+sigma)*rho``.

    The profile is a cubic smoothstep in the sup-norm radial coordinate over
    the gap of width ``sigma*rho/2``; it is C1 with vanishing slope at both
    ends of the ramp, which keeps discrete Laplacians of the cutoff bounded
    and makes the divergence diagnostic decay at first order in ``h``.  The
    sharp slope bound for this profile is ``3/(sigma*rho)``; the discrete
    gradient satisfies ``max|D zeta| <= 3/(sigma*rho) * (1 + c*h)``.

    ``sigma = 0`` is accepted as the degenerate sharp-indicator limit (used by
    identity checks where the ramp must carry zero mass); its slope bound is
    infinite.
    """

    __slots__ = ("center", "rho", "sigma")

    def __init__(self, center, rho: float, sigma: float):
        if not rho > 0:
            raise ParameterError("cutoff rho must be positive")
        if not 0.0 <= sigma < 1.0:
            raise ParameterError("cutoff sigma must lie in [0, 1)")
        self.center = tuple(float(c) for c in center)
        self.rho = float(rho)
        self.sigma = float(sigma)

    @property
    def support_edge(self) -> float:
        return (1.0 + self.sigma) * self.rho

    def support_cube(self) -> Cube:
        return Cube(self.center, self.support_edge)

    def eval(self, sup_dist: np.ndarray) -> np.ndarray:
        """Profile value given sup-norm distance from the center."""
        lo = self.rho / 2
        hi = self.support_edge / 2
        if self.sigma == 0.0:
            return np.where(sup_dist <= lo * (1 + 1e-12), 1.0, 0.0)
        tau = np.clip((sup_dist - lo) / (hi - lo), 0.0, 1.0)
        return 1.0 - tau * tau * (3.0 - 2.0 * tau)

    def block(self, grid: Grid, nodes) -> np.ndarray:
        """Profile values at the nodes of the block ``nodes`` (one slice per axis)."""
        coords = grid.block_axes(nodes)
        dist = np.abs(coords[0] - self.center[0])
        for x, c in zip(coords[1:], self.center[1:]):
            dist = np.maximum(dist, np.abs(x - c))
        return self.eval(dist)

    def sample(self, grid: Grid) -> Field:
        return Field(grid, self.block(grid, (slice(0, grid.npts),) * grid.dim))


@functools.lru_cache(maxsize=None)
def _trapezoid_weights(n: int) -> np.ndarray:
    """Node weights of the composite trapezoid rule; a single node weighs 0.
    Cached, so read-only."""
    w = np.ones(n)
    w[0] -= 0.5
    w[-1] -= 0.5
    w.setflags(write=False)
    return w


def _trapezoid(values: np.ndarray, spacing: float, lead: int = 0) -> np.ndarray:
    """Composite-trapezoid integral of ``values`` over every axis after the first ``lead``.

    Nodes are ``spacing`` apart along each integrated axis.  The rule is
    separable, so the last axis is contracted with its 1D weights until only
    ``values.shape[:lead]`` is left; a NaN sample makes its integral NaN.
    """
    out = values
    for n in reversed(values.shape[lead:]):
        out = out @ _trapezoid_weights(n)
    return out * spacing ** (values.ndim - lead)


@functools.lru_cache(maxsize=64)
def _flat_trapezoid_weights(shape: tuple) -> np.ndarray:
    """Trapezoid weights of a node block of ``shape``, flattened: ``values.reshape(k, -1)
    @ w * spacing ** len(shape)`` is :func:`_trapezoid`, in one product.  Read-only."""
    w = functools.reduce(np.multiply.outer, map(_trapezoid_weights, shape), np.ones(())).ravel()
    w.setflags(write=False)
    return w


def integrate(values: np.ndarray, grid: Grid, cube: Cube) -> float:
    """Composite-trapezoid integral of ``values`` (sampled on ``grid``) over
    ``cube`` (snapped to nodes).  Exact for affine integrands up to roundoff.
    """
    values = np.asarray(values, dtype=float)
    return float(_trapezoid(values[grid.cube_slices(cube)], grid.spacing))


def _block_volume(nodes, spacing: float) -> float:
    """Volume of the block of nodes ``nodes`` (one slice per axis)."""
    return math.prod((s.stop - 1 - s.start) * spacing for s in nodes)


def gradient_at(values: np.ndarray, grid: Grid, nodes) -> tuple[np.ndarray, ...]:
    """Central-difference gradient of ``values`` at the block ``nodes`` only, one
    fresh array per axis.

    ``nodes`` slices the last ``grid.dim`` axes, so stacked levels of shape
    ``(levels, *grid.shape)`` are differentiated level by level.  Along each
    axis the block's differences read one node beyond it where the grid has
    one, and at a grid face use the one-sided second-order formula, each
    written as ``numpy.gradient(..., edge_order=2)`` writes it, so the result
    equals numpy's gradient of the whole level at the block bit for bit.
    """
    h, n = grid.spacing, grid.npts
    grads = []
    for d, s in enumerate(nodes):

        def f(lo, hi):  # the block, moved to indices lo:hi along axis d
            return values[(Ellipsis, *nodes[:d], slice(lo, hi), *nodes[d + 1 :])]

        lo, hi = max(s.start, 1), min(s.stop, n - 1)
        parts = [(f(lo + 1, hi + 1) - f(lo - 1, hi - 1)) / (2.0 * h)]
        if s.start == 0:
            parts.insert(0, (-1.5 / h) * f(0, 1) + (2.0 / h) * f(1, 2) + (-0.5 / h) * f(2, 3))
        if s.stop == n:
            high = (0.5 / h) * f(n - 3, n - 2) + (-2.0 / h) * f(n - 2, n - 1)
            parts.append(high + (1.5 / h) * f(n - 1, n))
        axis = values.ndim - grid.dim + d
        grads.append(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis))
    return tuple(grads)


def squared_gradient_at(values: np.ndarray, grid: Grid, nodes, a=None) -> np.ndarray:
    """``sum_d (a_d D_d values)^2`` at the block ``nodes``, ``a = 1`` if None: the fresh
    :func:`gradient_at` arrays are weighted by ``a[d]`` (a number, or an array that
    broadcasts against them), squared and summed in place, left to right, into the first."""
    sq, *_ = grads = gradient_at(values, grid, nodes)
    for d, g in enumerate(grads):
        if a is not None:
            g *= a[d]
        np.square(g, out=g)
        if d:
            sq += g
    return sq


def laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Standard ``2*dim + 1`` point Laplacian of ``values`` at its interior nodes.

    Differences the last ``grid.dim`` axes (nodes ``grid.spacing`` apart),
    each of which loses its two end nodes: on a whole level the result holds
    the :func:`interior_slices` nodes.  Leading axes (stacked levels) are
    treated independently.
    """
    values = np.asarray(values, dtype=float)
    inner = (slice(1, -1),) * grid.dim

    def shifted(d, index):  # the interior nodes, moved to ``index`` along axis d
        return values[(Ellipsis, *inner[:d], index, *inner[d + 1 :])]

    return sum(
        shifted(d, slice(2, None)) - 2 * shifted(d, inner[d]) + shifted(d, slice(0, -2))
        for d in range(grid.dim)
    ) / grid.spacing**2


def interior_slices(grid: Grid) -> tuple[slice, ...]:
    """Slices selecting the nodes off the boundary (never empty: ``npts >= 3``)."""
    return (slice(1, grid.npts - 1),) * grid.dim


# ---------------------------------------------------------------------------
# serialization: flat binary layout, bit-exact round trip
# ---------------------------------------------------------------------------

_SLAB_MAGIC = b"LGS1"


def _pack_grid(grid: Grid) -> bytes:
    parts = [struct.pack("<Bi", grid.dim, grid.npts), struct.pack("<d", grid.spacing)]
    parts.append(struct.pack(f"<{grid.dim}d", *grid.center))
    parts.append(struct.pack("<d", grid.edge))
    return b"".join(parts)


def _unpack(fh, fmt: str, path, size: int) -> tuple:
    """The fields ``fmt`` at the file position; ParameterError if the file ends first."""
    at, n = fh.tell(), struct.calcsize(fmt)
    data = fh.read(n)
    if len(data) != n:
        raise ParameterError(f"slab file {path} has {size} bytes; its header needs at least {at+n}")
    return struct.unpack(fmt, data)


def _unpack_grid(fh, path, size: int) -> Grid:
    """The grid of the header at the file position, checked like :meth:`Grid.regular`."""
    dim, npts, spacing = _unpack(fh, "<Bid", path, size)
    *center, edge = _unpack(fh, f"<{dim + 1}d", path, size)
    try:
        grid = Grid.regular(dim, edge, spacing, center)
        if grid.npts != npts:
            raise ParameterError(
                f"{npts} nodes per axis, but edge {edge} and spacing {spacing} give {grid.npts}"
            )
    except ParameterError as exc:
        raise ParameterError(f"{path} has a corrupted grid header: {exc}") from None
    return grid


def _read_values(fh, off: int, shape, path) -> np.ndarray:
    """The ``<f8`` block of ``shape`` at byte ``off``, read straight from the file into
    one new array, which is returned read-only (the slab takes it over)."""
    values = np.empty(shape, dtype="<f8")
    fh.seek(off)
    if fh.readinto(memoryview(values).cast("B")) != values.nbytes:
        raise ParameterError(f"{path} ended while its values were read")
    values.setflags(write=False)
    return values


def _write_values(fh, values: np.ndarray) -> None:
    """Write ``values`` as ``<f8`` in C order from the array's own buffer."""
    fh.write(np.ascontiguousarray(values, dtype="<f8").data)


def write_slab(slab: SpaceTimeSlab, path) -> None:
    meta_blob = json.dumps(slab.meta, sort_keys=True, default=str).encode()
    with open(path, "wb") as fh:
        fh.write(_SLAB_MAGIC)
        fh.write(_pack_grid(slab.grid))
        fh.write(struct.pack("<i", slab.nlevels))
        _write_values(fh, slab.times)
        fh.write(struct.pack("<i", len(meta_blob)))
        fh.write(meta_blob)
        _write_values(fh, slab.values)


def read_slab(path) -> SpaceTimeSlab:
    """Read a slab written by :func:`write_slab`, front to back through one file object.

    The header is checked against the file length before any array is
    allocated: a truncated or padded file raises ParameterError naming its
    byte count and the count its header needs.  Only then are the times and
    the values read, straight into the arrays the slab keeps.  Metadata that
    is not a JSON object raises ParameterError too.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != _SLAB_MAGIC:
            raise ParameterError(f"{path} is not a slab file")
        grid = _unpack_grid(fh, path, size)
        (nlevels,) = _unpack(fh, "<i", path, size)
        times_at = fh.tell()
        fh.seek(times_at + 8 * max(nlevels, 0))
        (mlen,) = _unpack(fh, "<i", path, size)
        meta_at = fh.tell()
        expected = meta_at + mlen + 8 * nlevels * grid.npts**grid.dim
        if nlevels < 2 or mlen < 0 or size != expected:
            raise ParameterError(
                f"slab file {path} has {size} bytes, but its header ({nlevels} "
                f"levels on a {grid.shape} grid, {mlen} metadata bytes) needs {expected}"
            )
        times = _read_values(fh, times_at, (nlevels,), path)
        fh.seek(meta_at)
        try:
            meta = json.loads(fh.read(mlen).decode())
        except ValueError as exc:
            raise ParameterError(f"slab file {path} has unreadable metadata: {exc}")
        if not isinstance(meta, dict):
            raise ParameterError(
                f"slab file {path} has metadata that is not a JSON object: {type(meta).__name__}"
            )
        values = _read_values(fh, meta_at + mlen, (nlevels,) + grid.shape, path)
    return SpaceTimeSlab(grid, times, values, meta=meta)
