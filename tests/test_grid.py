"""Grid, cube, cutoff, calculus helper, and serialization behavior."""

import struct

import numpy as np
import pytest

from logdiff import (
    Cube,
    Cutoff,
    Field,
    GeometryError,
    Grid,
    ParameterError,
    average,
    cube_volume,
    gradient,
    integrate,
    laplacian,
    read_slab,
    write_slab,
)
from logdiff.grid import SpaceTimeSlab

from conftest import peak_bytes


def test_regular_grid_basics():
    g = Grid.regular(2, 1.0, 1.0 / 8)
    assert g.shape == (9, 9)
    assert g.spacing == pytest.approx(0.125)
    ax = g.axis(0)
    assert ax[0] == pytest.approx(-0.5)
    assert ax[-1] == pytest.approx(0.5)
    # points() keeps the grid shape, one coordinate vector per node
    pts = g.points()
    assert pts.shape == (9, 9, 2)
    assert np.allclose(pts[4, 4], (0.0, 0.0))
    assert (g.axis(0)[4], g.axis(1)[4]) == pytest.approx((0.0, 0.0))
    assert g.index_of((0.0, 0.0)) == (4, 4)


def test_regular_grid_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        Grid.regular(4, 1.0, 0.1)
    with pytest.raises(ParameterError):
        Grid.regular(2, 1.0, 0.3)  # not an integer cell count
    with pytest.raises(ParameterError):
        Grid.regular(2, 1.0, -0.1)


def test_cube_slices_snap_and_reject():
    g = Grid.regular(2, 1.0, 1.0 / 8)
    sl = g.cube_slices(Cube((0.0, 0.0), 0.5))
    assert all(s.stop - s.start == 5 for s in sl)
    with pytest.raises(GeometryError):
        g.cube_slices(Cube((0.0, 0.0), 3.0))
    with pytest.raises(GeometryError):
        g.cube_slices(Cube((10.0, 0.0), 0.25))


def _geometry_at(method, x):
    grid = Grid.regular(2, 1.0, 1.0 / 8)
    if method == "cube_slices":
        return grid.cube_slices(Cube((x, 0.0), 0.25))
    if method == "index_of":
        return grid.index_of((0.0, x))
    slab = SpaceTimeSlab(grid, [0.0, 0.1], np.ones((2,) + grid.shape))
    return slab.level_index(x)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["cube_slices", "index_of", "level_index"])
def test_geometry_rejects_a_coordinate_that_is_not_finite(method, x):
    # int(round(nan)) raised ValueError and round(inf) OverflowError, so a NaN probe
    # centre or time escaped the CLI's per-probe GeometryError handling
    _geometry_at(method, 0.0)
    with pytest.raises(GeometryError):
        _geometry_at(method, x)


def test_integrate_exact_on_constants_and_linears():
    g = Grid.regular(2, 1.0, 1.0 / 16)
    ones = np.ones(g.shape)
    for edge in (0.25, 0.5, 1.0):
        cube = Cube((0.0, 0.0), edge)
        assert integrate(ones, g, cube) == pytest.approx(edge**2, rel=1e-14)
        assert cube_volume(g, cube) == pytest.approx(edge**2, rel=1e-14)
        assert average(ones, g, cube) == pytest.approx(1.0, rel=1e-14)
    # trapezoid weights integrate affine functions exactly
    X, Y = g.meshgrid()
    lin = 2.0 * X + 3.0 * Y + 1.0
    assert integrate(lin, g, Cube((0.0, 0.0), 1.0)) == pytest.approx(1.0, rel=1e-12)


def test_gradient_exact_on_affine():
    g = Grid.regular(2, 1.0, 1.0 / 8)
    X, Y = g.meshgrid()
    gx, gy = gradient(2.0 * X - 0.5 * Y, g)
    assert np.allclose(gx, 2.0, atol=1e-12)
    assert np.allclose(gy, -0.5, atol=1e-12)


def test_laplacian_exact_on_quadratic_interior():
    g = Grid.regular(2, 1.0, 1.0 / 8)
    X, Y = g.meshgrid()
    lap = laplacian(X**2 + Y**2, g)
    assert lap.shape == (7, 7)  # the interior nodes only
    assert np.allclose(lap, 4.0, atol=1e-9)


def test_cutoff_profile_and_slope_bound():
    cut = Cutoff((0.0, 0.0), 1.0, 0.5)
    g = Grid.regular(2, 2.0, 1.0 / 32)
    z = cut.sample(g).values
    sl_in = g.cube_slices(Cube((0.0, 0.0), 1.0))
    sl_sup = g.cube_slices(cut.support_cube())
    assert np.all(z[sl_in] == 1.0)
    outside = z.copy()
    outside[sl_sup] = 0.0
    assert np.all(outside == 0.0)
    assert z.min() >= 0.0 and z.max() <= 1.0
    # the discrete gradient approaches the slope bound 3/(sigma*rho) from below
    gx, gy = gradient(z, g)
    gmax = float(np.sqrt(gx**2 + gy**2).max())
    assert gmax <= 3.0 / (0.5 * 1.0) * (1.0 + 2.0 * g.spacing)


def test_cutoff_sigma_zero_is_indicator():
    cut = Cutoff((0.0, 0.0), 1.0, 0.0)
    g = Grid.regular(2, 2.0, 1.0 / 16)
    z = cut.sample(g).values
    sl = g.cube_slices(Cube((0.0, 0.0), 1.0))
    assert np.all(z[sl] == 1.0)
    total = z.sum()
    assert total == pytest.approx(z[sl].sum())


def test_field_immutability_and_slab_indexing():
    g = Grid.regular(2, 1.0, 0.25)
    f = Field(g, np.ones(g.shape), time=0.5)
    with pytest.raises((ValueError, RuntimeError)):
        f.values[0, 0] = 2.0
    times = np.array([0.0, 0.1, 0.2])
    vals = np.stack([np.full(g.shape, 1.0 + k) for k in range(3)])
    slab = SpaceTimeSlab(g, times, vals, meta={})
    assert slab.nlevels == 3
    assert slab.dt == pytest.approx(0.1)
    assert slab.level(1).time == pytest.approx(0.1)
    assert slab.level_index(0.2) == 2
    assert list(slab.window_indices(0.05, 0.2)) == [1, 2]
    with pytest.raises(GeometryError):
        slab.level_index(0.35)
    with pytest.raises(GeometryError):
        slab.window_indices(0.31, 0.32)


def test_slab_level_is_a_read_only_view():
    g = Grid.regular(2, 1.0, 0.25)
    vals = np.stack([np.full(g.shape, 1.0 + k) for k in range(3)])
    slab = SpaceTimeSlab(g, np.array([0.0, 0.1, 0.2]), vals)
    level = slab.level(2)
    assert isinstance(level, Field) and level.grid is g and level.time == 0.2
    assert np.shares_memory(level.values, slab.values)
    assert np.array_equal(level.values, slab.values[2])
    assert not level.values.flags.writeable
    with pytest.raises(ValueError):
        level.values[0, 0] = 0.0
    with pytest.raises(ValueError):
        level.values.setflags(write=True)


def read_only(values, own=True):
    """``values`` as a read-only array that owns its memory, or (``own=False``)
    as a read-only view of a writable base."""
    out = np.array(values, dtype=float)
    if not own:
        out = out.view()
    out.setflags(write=False)
    return out


@pytest.mark.parametrize("make", ["slab", "field"])
def test_containers_take_over_only_read_only_arrays_they_own(make):
    g = Grid.regular(2, 1.0, 0.25)
    if make == "slab":
        base = np.stack([np.full(g.shape, 1.0 + k) for k in range(3)])
        build = lambda values: SpaceTimeSlab(g, [0.0, 0.1, 0.2], values).values  # noqa: E731
    else:
        base = np.full(g.shape, 2.0)
        build = lambda values: Field(g, values).values  # noqa: E731
    for given, taken in (
        (base, False),  # writable: copied
        (read_only(base), True),  # read-only and owns its memory: taken over
        (read_only(base, own=False), False),  # read-only view of a writable base
    ):
        kept = build(given)
        assert np.shares_memory(kept, given) is taken
        assert not kept.flags.writeable
        assert np.array_equal(kept, given)
    # a copy is the container's own: writing to the writable input changes nothing
    kept = build(base)
    base[...] = -1.0
    assert kept.min() >= 1.0


def test_slab_times_follow_the_same_rule():
    g = Grid.regular(2, 1.0, 0.25)
    times = read_only([0.0, 0.1, 0.2])
    slab = SpaceTimeSlab(g, times, np.ones((3,) + g.shape))
    assert np.shares_memory(slab.times, times)
    writable = np.array([0.0, 0.1, 0.2])
    assert not np.shares_memory(SpaceTimeSlab(g, writable, slab.values).times, writable)


def test_slab_io_roundtrip(tmp_path):
    g = Grid.regular(2, 0.5, 1.0 / 16)
    rng = np.random.default_rng(1)
    times = np.linspace(0.0, 0.3, 4)
    vals = rng.uniform(0.5, 2.0, (4,) + g.shape)
    slab = SpaceTimeSlab(g, times, vals, meta={"source": "test", "k": 3})
    path = tmp_path / "s.slab"
    write_slab(slab, path)
    back = read_slab(path)
    assert np.array_equal(back.times, slab.times)
    assert np.array_equal(back.values, slab.values)
    assert back.meta["source"] == "test"
    assert back.meta["k"] == 3


@pytest.mark.parametrize("dim", [2, 3])
def test_slab_file_read_and_written_back_keeps_its_bytes(tmp_path, dim):
    g = Grid.regular(dim, 0.5, 1.0 / 8, center=(0.25,) * dim)
    rng = np.random.default_rng(dim)
    slab = SpaceTimeSlab(
        g, np.linspace(0.0, 0.3, 4), rng.uniform(0.5, 2.0, (4,) + g.shape), meta={"dim": dim}
    )
    first, second = tmp_path / "a.slab", tmp_path / "b.slab"
    write_slab(slab, first)
    back = read_slab(first)
    assert not back.values.flags.writeable and back.values.flags.owndata
    write_slab(back, second)
    assert first.read_bytes() == second.read_bytes()
    # the file is the header, then the values in C order as little-endian float64
    body = first.read_bytes()[-slab.values.nbytes :]
    assert body == slab.values.astype("<f8").tobytes()


def big_slab(levels=64):
    """A 65^2 x ``levels`` slab, large enough that fixed costs of the IO are
    small beside its values."""
    g = Grid.regular(2, 1.0, 1.0 / 64)
    values = np.random.default_rng(3).uniform(0.5, 2.0, (levels,) + g.shape)
    return SpaceTimeSlab(g, np.linspace(0.0, 1.0, levels), values, meta={"k": 1})


def test_write_slab_makes_no_copy_of_the_values(tmp_path):
    slab = big_slab()
    _, peak = peak_bytes(write_slab, slab, tmp_path / "s.slab")
    assert peak <= 0.05 * slab.values.nbytes


def test_read_slab_reads_into_the_one_array_it_keeps(tmp_path):
    path = tmp_path / "s.slab"
    write_slab(big_slab(), path)
    back, peak = peak_bytes(read_slab, path)
    assert peak <= 1.1 * back.values.nbytes
    assert back.values.flags.owndata and not back.values.flags.writeable


def test_readers_allocate_nothing_before_the_size_check(tmp_path):
    slab = big_slab()
    write_slab(slab, tmp_path / "s.slab")
    data = (tmp_path / "s.slab").read_bytes()
    # the level count follows the magic and the dim = 2 grid header (37 bytes)
    cases = [data[:41] + struct.pack("<i", 2**31 - 1) + data[45:], data + bytes(8)]
    for k, bad in enumerate(cases):
        path = tmp_path / f"bad-{k}"
        path.write_bytes(bad)

        def attempt():
            with pytest.raises(ParameterError, match=f"has {len(bad)} bytes"):
                read_slab(path)

        _, peak = peak_bytes(attempt)
        assert peak <= 0.05 * slab.values.nbytes


def test_read_slab_rejects_truncated_files(tmp_path):
    g = Grid.regular(2, 0.5, 1.0 / 16)
    slab = SpaceTimeSlab(g, np.linspace(0.0, 0.3, 4), np.ones((4,) + g.shape), meta={"k": 1})
    path = tmp_path / "s.slab"
    write_slab(slab, path)
    full = path.read_bytes()
    header = full[: len(full) - 8 * 4 * 9**2]
    cases = {
        "body": (full[:-8], len(full)),
        "header-only": (header, len(full)),
        "grid-only": (header[:20], None),
        "padded": (full + bytes(8), len(full)),
    }
    for name, (data, expected) in cases.items():
        p = tmp_path / f"{name}.slab"
        p.write_bytes(data)
        with pytest.raises(ParameterError) as err:
            read_slab(p)
        msg = str(err.value)
        assert f"has {len(data)} bytes" in msg
        assert f"needs {expected}" in msg if expected else "at least" in msg


def write_slab_with_metadata(path, blob: bytes) -> None:
    """A valid slab file whose metadata bytes are ``blob``."""
    g = Grid.regular(2, 0.5, 1.0 / 4)
    write_slab(SpaceTimeSlab(g, np.linspace(0.0, 0.3, 4), np.ones((4,) + g.shape), meta={"k": 1}), path)
    full, old = path.read_bytes(), b'{"k": 1}'
    at = full.index(old)
    path.write_bytes(full[: at - 4] + struct.pack("<i", len(blob)) + blob + full[at + len(old) :])


@pytest.mark.parametrize("blob", [b"[1, 2]", b"12", b"[]", b'"run"', b"null"])
def test_read_slab_rejects_metadata_that_is_not_an_object(tmp_path, blob):
    # [1, 2] and 12 raised TypeError from dict(); [] was read as {}
    path = tmp_path / "s.slab"
    write_slab_with_metadata(path, blob)
    with pytest.raises(ParameterError, match="metadata that is not a JSON object"):
        read_slab(path)
    write_slab_with_metadata(path, b'{"k": [1, 2]}')
    assert read_slab(path).meta == {"k": [1, 2]}


@pytest.mark.parametrize("dim", [2, 3])
def test_read_slab_rejects_a_file_cut_anywhere_in_its_header(tmp_path, dim):
    g = Grid.regular(dim, 0.5, 1.0 / 4)
    slab = SpaceTimeSlab(g, np.linspace(0.0, 0.3, 4), np.ones((4,) + g.shape), meta={"k": 1})
    path = tmp_path / "s.slab"
    write_slab(slab, path)
    full = path.read_bytes()
    # every cut from the empty file up to the header alone, times and metadata included
    for n in range(len(full) - slab.values.nbytes + 1):
        path.write_bytes(full[:n])
        with pytest.raises(ParameterError) as err:  # no struct.error or OSError escapes
            read_slab(path)
        assert type(err.value) is ParameterError
        assert ("is not a slab file" if n < 4 else f"has {n} bytes") in str(err.value)


# Header fields written after the 4-byte magic: dim (B), nodes per axis (i),
# spacing (d), center (dim x d), edge (d).  Offsets below are for dim = 2.
_HEADER = {"nodes": (5, "<i"), "spacing": (9, "<d"), "center": (17, "<d"), "edge": (33, "<d")}
CORRUPT_HEADERS = {
    "spacing-zero": ("spacing", 0.0),
    "spacing-negative": ("spacing", -0.125),
    "spacing-nan": ("spacing", float("nan")),
    "spacing-off-grid": ("spacing", 0.3),  # 9 nodes on edge 1 need 0.125
    "edge-nan": ("edge", float("nan")),
    "edge-negative": ("edge", -1.0),
    "center-inf": ("center", float("inf")),
    "nodes": ("nodes", 10),
}


def corrupt_header(data: bytes, name: str) -> bytes:
    field, value = CORRUPT_HEADERS[name]
    offset, fmt = _HEADER[field]
    return data[:offset] + struct.pack(fmt, value) + data[offset + struct.calcsize(fmt) :]


@pytest.mark.parametrize("name", sorted(CORRUPT_HEADERS))
def test_read_rejects_corrupted_grid_headers(tmp_path, name):
    g = Grid.regular(2, 1.0, 1.0 / 8)
    path = tmp_path / "s.slab"
    write_slab(SpaceTimeSlab(g, [0.0, 0.5], np.ones((2,) + g.shape)), path)
    bad = tmp_path / f"{name}.slab"
    bad.write_bytes(corrupt_header(path.read_bytes(), name))
    with pytest.raises(ParameterError, match="corrupted grid header") as err:
        read_slab(bad)
    assert str(bad) in str(err.value)


def test_read_rejects_wrong_magic(tmp_path):
    p = tmp_path / "junk.slab"
    p.write_bytes(b"XXXX garbage")
    with pytest.raises(ParameterError):
        read_slab(p)


def test_laplacian_of_stacked_3d_levels_is_interior_only():
    g = Grid.regular(3, 1.0, 1.0 / 6)
    X, Y, Z = g.meshgrid()
    levels = np.stack([X**2, Y**2 + Z**2, np.zeros_like(X)])
    lap = laplacian(levels, g)
    assert lap.shape == (3, 5, 5, 5)
    assert np.allclose(lap, np.array([2.0, 4.0, 0.0])[:, None, None, None], atol=1e-9)
