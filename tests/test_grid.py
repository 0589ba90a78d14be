import itertools
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam.grid
import oracles
from amalgam import (
    ConfigurationError,
    DiscreteFunction,
    EmptyRegionWarning,
    ExpressionError,
    Grid,
    PreconditionError,
    Region,
    RegionFamily,
    YoungFunction,
    covering_region,
    holder_check,
    local_lp_norm,
    local_weak_lp_norm,
    luxemburg_norm,
    muckenhoupt_characteristic,
    region_family,
    region_mean,
    sample,
    weight_from_expression,
    write_function_csv,
)
from amalgam.grid import node_batches, window_sums


def test_grid_basic_geometry():
    g = Grid(dim=1, half_width=4.0, points_per_axis=4096)
    assert g.spacing == 8.0 / 4096
    assert g.cell_volume == g.spacing
    assert g.n_nodes == 4096
    assert g.axis[0] == -4.0
    assert g.axis[-1] == pytest.approx(4.0 - g.spacing)
    assert g.coords.shape == (4096, 1)


def test_grid_2d_geometry():
    g = Grid(dim=2, half_width=2.0, points_per_axis=16)
    assert g.n_nodes == 256
    assert g.cell_volume == pytest.approx(g.spacing**2)
    # x index major: the first 16 rows share x = -2
    assert np.all(g.coords[:16, 0] == -2.0)
    assert np.allclose(g.coords[:16, 1], g.axis)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid(3, 4.0, 256)
    with pytest.raises(ConfigurationError):
        Grid(1, 4.0, 300)  # not a power of two
    with pytest.raises(ConfigurationError):
        Grid(1, 4.0, 4)  # too coarse
    with pytest.raises(ConfigurationError):
        Grid(1, -1.0, 256)
    for half_width in (math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="finite"):
            Grid(1, half_width, 256)


def test_node_index_roundtrip(small_grid):
    rng = np.random.default_rng(7)
    for _ in range(50):
        i = int(rng.integers(0, small_grid.n_nodes))
        point = small_grid.coords[i]
        assert small_grid.node_index(point) == i


def test_node_index_2d(tiny_grid_2d):
    g = tiny_grid_2d
    for i in (0, 17, 255):
        assert g.node_index(g.coords[i]) == i
    # an [m, dim] array of points gives each point's index, clipped to the box
    far = np.array([[-9.0, 9.0], [9.0, -9.0]])
    far_index = [g.node_index(tuple(x)) for x in far]
    assert g.node_index(g.coords).tolist() == list(range(g.n_nodes))
    assert g.node_index(far).tolist() == far_index == [g.points_per_axis - 1, g.n_nodes - g.points_per_axis]


def test_region_membership_is_strict(small_grid):
    g = small_grid
    # pick a radius that lands exactly on a node: the boundary node is out
    r = 16 * g.spacing
    reg = Region("ball", (0.0,), r)
    idx = reg.node_indices(g)
    dist = np.abs(g.axis[idx])
    assert np.all(dist < r)
    assert not np.any(np.isclose(dist, r))
    assert reg.node_indices(g).size == 31  # 15 per side plus the center


def test_region_matches_direct_scan(small_grid, tiny_grid_2d):
    for g in (small_grid, tiny_grid_2d):
        rng = np.random.default_rng(3)
        for _ in range(20):
            center = tuple(rng.uniform(-1.5, 1.5, size=g.dim))
            size = float(rng.uniform(0.2, 1.0))
            for shape in ("ball", "cube"):
                reg = Region(shape, center, size)
                got = reg.node_indices(g)
                want = oracles.region_nodes(g, center, size, shape)
                assert np.array_equal(got, want)


def _ball_runs_match_the_scan(grid, centers, size):
    """grid._runs of balls of one size against the scan dx**2 + dy**2 < size**2."""
    owner, start, stop = amalgam.grid._runs("ball", np.array(centers), size, grid)
    x, y = grid.coords.T
    for k, (cx, cy) in enumerate(centers):
        want = np.flatnonzero((x - cx) ** 2 + (y - cy) ** 2 < size**2)
        assert np.array_equal(amalgam.grid._run_nodes(start[owner == k], stop[owner == k]), want)


def test_ball_runs_slide_their_ends_onto_the_exact_test(monkeypatch):
    # the ends estimated from sqrt(size**2 - dx**2) miss by a node where the
    # boundary passes through nodes on a non-dyadic spacing: at nodes (32, 17)
    # and size 5h two ends move, onto the scan
    g = Grid(dim=2, half_width=0.3, points_per_axis=64)
    center = (0.0, -0.140625)
    assert g.node_index(center) == 32 * 64 + 17
    moved, slide = [], amalgam.grid._slide

    def counting(j, step, move):
        out = slide(j, step, move)
        moved.append(int(np.count_nonzero(out != j)))
        return out

    monkeypatch.setattr(amalgam.grid, "_slide", counting)
    _ball_runs_match_the_scan(g, [center], 5 * g.spacing)
    assert sum(moved) == 2


@pytest.mark.parametrize("half_width", [0.3, 3.0])
@pytest.mark.parametrize("legs", [5, 13, 17])
def test_ball_runs_match_the_scan_on_pythagorean_sizes(half_width, legs):
    # hypotenuses of 3-4-5, 5-12-13 and 8-15-17 cells put nodes on the boundary
    g = Grid(dim=2, half_width=half_width, points_per_axis=64)
    _ball_runs_match_the_scan(g, g.coords[::7], legs * g.spacing)


def test_region_dilate_and_fits():
    g = Grid(dim=1, points_per_axis=256)
    reg = Region("ball", (1.0,), 1.0)
    assert reg.dilate(2.0).size == 2.0
    assert reg.fits_box(g)
    assert reg.dilate(3.0).fits_box(g)  # |1| + 3 = 4, touching allowed
    assert not reg.dilate(3.1).fits_box(g)


def test_region_validation(small_grid):
    with pytest.raises(ConfigurationError):
        Region("disk", (0.0,), 1.0)
    with pytest.raises(ConfigurationError):
        Region("ball", (0.0,), 0.0)
    with pytest.raises(ConfigurationError):
        Region("ball", (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ConfigurationError, match="region and grid dimensions"):
        Region("ball", (0.0, 0.0), 1.0).node_indices(small_grid)
    with pytest.raises(ConfigurationError, match="center_stride"):
        region_family(small_grid, (1.0,), center_stride=0)
    for sizes in ((math.inf,), (0.5, math.inf), (math.nan,)):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            region_family(small_grid, sizes, center_stride=64)


@pytest.mark.parametrize("call, message", [
    (lambda g, g2: holder_check(DiscreteFunction(g, np.ones(g.n_nodes)),
                                DiscreteFunction(g2, np.ones(g2.n_nodes))), "grids do not match"),
    (lambda g, g2: amalgam.grid.node_masses(g, np.ones(g.n_nodes + 1)), "weight does not match"),
    (lambda g, g2: window_sums(region_family(g, (1.0,), center_stride=64), g2, [np.ones(g2.n_nodes)]),
     "centers do not match"),
    (lambda g, g2: window_sums(region_family(g, (1.0,), center_stride=64), g, [np.ones(g.n_nodes + 1)]),
     "arrays do not match"),
], ids=["function-grids", "node-masses", "family-centers", "window-arrays"])
def test_grid_inputs_must_match_the_grid(small_grid, tiny_grid_2d, call, message):
    with pytest.raises(ConfigurationError, match=message):
        call(small_grid, tiny_grid_2d)


def test_family_iteration_order(small_grid):
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=64)
    regions = list(fam)
    assert len(regions) == len(fam) == 2 * len(fam.centers)
    # size-major ordering
    assert all(r.size == 0.5 for r in regions[: len(fam.centers)])
    assert all(r.size == 1.0 for r in regions[len(fam.centers):])
    # center order within a size
    assert regions[len(fam.centers):] == [Region(fam.shape, c, 1.0) for c in fam.centers]


@pytest.mark.parametrize("shape, centers, sizes", [
    ("triangle", ((0.0,),), (1.0,)),
    ("ball", ((0.0,),), (0.0, 1.0)),
    ("cube", ((0.0,),), (-0.5, 1.0)),
    ("ball", ((0.0,),), (math.nan,)),
    ("ball", ((0.0,),), (math.inf,)),
    ("cube", ((0.0, 0.0),), (0.5, math.inf)),
    ("ball", ((0.0, 0.0), (0.0, 0.0, 0.0)), (1.0,)),
], ids=["shape", "zero-size", "negative-size", "nan-size", "inf-size", "inf-among-sizes",
        "three-coordinates"])
def test_family_validation_is_region_validation(shape, centers, sizes):
    # a family takes no shape, size or center that a region refuses
    with pytest.raises(ConfigurationError):
        RegionFamily(shape, centers, sizes)
    with pytest.raises(ConfigurationError):
        for size in sizes:
            for center in centers:
                Region(shape, center, size)


def test_family_centers_share_a_dimension():
    with pytest.raises(ConfigurationError, match="of 1 or all of 2"):
        RegionFamily("ball", ((0.0,), (0.0, 1.0)), (1.0,))
    assert len(RegionFamily("cube", ((0.0, 0.0), (1.0, 1.0)), (0.5, 1.0))) == 4


def test_family_explicit_centers(small_grid):
    fam = region_family(small_grid, sizes=(1.0,), centers=[(0.0,), (1.0,)])
    assert fam.centers == ((0.0,), (1.0,))
    with pytest.raises(ConfigurationError):
        RegionFamily("ball", (), (1.0,))


def test_covering_region_covers_everything(small_grid, tiny_grid_2d):
    for g in (small_grid, tiny_grid_2d):
        cover = covering_region(g)
        assert cover.node_indices(g).size == g.n_nodes


def test_discrete_function_immutable(small_grid):
    f = sample("x", small_grid)
    with pytest.raises(ValueError):
        f.values[0] = 99.0
    with pytest.raises(ConfigurationError):
        DiscreteFunction(small_grid, np.full(small_grid.n_nodes, np.nan))
    with pytest.raises(ConfigurationError):
        DiscreteFunction(small_grid, np.zeros(7))


def test_discrete_function_arithmetic(small_grid):
    # a function is a read-only node array: arithmetic is done on .values
    f = sample("x", small_grid)
    g = sample("1.0", small_grid)
    assert np.array_equal(DiscreteFunction(small_grid, f.values + g.values).values, f.values + 1.0)
    for call in (lambda: f + g, lambda: f - g, lambda: 2.0 * f, lambda: -f, lambda: abs(f)):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] = 1.0


def _one(grid):
    return sample("1.0", grid)


def _holder_sides(g, empty):
    res = holder_check(_one(g), sample("2.0", g), region=empty)
    return res.lhs, res.rhs


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda g, e: local_lp_norm(_one(g), 2.0, e), 0.0, id="local_lp_norm"),
        pytest.param(
            lambda g, e: local_weak_lp_norm(_one(g), 1.0, e), 0.0, id="local_weak_lp_norm"
        ),
        pytest.param(lambda g, e: region_mean(_one(g), e), 0.0, id="region_mean"),
        pytest.param(
            lambda g, e: luxemburg_norm(_one(g), YoungFunction.phi(), e), 0.0, id="luxemburg_norm"
        ),
        pytest.param(_holder_sides, (0.0, 0.0), id="holder_check"),
        pytest.param(
            # the empty region is skipped, the unit one sets the characteristic
            lambda g, e: muckenhoupt_characteristic(
                weight_from_expression("1.0", g), 2.0, RegionFamily("ball", (e.center,), (e.size, 1.0))
            ),
            pytest.approx(1.0, rel=1e-12),
            id="muckenhoupt_characteristic",
        ),
        pytest.param(
            lambda g, e: muckenhoupt_characteristic(
                weight_from_expression("1.0", g), 2.0, RegionFamily("ball", (e.center,), (e.size,))
            ),
            PreconditionError,
            id="muckenhoupt_characteristic-all-empty",
        ),
    ],
)
def test_empty_region_warns_and_yields_neutral_value(small_grid, call, expected):
    empty = Region("ball", (0.5 * small_grid.spacing,), 1e-9)
    with pytest.warns(EmptyRegionWarning):
        if expected is PreconditionError:
            with pytest.raises(PreconditionError):
                call(small_grid, empty)
        else:
            assert call(small_grid, empty) == expected


def test_sample_rejects_bad_expressions(small_grid):
    for expr in ("import os", "__class__", "x +", "nope(3)", "1/0"):
        with pytest.raises(ExpressionError):
            sample(expr, small_grid)


def test_csv_roundtrip_is_exact(small_grid, tiny_grid_2d, rng, tmp_path):
    for g, columns in ((small_grid, "x,value"), (tiny_grid_2d, "x,y,value")):
        f = DiscreteFunction(g, rng.normal(size=g.n_nodes))
        path = tmp_path / f"f{g.dim}.csv"
        write_function_csv(f, str(path))
        with open(path) as fh:
            header = dict(tok.split("=") for tok in fh.readline()[1:].split())
            assert fh.readline() == columns + "\n"
        grid = Grid(int(header["dim"]), float(header["half_width"]), int(header["points_per_axis"]))
        table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        assert grid == g
        assert np.array_equal(table[:, :-1], g.coords)
        assert np.array_equal(table[:, -1], f.values)
        # byte determinism
        write_function_csv(f, str(tmp_path / "again.csv"))
        assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()


@st.composite
def grids_and_regions(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([8, 16, 32, 64]))
    # 3.0 gives a spacing that is not a power of two, so rounding ties differ
    grid = Grid(dim=dim, half_width=draw(st.sampled_from([4.0, 3.0])), points_per_axis=n)
    shape = draw(st.sampled_from(["ball", "cube"]))
    h = grid.spacing
    kind = draw(st.sampled_from(["lattice", "off", "between"]))
    if kind == "lattice":
        # node centers and radii m h put nodes exactly on the boundary
        center = tuple(float(grid.axis[draw(st.integers(0, n - 1))]) for _ in range(dim))
        size = draw(st.integers(1, n + 2)) * h
    elif kind == "off":
        # anywhere, including centers and radii that spill past the box edge
        reach = 1.5 * grid.half_width
        center = tuple(draw(st.floats(-reach, reach)) for _ in range(dim))
        size = draw(st.floats(1e-3, 2.0 * grid.half_width))
    else:
        # midway between nodes with a radius under h/2: no node at all
        center = tuple(float(grid.axis[draw(st.integers(0, n - 1))]) + h / 2 for _ in range(dim))
        size = draw(st.floats(1e-6, 0.49)) * h
    return grid, Region(shape, center, size)


@settings(max_examples=400, deadline=None)
@given(grids_and_regions())
def test_region_runs_select_reference_nodes(case):
    grid, region = case
    want = oracles.region_indices(grid, region.center, region.size, region.shape)
    got = region.node_indices(grid)
    assert np.array_equal(got, want)
    one = RegionFamily(region.shape, (region.center,), (region.size,))
    # node indices, in order and shuffled: sums and minima of integers are exact
    arrays = [np.arange(grid.n_nodes, dtype=float),
              np.random.default_rng(grid.n_nodes).permutation(grid.n_nodes).astype(float)]
    sums, counts = window_sums(one, grid, arrays)
    mins, min_counts = window_sums(one, grid, arrays, np.minimum)
    assert counts[0, 0] == min_counts[0, 0] == want.size
    for k, arr in enumerate(arrays):
        assert sums[k, 0, 0] == float(np.sum(arr[want]))
        assert mins[k, 0, 0] == (arr[want].min() if want.size else 0.0)


@pytest.mark.parametrize("dim, shape", [(1, "ball"), (2, "ball"), (2, "cube")])
def test_window_sums_of_a_wide_ranging_weight(dim, shape):
    # exp(-100 r) falls to about 1e-170 at the box edge: a difference of
    # prefix sums would read such windows as 0 or negative
    grid = Grid(dim=dim, half_width=4.0, points_per_axis=4096 if dim == 1 else 64)
    arr = sample("exp(-100 * r)", grid).values
    assert arr.min() < 1e-169
    nodes = grid.axis[:: grid.points_per_axis // 16]
    h = grid.spacing
    if dim == 1:
        centers = [(c + t,) for c in nodes for t in (0.0, h / 2)]
    else:
        centers = [(cx + t, cy + t) for cx in nodes for cy in nodes for t in (0.0, h / 2)]
    sizes = (h / 4, 0.1, 0.5, 2.0, 6.0)
    fam = region_family(grid, sizes, shape=shape, centers=centers)
    sums, counts = window_sums(fam, grid, [arr])
    empty = 0
    for s, size in enumerate(sizes):
        for c, center in enumerate(centers):
            idx = oracles.region_indices(grid, center, size, shape)
            assert counts[s, c] == idx.size
            if idx.size == 0:
                empty += 1
                assert sums[0, s, c] == 0.0
            else:
                assert sums[0, s, c] > 0.0
                assert sums[0, s, c] == pytest.approx(math.fsum(arr[idx].tolist()), rel=1e-12)
    assert empty == len(centers) // 2


@st.composite
def long_run_families(draw):
    """A 1D grid, a family of one long and one free size, and node arrays.

    Four or more centers in the box hold at least 1000 nodes each at the long
    size, and every center adds at most one more run, or two past the box, so
    the family's runs average more than _BLOCK_MIN_RUN; up to three centers
    past the box edge hold a run of a few nodes or none.
    """
    n = draw(st.sampled_from([1024, 2048, 4096]))
    grid = Grid(dim=1, half_width=draw(st.sampled_from([4.0, 3.0])), points_per_axis=n)
    h, reach = grid.spacing, grid.half_width
    long = draw(st.integers(1000, n).map(lambda m: m * h) | st.floats(1000 * h, 2 * reach))
    other = draw(st.floats(1e-3, 2 * reach) | st.integers(1, n).map(lambda m: m * h))
    # centers on nodes, midway between them, or anywhere in the box
    node = st.integers(0, n - 1).map(lambda i: float(grid.axis[i]))
    inside = node | node.map(lambda x: x + h / 2) | st.floats(-reach, reach - h)
    edge = st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(-2, 40))
    past = edge.map(lambda e: e[0] * (reach + long - e[1] * h))
    centers = draw(st.lists(inside, min_size=4, max_size=12)) + draw(st.lists(past, max_size=3))
    fam = region_family(grid, (long, other), centers=[(x,) for x in centers])
    # nonnegative entries over up to 300 decades, some of them zero
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.floats(0.0, 300.0))
    arrays = 10.0 ** rng.uniform(-decades / 2, decades / 2, (2, n))
    arrays[rng.random((2, n)) < draw(st.sampled_from([0.0, 0.5, 0.99]))] = 0.0
    return grid, fam, arrays


def _reference_runs(fam, grid):
    """(size index, first center, owner, start, stop) of each layout entry, by grid._runs."""
    centers = np.array(fam.centers)
    chunk = amalgam.grid._CENTER_CHUNK
    return [(s, first, *amalgam.grid._runs(fam.shape, centers[first:first + chunk], size, grid))
            for s, size in enumerate(fam.sizes) for first in range(0, len(centers), chunk)]


def _family_block(entries):
    """The B of a family of _reference_runs: 2**round(log2(mean run) / 2), 1 below
    a mean run of _BLOCK_MIN_RUN nodes."""
    length = np.concatenate([stop - start for *_, start, stop in entries])
    mean = length.mean() if length.size else 0.0
    return 2 ** round(math.log2(mean) / 2) if mean >= amalgam.grid._BLOCK_MIN_RUN else 1


@settings(max_examples=150, deadline=None)
@given(long_run_families())
def test_blocked_window_sums_match_fsum(case):
    grid, fam, arrays = case
    sums, counts = window_sums(fam, grid, arrays)
    mins, min_counts = window_sums(fam, grid, arrays, np.minimum)
    assert np.array_equal(min_counts, counts)
    assert _family_block(_reference_runs(fam, grid)) > 1
    for s, size in enumerate(fam.sizes):
        for c, center in enumerate(fam.centers):
            idx = oracles.region_indices(grid, center, size, "ball")
            assert counts[s, c] == idx.size
            for k, arr in enumerate(arrays):
                want = math.fsum(arr[idx].tolist())
                assert sums[k, s, c] == pytest.approx(want, rel=1e-12, abs=0.0)
                assert (sums[k, s, c] > 0.0) == (want > 0.0)
                assert mins[k, s, c] == (arr[idx].min() if idx.size else 0.0)


@pytest.mark.parametrize("limit", [1, 100, 2**14])
@pytest.mark.parametrize("dim, shape", [(1, "ball"), (2, "ball"), (2, "cube")])
def test_node_batches_hand_out_each_region_once(dim, shape, limit):
    grid = Grid(dim=dim, half_width=2.0, points_per_axis=256 if dim == 1 else 16)
    h = grid.spacing
    # more centers than one chunk of runs, half of them between nodes
    if dim == 1:
        centers = [(c + t,) for c in grid.axis for t in (0.0, h / 2)]
    else:
        centers = [(cx + t, cy + t) for cx in grid.axis for cy in grid.axis for t in (0.0, h / 2)]
    fam = region_family(grid, (h / 4, 0.3, 1.0, 3.0), shape=shape, centers=centers)
    nodes = {}
    with mock.patch.object(amalgam.grid, "_BATCH_NODES", limit):
        batches = list(node_batches(fam, grid))
    for s, first, idx, counts in batches:
        assert counts.size == 1 or counts.size * counts.max() <= limit
        assert idx.size == counts.sum()
        for k, region_idx in enumerate(np.split(idx, np.cumsum(counts)[:-1])):
            assert (s, first + k) not in nodes
            nodes[s, first + k] = region_idx
    assert len(nodes) == len(fam)
    for s, size in enumerate(fam.sizes):
        for c, center in enumerate(centers):
            assert np.array_equal(nodes[s, c], oracles.region_nodes(grid, center, size, shape))


def _mask_family(dim, shape):
    """A family with empty regions, regions past the box and more centers than one chunk of runs."""
    grid = Grid(dim=dim, half_width=2.0, points_per_axis=256 if dim == 1 else 16)
    h = grid.spacing
    if dim == 1:
        centers = [(c + t,) for c in grid.axis for t in (0.0, h / 2)]
    else:
        centers = [(cx + t, cy + t) for cx in grid.axis[::2] for cy in grid.axis for t in (0.0, h / 2)]
    return grid, region_family(grid, (h / 4, 0.3, 1.0, 3.0), shape=shape, centers=centers)


@pytest.mark.parametrize("limit", [1, 100, 2**14])
@pytest.mark.parametrize("dim, shape", [(1, "ball"), (2, "ball"), (2, "cube")])
def test_batch_table_where_gathers_only_the_mask(dim, shape, limit):
    grid, fam = _mask_family(dim, shape)
    rng = np.random.default_rng(limit + dim)
    values = rng.standard_normal(grid.n_nodes)
    gathered = []

    def top(ids, vals, counts, starts):
        gathered.append(ids.astype(np.intp))
        return np.maximum.reduceat(vals, starts)

    arrays = [np.arange(grid.n_nodes, dtype=np.float64), values]
    full, full_counts = amalgam.grid.batch_table(fam, grid, arrays, top)
    for where in (rng.random(full.shape) < 0.1, np.zeros(full.shape, dtype=bool)):
        gathered.clear()
        with mock.patch.object(amalgam.grid, "_BATCH_NODES", limit):
            table, counts = amalgam.grid.batch_table(fam, grid, arrays, top, where=where)
        assert np.array_equal(table[where], full[where]) and not table[~where].any()
        assert np.array_equal(counts, np.where(where, full_counts, 0))
        # every node of a masked region is gathered once, and no other node
        want = [oracles.region_nodes(grid, c, s, shape)
                for (k, s), (j, c) in itertools.product(enumerate(fam.sizes), enumerate(fam.centers))
                if where[k, j]]
        assert np.array_equal(np.sort(np.concatenate([np.empty(0, np.intp)] + gathered)),
                              np.sort(np.concatenate([np.empty(0, np.intp)] + want)))


@pytest.mark.parametrize("dim, shape", [(1, "ball"), (2, "ball"), (2, "cube")])
def test_band_masses_add_each_region_per_band(dim, shape):
    grid, fam = _mask_family(dim, shape)
    rng = np.random.default_rng(dim)
    k = 7
    bands = rng.integers(0, k, grid.n_nodes)
    # masses over 10^40, so that a difference of prefix sums would lose the small ones
    masses = np.exp(rng.uniform(-46.0, 46.0, grid.n_nodes))
    sums, counts = window_sums(fam, grid, [masses])
    got, got_counts = (amalgam.grid.band_masses(fam, grid, bands, k, m) for m in (masses, None))
    assert got.shape == (len(fam.sizes), len(fam.centers), k)
    assert np.array_equal(got_counts.sum(axis=2), counts)
    np.testing.assert_allclose(got.sum(axis=2), sums[0], rtol=1e-12, atol=0.0)
    for s, size in enumerate(fam.sizes):
        for c, center in enumerate(fam.centers[::7]):
            idx = oracles.region_nodes(grid, center, size, shape)
            for b in range(k):
                want = math.fsum(masses[idx][bands[idx] == b].tolist())
                assert got[s, 7 * c, b] == pytest.approx(want, rel=1e-12, abs=0.0)
                assert got_counts[s, 7 * c, b] == np.count_nonzero(bands[idx] == b)


@pytest.mark.parametrize("limit", [1, 100, 2**14])
@pytest.mark.parametrize("dim, shape", [(1, "ball"), (2, "ball"), (2, "cube")])
def test_band_masses_rows_on_a_mask_are_the_single_row_tables(dim, shape, limit):
    # one mass row, or the counts, on a mask: the masked regions' rows read the
    # unmasked table's bits, and the other rows 0
    grid, fam = _mask_family(dim, shape)
    rng = np.random.default_rng(limit + dim)
    k = 5
    bands = rng.integers(0, k, grid.n_nodes)
    masses = rng.uniform(0.5, 2.0, grid.n_nodes)
    where = rng.random((len(fam.sizes), len(fam.centers))) < 0.3
    for m in (masses, None):
        want = amalgam.grid.band_masses(fam, grid, bands, k, m)
        with mock.patch.object(amalgam.grid, "_BATCH_NODES", limit):
            got = amalgam.grid.band_masses(fam, grid, bands, k, m, where)
        assert got.shape == want.shape
        assert np.array_equal(got[where], want[where]) and not got[~where].any()


def test_start_order_place_inverts_the_sort():
    # 400 runs share twelve starts, their stops all distinct: place is order's inverse
    # permutation, and each run reads its own edges back through it
    rng = np.random.default_rng(5)
    lo = rng.integers(0, 12, 400).astype(np.int32)
    hi = lo + 1 + rng.permutation(400).astype(np.int32)
    order = np.argsort(lo)
    edges, place = amalgam.grid._in_start_order(lo, hi)
    assert edges.dtype == place.dtype == np.int32
    assert np.array_equal(edges.reshape(-1, 2), np.column_stack([lo, hi])[order])
    assert np.array_equal(place[order], np.arange(400)) and np.array_equal(order[place], np.arange(400))
    assert np.array_equal(edges[2 * place], lo) and np.array_equal(edges[2 * place + 1], hi)


def test_one_family_on_several_grids_reads_each_grid_layout():
    # the layout of a family is kept per (family, grid): the same family on
    # 64^2, 128^2 and 256^2, visited in turn, must read each grid's own runs
    grids = {n: Grid(dim=2, half_width=2.0, points_per_axis=n) for n in (64, 128, 256)}
    centers = [(cx, cy) for cx in (-1.0, 0.0, 0.7) for cy in (-0.5, 0.33)]
    fam = region_family(grids[64], (0.2, 0.9), centers=centers)
    amalgam.grid._family_runs.cache_clear()
    for n in (64, 128, 256, 128, 64, 256):
        grid = grids[n]
        arr = sample("1.0 + gauss(0.25, 0.5) * r", grid).values
        sums, counts = window_sums(fam, grid, [arr])
        batches = {(s, first + k): region_idx for s, first, idx, n_in in node_batches(fam, grid)
                   for k, region_idx in enumerate(np.split(idx, np.cumsum(n_in)[:-1]))}
        for s, size in enumerate(fam.sizes):
            for c, center in enumerate(centers):
                want = oracles.region_nodes(grid, center, size, "ball")
                assert counts[s, c] == want.size > 0
                assert sums[0, s, c] == pytest.approx(math.fsum(arr[want].tolist()), rel=1e-12)
                assert np.array_equal(batches[s, c], want)
    # each layout was built once, and only the last three are kept
    info = amalgam.grid._family_runs.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (3, 3, 3)
    window_sums(fam, Grid(dim=2, half_width=2.0, points_per_axis=32), [np.ones(32 * 32)])
    assert amalgam.grid._family_runs.cache_info().currsize == 3


@pytest.mark.parametrize("dim, shape", [(1, "ball"), (2, "ball"), (2, "cube")])
def test_window_sums_add_run_sums_in_center_then_row_order(dim, shape):
    # each run adds the sums of its segments, the pieces between the multiples
    # of the family's B and the ends of the runs of every size, and each region
    # reduces its run sums, in row order, by np.add.reduceat: bit for bit the same
    grid = Grid(dim=dim, half_width=2.0, points_per_axis=2048 if dim == 1 else 64)
    rng = np.random.default_rng(7)
    arrays = rng.standard_normal((2, grid.n_nodes)) * np.exp(rng.uniform(-20, 20, grid.n_nodes))
    fam = region_family(grid, (0.1, 0.5, 1.3), shape=shape, center_stride=5)
    sums, counts = window_sums(fam, grid, arrays)
    padded = np.pad(arrays, ((0, 0), (0, 1)))

    def run_sum(a, start, stop):
        return np.add.reduceat(a, [start, stop], axis=1)[:, 0]

    entries = _reference_runs(fam, grid)
    b = _family_block(entries)
    ends = [e for *_, start, stop in entries for e in (*start.tolist(), *stop.tolist())]
    cuts = sorted({*range(0, grid.n_nodes + 1, b), *ends})
    # the family is cut once; with B = 1 the segments are the nodes, and no cut is kept
    assert amalgam.grid._family_runs(fam, grid)[0].tolist() == (cuts if b > 1 else [])
    pieces = [run_sum(padded, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    segments = np.column_stack([*pieces, np.zeros(2)])
    at = {c: j for j, c in enumerate(cuts)}
    want = np.zeros(sums.shape)
    for s, first, owner, start, stop in entries:
        for k in np.unique(owner):
            rows = [run_sum(segments, at[lo], at[hi])
                    for lo, hi in zip(start[owner == k], stop[owner == k])]
            want[:, s, first + k] = np.add.reduceat(np.column_stack(rows), [0], axis=1)[:, 0]
    assert np.array_equal(sums, want)
    # the 1D runs average more than _BLOCK_MIN_RUN, the 2D rows do not
    assert b == (32 if dim == 1 else 1)


@st.composite
def mixed_run_families(draw):
    """A 1D grid, a family of two to four sizes on a strided center lattice, and node arrays.

    One size's runs hold fewer than _BLOCK_MIN_RUN nodes, as the smallest
    size of a 1D endpoint family does; the other sizes' runs hold at least
    half the nodes, so the family's runs average at least _BLOCK_MIN_RUN and
    the short runs add segments cut at the ends of the long ones.
    """
    n = draw(st.sampled_from([1024, 2048, 4096]))
    grid = Grid(dim=1, half_width=draw(st.sampled_from([4.0, 3.0])), points_per_axis=n)
    h, reach = grid.spacing, grid.half_width
    short = draw(st.integers(1, 127).map(lambda m: m * h) | st.floats(h / 4, 127 * h))
    long = st.integers(n // 2, n).map(lambda m: m * h) | st.floats(n / 2 * h, 2 * reach)
    sizes = draw(st.permutations([short, *draw(st.lists(long, min_size=1, max_size=3))]))
    # 8, 32 or 171 centers, the last in two chunks, on nodes or midway between them
    stride = draw(st.sampled_from([n // 8, n // 32, 3 * n // 512]))
    shift = draw(st.sampled_from([0.0, h / 2]))
    fam = region_family(grid, sizes, centers=[(x + shift,) for x in grid.axis[::stride]])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.floats(0.0, 300.0))
    arrays = 10.0 ** rng.uniform(-decades / 2, decades / 2, (2, n))
    arrays[rng.random((2, n)) < draw(st.sampled_from([0.0, 0.5, 0.99]))] = 0.0
    return grid, fam, sizes.index(short), arrays


@settings(max_examples=80, deadline=None)
@given(mixed_run_families())
def test_family_segments_serve_short_and_long_runs(case):
    grid, fam, short, arrays = case
    entries = _reference_runs(fam, grid)
    assert _family_block(entries) > 1
    assert all((stop - start < amalgam.grid._BLOCK_MIN_RUN).all()
               for s, _, _, start, stop in entries if s == short)
    sums, counts = window_sums(fam, grid, arrays)
    mins, min_counts = window_sums(fam, grid, arrays, np.minimum)
    assert np.array_equal(min_counts, counts)
    for s, size in enumerate(fam.sizes):
        for c, center in enumerate(fam.centers):
            idx = oracles.region_indices(grid, center, size, "ball")
            assert counts[s, c] == idx.size
            for k, arr in enumerate(arrays):
                want = math.fsum(arr[idx].tolist())
                assert sums[k, s, c] == pytest.approx(want, rel=1e-12, abs=0.0)
                assert (sums[k, s, c] > 0.0) == (want > 0.0)
                assert mins[k, s, c] == (arr[idx].min() if idx.size else 0.0)


def test_window_sums_hold_one_chunk_of_a_generator(monkeypatch, small_grid):
    # with a budget of four node arrays, nine arrays made one at a time are
    # summed once four, eight and nine have been made, an array of an earlier
    # chunk is released before the next chunk's first is made, and the sums
    # are bit for bit those of one chunk
    fam = region_family(small_grid, (0.5, 1.0), center_stride=16)
    values = np.random.default_rng(5).normal(size=(9, small_grid.n_nodes))
    made = []

    def arrays():
        for i, v in enumerate(values):
            assert all(ref() is None for ref in made[:i - i % 4])
            a = v.copy()
            made.append(weakref.ref(a))
            yield a
            del a

    pulled = []
    chunk_sums = amalgam.grid._chunk_sums
    monkeypatch.setattr(amalgam.grid, "_chunk_sums",
                        lambda *args: pulled.append(len(made)) or chunk_sums(*args))
    monkeypatch.setattr(amalgam.grid, "_SUM_NODES", 4 * small_grid.n_nodes)
    sums, counts = window_sums(fam, small_grid, arrays())
    assert pulled == [4, 8, 9]
    monkeypatch.undo()
    whole, whole_counts = window_sums(fam, small_grid, values)
    assert np.array_equal(sums, whole) and np.array_equal(counts, whole_counts)
    assert sums.shape == (9, 2, len(fam.centers))
    empty, empty_counts = window_sums(fam, small_grid, iter(()))
    assert empty.shape == (0, 2, len(fam.centers)) and np.array_equal(empty_counts, counts)
