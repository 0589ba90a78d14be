import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import amalgam.grid
import oracles
from amalgam import (
    AmalgamSpec,
    ConfigurationError,
    DiscreteFunction,
    Grid,
    PreconditionError,
    Region,
    SpaceParams,
    Weight,
    YoungFunction,
    amalgam_norm,
    amalgam_norm_detail,
    amalgam_norms,
    bmo_norm,
    covering_region,
    holder_check,
    local_lp_norm,
    local_weak_lp_norm,
    luxemburg_norm,
    region_family,
    region_mean,
    sample,
    weight_from_expression,
)
from amalgam import spaces
from amalgam.spaces import outer_norm


def test_space_params_validation():
    SpaceParams(1.0, 1.0, 4.0)
    SpaceParams(2.0, 4.0, math.inf)
    with pytest.raises(ConfigurationError):
        SpaceParams(3.0, 2.0, 8.0)  # p > alpha
    with pytest.raises(ConfigurationError):
        SpaceParams(1.0, 2.0, 2.0)  # q must exceed alpha
    with pytest.raises(ConfigurationError):
        SpaceParams(0.5, 2.0, 8.0)


def test_space_params_exponents():
    sp = SpaceParams(2.0, 4.0, 8.0)
    assert sp.strong_exponent == pytest.approx(0.25 - 0.5 - 0.125)
    assert sp.llogl_exponent == pytest.approx(0.25 - 0.125)
    assert SpaceParams(2.0, 4.0, math.inf).inv_q == 0.0


def test_local_lp_matches_fsum(small_grid, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    reg = Region("ball", (0.2,), 1.0)
    idx = reg.node_indices(small_grid)
    w = np.abs(rng.normal(size=small_grid.n_nodes)) + 0.1
    for p in (1.0, 2.0, 2.5):
        got = local_lp_norm(f, p, reg, w)
        want = (
            math.fsum((np.abs(f.values[idx]) ** p * w[idx]).tolist())
            * small_grid.cell_volume
        ) ** (1.0 / p)
        assert got == pytest.approx(want, rel=1e-12)


def test_weak_lp_matches_sweep(small_grid, rng):
    for _ in range(10):
        f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
        reg = Region("ball", (float(rng.uniform(-1, 1)),), float(rng.uniform(0.5, 2)))
        idx = reg.node_indices(small_grid)
        p = float(rng.uniform(1.0, 3.0))
        got = local_weak_lp_norm(f, p, reg)
        want = oracles.brute_weak_lp(
            f.values[idx], np.full(idx.size, small_grid.cell_volume), p
        )
        assert got == pytest.approx(want, rel=1e-9)


def test_weak_below_strong(small_grid, rng):
    # the weak norm never exceeds the strong norm
    for _ in range(10):
        f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
        p = float(rng.uniform(1.0, 3.0))
        assert local_weak_lp_norm(f, p) <= local_lp_norm(f, p) * (1 + 1e-12)


def test_region_mean_weighted(small_grid, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    w = np.abs(rng.normal(size=small_grid.n_nodes)) + 0.5
    reg = Region("ball", (0.0,), 1.5)
    idx = reg.node_indices(small_grid)
    got = region_mean(f, reg, w)
    want = float(np.sum(f.values[idx] * w[idx]) / np.sum(w[idx]))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_no_region_is_the_covering_region(dim, weighted, rng):
    # region=None means the whole box: covering_region, every node in flat order
    grid = Grid(dim=dim, half_width=2.0, points_per_axis=64 if dim == 1 else 16)
    f, g = (DiscreteFunction(grid, rng.normal(size=grid.n_nodes)) for _ in range(2))
    w = weight_from_expression("r**(0.3)", grid) if weighted else None
    stats = [
        lambda reg: local_lp_norm(f, 2.5, reg, w),
        lambda reg: local_weak_lp_norm(f, 1.5, reg, w),
        lambda reg: region_mean(f, reg, w),
        lambda reg: luxemburg_norm(f, YoungFunction.llogl(1.0), reg, w),
        lambda reg: holder_check(f, g, "llogl_expl", reg, w).lhs,
        lambda reg: holder_check(f, g, "conjugate", reg, w, p=3.0).rhs,
    ]
    cover = covering_region(grid)
    for stat in stats:
        assert stat(None) == stat(cover)


def test_bmo_matches_brute(small_grid, spill_families_2d, rng):
    b = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    cases = [(b, region_family(small_grid, sizes=(0.5, 1.0), center_stride=32))]
    grid, families = spill_families_2d
    b2 = DiscreteFunction(grid, rng.normal(size=grid.n_nodes))
    cases += [(b2, fam) for fam in families]
    for b, fam in cases:
        got = bmo_norm(b, fam)
        want = oracles.brute_bmo(b, fam)
        assert got == pytest.approx(want, rel=1e-12)


def test_bmo_constant_is_zero(small_grid):
    b = sample("3.0", small_grid)
    fam = region_family(small_grid, sizes=(1.0,), center_stride=64)
    assert bmo_norm(b, fam) == 0.0


def test_amalgam_matches_brute(small_grid, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=32)
    w = weight_from_expression("r**(0.5)", small_grid)
    for q in (8.0, math.inf):
        spec = AmalgamSpec(SpaceParams(2.0, 4.0, q), fam, w)
        got = amalgam_norm(f, spec)
        want = oracles.brute_amalgam_strong(f, fam, 2.0, 4.0, q, w)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("shape", ["ball", "cube"])
def test_amalgam_2d_matches_brute(shape, rng):
    grid = Grid(dim=2, half_width=2.0, points_per_axis=32)
    f = DiscreteFunction(grid, rng.normal(size=grid.n_nodes))
    # sizes from under a cell to past the box, so some regions spill over the edge
    fam = region_family(grid, sizes=(0.1, 0.5, 1.0, 3.0), shape=shape, center_stride=3)
    w = weight_from_expression("r**0.3", grid)
    mu = weight_from_expression("1.0 + 0.5 * r", grid)
    for q in (8.0, math.inf):
        spec = AmalgamSpec(SpaceParams(2.0, 4.0, q), fam, w, mu)
        want = oracles.brute_amalgam_strong(f, fam, 2.0, 4.0, q, w, mu)
        assert amalgam_norm(f, spec) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "variant, p, rel",
    [("strong", 1.0, 1e-12), ("weak", 2.0, 1e-12), ("llogl", 1.0, 1e-9)],
    ids=["strong", "weak", "llogl"],
)
def test_amalgam_variants_match_brute(small_grid, spill_families_2d, rng, variant, p, rel):
    cases = [(small_grid, region_family(small_grid, sizes=(0.5, 1.0), center_stride=32))]
    grid, families = spill_families_2d
    cases += [(grid, fam) for fam in families]
    for grid, fam in cases:
        f = DiscreteFunction(grid, rng.normal(size=grid.n_nodes))
        w = weight_from_expression("r**0.3", grid)
        mu = weight_from_expression("1.0 + 0.5 * r", grid)
        # a stack of rows, as the endpoint levels pass them: values, a bool indicator, zeros
        rows = [f.values, np.abs(f.values) > 0.5, np.zeros(grid.n_nodes)]
        for q in (8.0, math.inf):
            spec = AmalgamSpec(SpaceParams(p, 4.0, q), fam, w, mu, variant)
            stacked = amalgam_norms(grid, rows, spec)
            assert len(stacked) == len(rows)
            for row, got in zip(rows, stacked):
                g = DiscreteFunction(grid, row)
                assert got == amalgam_norm_detail(g, spec)
                value, size, center = oracles.brute_amalgam_strong(
                    g, fam, p, 4.0, q, w, mu, variant=variant, argmax=True
                )
                assert got.value == pytest.approx(value, rel=rel)
                assert (got.argmax_size, got.argmax_center) == (size, center)


def test_strong_rows_sum_in_chunks_of_unchanged_values(monkeypatch, small_grid, rng):
    # nine rows, as the endpoint levels pass them: one window_sums call, which
    # sums u and every row in one chunk under the default budget, and with a
    # budget of four node arrays u and three rows, then four rows, then two,
    # every norm bit for bit the same
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=32)
    w = weight_from_expression("r**0.3", small_grid)
    spec = AmalgamSpec(SpaceParams(1.0, 4.0, 8.0), fam, w, None)
    rows = list(rng.normal(size=(9, small_grid.n_nodes)))
    calls, chunks = [], []
    sums, chunk_sums = spaces.window_sums, amalgam.grid._chunk_sums
    monkeypatch.setattr(spaces, "window_sums", lambda *args: calls.append(args) or sums(*args))
    monkeypatch.setattr(amalgam.grid, "_chunk_sums",
                        lambda *args: chunks.append(len(args[2])) or chunk_sums(*args))
    whole = amalgam_norms(small_grid, iter(rows), spec)
    monkeypatch.setattr(amalgam.grid, "_SUM_NODES", 4 * small_grid.n_nodes)
    chunked = amalgam_norms(small_grid, iter(rows), spec)
    assert len(calls) == 2
    assert chunks == [10, 4, 4, 2]
    assert chunked == whole


@pytest.mark.parametrize("variant, p", [("strong", 2.0), ("weak", 2.0), ("llogl", 1.0)])
def test_amalgam_norms_of_no_rows(small_grid, variant, p):
    # an endpoint member with f = 0 has no levels, and so adds no rows
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=32)
    spec = AmalgamSpec(SpaceParams(p, 4.0, 8.0), fam, None, None, variant)
    assert amalgam_norms(small_grid, iter(()), spec) == []


def test_amalgam_with_outer_weight(small_grid, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=32)
    mu = weight_from_expression("2.0", small_grid)
    spec = AmalgamSpec(SpaceParams(2.0, 4.0, 8.0), fam, None, mu)
    base = AmalgamSpec(SpaceParams(2.0, 4.0, 8.0), fam, None, None)
    # constant outer weight scales the outer sum by 2^{1/q}
    assert amalgam_norm(f, spec) == pytest.approx(
        2.0 ** (1.0 / 8.0) * amalgam_norm(f, base), rel=1e-12
    )


def test_amalgam_detail_locates_argmax(small_grid):
    f = sample("gauss(1.0, 0.2)", small_grid)
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=16)
    spec = AmalgamSpec(SpaceParams(2.0, 4.0, math.inf), fam, None)
    detail = amalgam_norm_detail(f, spec)
    assert abs(detail.argmax_center[0] - 1.0) <= 0.5
    assert detail.value > 0


def test_weak_variant_below_strong_variant(small_grid, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=32)
    sp = SpaceParams(2.0, 4.0, 8.0)
    strong = amalgam_norm(f, AmalgamSpec(sp, fam, None, None, "strong"))
    weak = amalgam_norm(f, AmalgamSpec(sp, fam, None, None, "weak"))
    assert weak <= strong * (1 + 1e-12)
    assert weak > 0


def test_llogl_variant_requires_p1(small_grid):
    fam = region_family(small_grid, sizes=(1.0,), center_stride=64)
    with pytest.raises(ConfigurationError):
        AmalgamSpec(SpaceParams(2.0, 4.0, 8.0), fam, None, None, "llogl")
    spec = AmalgamSpec(SpaceParams(1.0, 2.0, 8.0), fam, None, None, "llogl")
    f = sample("1.0", small_grid)
    assert amalgam_norm(f, spec) > 0


def test_unknown_variant_rejected(small_grid):
    fam = region_family(small_grid, sizes=(1.0,), center_stride=64)
    with pytest.raises(ConfigurationError):
        AmalgamSpec(SpaceParams(1.0, 2.0, 8.0), fam, None, None, "median")


def test_norm_inputs_rejected(small_grid):
    f = sample("x", small_grid)
    for norm in (local_lp_norm, local_weak_lp_norm):
        with pytest.raises(ConfigurationError, match="p >= 1"):
            norm(f, 0.5)
    fam = region_family(small_grid, sizes=(1.0,), center_stride=64)
    other = Grid(dim=1, points_per_axis=2 * small_grid.points_per_axis)
    one = weight_from_expression("1.0", other)
    for inner, outer in ((one, None), (None, one)):
        spec = AmalgamSpec(SpaceParams(1.0, 2.0, 8.0), fam, inner, outer)
        with pytest.raises(ConfigurationError, match="weight lives on a different grid"):
            amalgam_norms(small_grid, [f.values], spec)
    # a region between two nodes, smaller than half a cell, holds none
    empty = region_family(small_grid, sizes=(1e-9,), centers=[(0.5 * small_grid.spacing,)])
    with pytest.raises(PreconditionError, match="every region"):
        bmo_norm(f, empty)


def test_amalgam_homogeneous(small_grid, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=32)
    w = weight_from_expression("r**(0.5)", small_grid)
    for variant in ("strong", "weak"):
        spec = AmalgamSpec(SpaceParams(2.0, 4.0, 8.0), fam, w, None, variant)
        n1 = amalgam_norm(f, spec)
        n3 = amalgam_norm(DiscreteFunction(small_grid, 3.0 * f.values), spec)
        assert n3 == pytest.approx(3.0 * n1, rel=1e-12)


@st.composite
def outer_tables(draw, stack=0):
    """A [size, center] table of local values, or a stack of 1 to stack of them,
    with per-center outer weights."""
    sizes = draw(st.integers(1, 4))
    centers = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    row = st.lists(entry, min_size=centers, max_size=centers)
    table = st.lists(row, min_size=sizes, max_size=sizes)
    if stack:
        table = st.lists(table, min_size=1, max_size=stack)
    table = np.array(draw(table))
    weights = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=centers, max_size=centers)))
    return table, weights


Q_VALUES = st.sampled_from([1.0, 2.0, 4.0, 8.0, math.inf])


@given(st.one_of(outer_tables(), outer_tables(stack=4)), Q_VALUES, st.floats(0.01, 100.0))
def test_outer_norm_homogeneous(tw, q, c):
    table, weights = tw
    scaled = outer_norm(c * table, q, weights)[0]
    assert scaled == pytest.approx(c * outer_norm(table, q, weights)[0], rel=1e-12, abs=0.0)


def _outer_reference(tables, q, weights):
    """outer_norm table by table and size by size: the first size with the largest l^q sum."""
    found = []
    for table in tables:
        sums = [float(row.max() if math.isinf(q) else np.sum(row**q * weights)) for row in table]
        s = sums.index(max(sums))
        value = sums[s] if math.isinf(q) else sums[s] ** (1.0 / q)
        found.append((value, s, int(np.argmax(table[s]))))
    return found


@given(outer_tables(stack=4), Q_VALUES)
def test_outer_norm_of_a_stack_matches_a_loop_over_its_tables(tw, q):
    tables, weights = tw
    value, s, k = outer_norm(tables, q, weights)
    assert value.shape == s.shape == k.shape == (len(tables),)
    assert list(zip(value.tolist(), s.tolist(), k.tolist())) == _outer_reference(tables, q, weights)
    for i, table in enumerate(tables):
        one = outer_norm(table, q, weights)
        assert [x.shape for x in one] == [(), (), ()]
        assert (float(one[0]), int(one[1]), int(one[2])) == (value[i], s[i], k[i])


@pytest.mark.parametrize("q", [2.0, 8.0, math.inf])
def test_outer_norm_ties_go_to_the_first_size_and_center(q):
    # every row holds its largest entry twice; under a finite q the middle row
    # has the smallest sum, its first 3 carrying weight 1, and the other two tie
    table = np.array([[1.0, 3.0, 3.0, 0.5], [3.0, 1.0, 3.0, 0.5], [1.0, 3.0, 3.0, 0.5]])
    weights = np.array([1.0, 2.0, 2.0, 1.0])
    stack = np.stack([table, table[[1, 0, 2]]])
    value, s, k = outer_norm(stack, q, weights)
    assert list(zip(value.tolist(), s.tolist(), k.tolist())) == _outer_reference(stack, q, weights)
    if math.isinf(q):
        assert (s.tolist(), k.tolist()) == ([0, 0], [1, 0])
    else:
        assert (s.tolist(), k.tolist()) == ([0, 1], [1, 1])


@given(outer_tables())
def test_outer_norm_sup_indices_attain_value(tw):
    table, weights = tw
    value, s, k = outer_norm(table, math.inf, weights)
    assert value == table[s, k] == table.max()


@given(outer_tables(), Q_VALUES, st.data())
def test_outer_norm_monotone_in_sizes(tw, q, data):
    table, weights = tw
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    extra = data.draw(st.lists(entry, min_size=table.shape[1], max_size=table.shape[1]))
    grown = np.vstack([table, extra])
    assert outer_norm(grown, q, weights)[0] >= outer_norm(table, q, weights)[0]


PROPERTY_GRID = Grid(dim=1, half_width=4.0, points_per_axis=64)
PROPERTY_FAMILY = region_family(PROPERTY_GRID, (0.5, 1.0, 2.0), center_stride=4)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["strong", "weak", "llogl"]),
    st.sampled_from([8.0, 16.0, math.inf]),
    st.booleans(),
    st.floats(1e-3, 1e3),
)
def test_uniform_outer_factor_scales_value_only(seed, variant, q, with_mu, c):
    # a uniform factor c on the outer measure scales each norm by c^{1/q}
    # and moves no argmax, so every ratio of two amalgam norms cancels it
    rng = np.random.default_rng(seed)
    grid, fam = PROPERTY_GRID, PROPERTY_FAMILY
    rows = rng.normal(size=(2, grid.n_nodes)) * (rng.random((2, grid.n_nodes)) < 0.5)
    inner = Weight(DiscreteFunction(grid, rng.uniform(0.5, 2.0, grid.n_nodes)))
    mu = rng.uniform(0.5, 2.0, grid.n_nodes) if with_mu else np.ones(grid.n_nodes)
    params = SpaceParams(1.0, 2.0, q) if variant == "llogl" else SpaceParams(2.0, 4.0, q)
    spec = AmalgamSpec(params, fam, inner, Weight(DiscreteFunction(grid, mu)) if with_mu else None,
                       variant)
    scaled = AmalgamSpec(params, fam, inner, Weight(DiscreteFunction(grid, c * mu)), variant)
    factor = 1.0 if math.isinf(q) else c ** (1.0 / q)
    for base, got in zip(amalgam_norms(grid, rows, spec), amalgam_norms(grid, rows, scaled)):
        assert got.value == pytest.approx(factor * base.value, rel=1e-12, abs=0.0)
        assert (got.argmax_size, got.argmax_center) == (base.argmax_size, base.argmax_center)
