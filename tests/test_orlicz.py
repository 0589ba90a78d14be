import contextlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import amalgam.grid
import amalgam.orlicz
import oracles
from amalgam import (
    ConfigurationError,
    DiscreteFunction,
    EmptyRegionWarning,
    Grid,
    Region,
    YoungFunction,
    holder_check,
    luxemburg_norm,
    luxemburg_table,
    region_family,
    sample,
)


def test_young_values():
    t = np.array([0.0, 0.5, 1.0, 2.0, 8.0])
    assert np.allclose(YoungFunction.power(2.0)(t), t**2)
    phi = t * (1.0 + np.where(t > 1, np.log(np.maximum(t, 1.0)), 0.0))
    for s in (1.0, 1.5, 2.0):
        assert np.allclose(YoungFunction.llogl(s)(t), phi**s)
    assert np.allclose(YoungFunction.exponential()(t), np.expm1(t))
    assert YoungFunction.phi() == YoungFunction.llogl(1.0)
    # Phi is the lift times t to the bit: the power s = 1 rounds nothing
    t = np.array([0.0, 5e-324, 2.2e-308, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                  2.0, 1e300])
    assert YoungFunction.llogl(1.0)(t).tobytes() == ((np.log(np.maximum(t, 1.0)) + 1.0) * t).tobytes()


def test_young_validation():
    with pytest.raises(ConfigurationError):
        YoungFunction.power(0.5)
    for s in (0.0, 0.5):
        with pytest.raises(ConfigurationError, match="1 <= exponent"):
            YoungFunction.llogl(s)
    for tag in ("nope", "bump"):
        with pytest.raises(ConfigurationError, match="unknown Young function tag"):
            YoungFunction(tag, 2.0)
    for tag in ("power", "llogl"):
        for param in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="< inf"):
                YoungFunction(tag, param)


def test_unit_argument():
    assert YoungFunction.power(3.0).unit_argument == 1.0
    assert YoungFunction.llogl(1.0).unit_argument == 1.0
    assert YoungFunction.exponential().unit_argument == math.log(2.0)
    # Y(unit_argument) = 1 in all cases
    for Y in (
        YoungFunction.power(2.0),
        YoungFunction.llogl(2.0),
        YoungFunction.exponential(),
        YoungFunction.llogl(1.5),
    ):
        assert float(Y(np.array([Y.unit_argument]))[0]) == pytest.approx(1.0)


def test_luxemburg_power_closed_form(small_grid, rng):
    # for Y(t) = t^p the norm is the averaged L^p norm
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    reg = Region("ball", (0.3,), 1.1)
    idx = reg.node_indices(small_grid)
    for p in (1.0, 2.0, 3.0):
        got = luxemburg_norm(f, YoungFunction.power(p), reg)
        want = float(np.mean(np.abs(f.values[idx]) ** p)) ** (1.0 / p)
        assert got == pytest.approx(want, rel=1e-9)


def test_luxemburg_matches_root_oracle(small_grid, rng):
    cell = small_grid.cell_volume
    for Y in (YoungFunction.llogl(1.0), YoungFunction.exponential(), YoungFunction.llogl(1.5)):
        for _ in range(5):
            f = DiscreteFunction(small_grid, np.abs(rng.normal(size=small_grid.n_nodes)) + 0.01)
            reg = Region("ball", (float(rng.uniform(-1, 1)),), float(rng.uniform(0.5, 2.0)))
            idx = reg.node_indices(small_grid)
            got = luxemburg_norm(f, Y, reg)
            want = oracles.brute_luxemburg(
                f.values[idx], np.full(idx.size, cell), Y
            )
            assert got == pytest.approx(want, rel=1e-8)
    # a norm of about 1e-2, where an absolute root tolerance would decide the oracle
    grid = Grid(dim=1, half_width=4.0, points_per_axis=4096)
    spike = np.full(grid.n_nodes, 1e-3)
    spike[2048] = 0.1
    Y = YoungFunction.exponential()
    got = luxemburg_norm(DiscreteFunction(grid, spike), Y)
    want = oracles.brute_luxemburg(spike, np.full(grid.n_nodes, grid.cell_volume), Y)
    assert got == pytest.approx(want, rel=1e-12)


CONSTANT_TAGS = [YoungFunction.power(2.0), YoungFunction.power(1.3), YoungFunction.llogl(1.0),
                 YoungFunction.exponential(), YoungFunction.llogl(2.0), YoungFunction.llogl(1.7)]


def test_luxemburg_constant_fast_path(small_grid, tiny_grid_2d, rng):
    # constant |f| = c starts Newton at its root s0 = Y^{-1}(1), so the first pass ends
    # there: the norm is c / Y^{-1}(1) exactly, alone, in a table and in a pruned table
    cases = [(small_grid, "ball"), (TABLE_GRIDS["2d-ball-3"], "ball"), (tiny_grid_2d, "cube")]
    for grid, shape in cases:
        h = grid.spacing
        fam = region_family(grid, sizes=(2.5 * h, 4.5 * h, 1.3), shape=shape, center_stride=3)
        counts = amalgam.grid.window_sums(fam, grid, [np.ones(grid.n_nodes)])[1]
        # no region is empty, and node counts that are not powers of two occur
        assert counts.all() and (counts & (counts - 1)).any()
        factor = rng.uniform(0.5, 2.0, counts.shape)
        region = Region(shape, grid.coords[grid.n_nodes // 3], 1.3)
        for weight in (None, rng.uniform(1e-3, 1e3, grid.n_nodes)):
            for Y in CONSTANT_TAGS:
                for c in (0.3, 2.5):
                    want = c / Y.unit_argument
                    f = DiscreteFunction(grid, np.full(grid.n_nodes, -c))
                    assert luxemburg_norm(f, Y, weight=weight) == want, Y
                    assert luxemburg_norm(f, Y, region, weight) == want, Y
                    assert np.all(luxemburg_table(fam, grid, f.values, Y, weight) == want), Y
                    pruned = luxemburg_table(fam, grid, f.values, Y, weight, factor=factor)
                    assert pruned.max() == factor.max() * want, Y


def test_luxemburg_far_scales(small_grid, rng):
    f = DiscreteFunction(small_grid, np.abs(rng.normal(size=small_grid.n_nodes)))
    for Y in (YoungFunction.power(3.0), YoungFunction.llogl(1.0), YoungFunction.exponential(),
              YoungFunction.llogl(2.0)):
        base = luxemburg_norm(f, Y)
        for c in (1e-300, 1e300):
            assert luxemburg_norm(DiscreteFunction(small_grid, c * f.values), Y) == pytest.approx(
                c * base, rel=1e-12)


def test_luxemburg_zero_function(small_grid):
    z = sample("0.0", small_grid)
    assert luxemburg_norm(z, YoungFunction.llogl(1.0)) == 0.0


def test_luxemburg_ignores_zero_mass_nodes(small_grid):
    # a huge value carried by zero weight must not move the norm
    vals = np.ones(small_grid.n_nodes)
    vals[0] = 1e9
    f = DiscreteFunction(small_grid, vals)
    w = np.ones(small_grid.n_nodes)
    w[0] = 0.0
    got = luxemburg_norm(f, YoungFunction.power(2.0), weight=w)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_luxemburg_weighted(small_grid, rng):
    f = DiscreteFunction(small_grid, np.abs(rng.normal(size=small_grid.n_nodes)) + 0.1)
    w = np.abs(rng.normal(size=small_grid.n_nodes)) + 0.1
    got = luxemburg_norm(f, YoungFunction.power(2.0), weight=w)
    want = math.sqrt(float(np.sum(f.values**2 * w) / np.sum(w)))
    assert got == pytest.approx(want, rel=1e-9)


def test_luxemburg_scaling(small_grid, rng):
    f = DiscreteFunction(small_grid, np.abs(rng.normal(size=small_grid.n_nodes)))
    Y = YoungFunction.llogl(1.0)
    n1 = luxemburg_norm(f, Y)
    n2 = luxemburg_norm(DiscreteFunction(small_grid, 2.0 * f.values), Y)
    assert n2 == pytest.approx(2.0 * n1, rel=1e-9)


def test_holder_llogl_expl_random(small_grid, rng):
    for _ in range(20):
        f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
        g = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
        reg = Region("ball", (float(rng.uniform(-1, 1)),), float(rng.uniform(0.3, 2.0)))
        res = holder_check(f, g, "llogl_expl", reg)
        assert res.holds
        assert res.lhs <= res.rhs * (1 + 1e-9)


def test_holder_constant_anchor(small_grid):
    c, d = 1.7, 0.4
    f = sample(f"{c!r}", small_grid)
    g = sample(f"{d!r}", small_grid)
    res = holder_check(f, g, "llogl_expl")
    assert res.lhs == pytest.approx(c * d, rel=1e-12)
    assert res.rhs == pytest.approx(2.0 * c * d / math.log(2.0), rel=1e-12)


def test_holder_conjugate(small_grid, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    g = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    res = holder_check(f, g, "conjugate", p=3.0)
    assert res.holds
    # p = 2 against the direct Cauchy-Schwarz computation
    res2 = holder_check(f, g, "conjugate", p=2.0)
    lhs = float(np.mean(np.abs(f.values * g.values)))
    rhs = math.sqrt(float(np.mean(f.values**2))) * math.sqrt(float(np.mean(g.values**2)))
    assert res2.lhs == pytest.approx(lhs, rel=1e-12)
    assert res2.rhs == pytest.approx(rhs, rel=1e-8)


def test_holder_validation(small_grid):
    f = sample("x", small_grid)
    with pytest.raises(ConfigurationError):
        holder_check(f, f, "conjugate", p=1.0)
    with pytest.raises(ConfigurationError):
        holder_check(f, f, "nope")
    with pytest.raises(ConfigurationError):
        holder_check(f, f, "triple")
    g = sample("x", Grid(dim=1, points_per_axis=2 * small_grid.points_per_axis))
    with pytest.raises(ConfigurationError, match="grids do not match"):
        holder_check(f, g, "conjugate", p=2.0)


def test_young_slope_is_t_times_the_derivative():
    t = np.array([0.01, 0.3, 0.9, 1.0, 1.5, 4.0, 30.0])
    d = 1e-7 * t
    for Y in (YoungFunction.power(2.5), YoungFunction.llogl(1.0), YoungFunction.llogl(1.5),
              YoungFunction.llogl(2.0), YoungFunction.exponential()):
        y, ty = Y._with_slope(t, np.empty((4, t.size)))
        assert np.array_equal(y, Y(t))
        # central differences, and the right difference at the kink t = 1
        want = t * (Y(t + d) - Y(t - d)) / (2 * d)
        want[3] = (Y(1.0 + 1e-9) - Y(1.0)) / 1e-9
        assert np.allclose(ty, want, rtol=1e-6), Y.tag


# llogl at s = 1 (Phi) and at the bump exponents p' of p = 3, 2 and 1.5, by id
ALL_TAGS = {f"{Y.tag}-{Y.param}": Y for Y in (
    YoungFunction.power(1.0), YoungFunction.power(2.5), YoungFunction.llogl(1.0),
    YoungFunction.llogl(1.5), YoungFunction.llogl(2.0), YoungFunction.llogl(3.0),
    YoungFunction.exponential())}
# the bump gate's Young function at p = 3, built as bump_check builds it from p' = p / (p - 1)
ALL_TAGS["bump-1.5"] = YoungFunction.llogl(3.0 / (3.0 - 1.0))


@pytest.mark.parametrize("Y", ALL_TAGS.values(), ids=list(ALL_TAGS))
def test_young_slope_only_reads_its_arguments(Y):
    t = np.array([0.0, 0.01, 0.3, 1.0, 1.5, 4.0, 30.0, 800.0])
    kept = t.copy()
    y, ty = Y._with_slope(t, np.empty((4, t.size)))
    assert np.array_equal(t, kept)
    # a read-only argument, and the results written into a given array
    t.flags.writeable = False
    out = np.full((4, t.size), np.nan)
    got = Y._with_slope(t, out)
    assert all(np.shares_memory(row, out) for row in got)
    assert np.array_equal(out[:2], np.stack([y, ty]))


@pytest.mark.parametrize("Y", ALL_TAGS.values(), ids=list(ALL_TAGS))
def test_young_slope_in_work_rows_allocates_no_float_row(Y):
    # handed all four work rows, a Newton pass allocates no temporary of its length
    n = 2**14
    t = np.linspace(0.0, 40.0, n)
    out = np.empty((4, n))
    Y._with_slope(t, out)
    tracemalloc.start()
    try:
        Y._with_slope(t, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


@pytest.mark.parametrize("Y", ALL_TAGS.values(), ids=list(ALL_TAGS))
def test_young_slope_values_are_the_contract_values(Y):
    # the Newton pass reads Y from the contract's _values, so the two agree on
    # either side of t = 1 and far from it
    below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    t = np.concatenate([[0.0, 1e-300, 1e-8, 0.5, below, 1.0, above, 2.0, 1e8, 1e300],
                        np.geomspace(1e-3, 1e3, 101)])
    y, _ = Y._with_slope(t, np.empty((4, t.size)))
    assert y.tobytes() == Y(t).tobytes()


@st.composite
def young_functions(draw):
    tag = draw(st.sampled_from(["power", "llogl", "exp"]))
    if tag == "power":
        return YoungFunction.power(draw(st.floats(1.0, 4.0)))
    if tag == "llogl":
        return YoungFunction.llogl(draw(st.floats(1.0, 3.0)))
    return YoungFunction.exponential()


PROP_GRID = Grid(dim=1, half_width=4.0, points_per_axis=64)


@st.composite
def node_values(draw, n):
    """|f| over n nodes at a random scale, zeros and spikes included."""
    shape = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1e3)))
    return shape * 10.0 ** draw(st.integers(-6, 6))


def _fsum_average(Y, a, m, lam):
    a, m = a[m > 0], m[m > 0]
    return math.fsum((Y(a / lam) * m).tolist()) / math.fsum(m.tolist())


@settings(max_examples=300, deadline=None)
@given(
    young_functions(),
    node_values(64),
    hnp.arrays(np.float64, 64, elements=st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1e3)),
    st.floats(-4.0, 4.0),
    st.floats(0.125, 5.0),
)
def test_luxemburg_contract(Y, vals, w, center, size):
    # the returned lam meets its constraint, and 1e-10 below it does not
    f = DiscreteFunction(PROP_GRID, vals)
    region = Region("ball", (center,), size)
    idx = region.node_indices(PROP_GRID)
    # a region that holds no node warns, and its norm reads 0
    with pytest.warns(EmptyRegionWarning) if idx.size == 0 else contextlib.nullcontext():
        lam = luxemburg_norm(f, Y, region, weight=w)
    a, m = vals[idx], w[idx] * PROP_GRID.cell_volume
    if not np.any((a > 0) & (m > 0)):
        assert lam == 0.0
        return
    assert _fsum_average(Y, a, m, lam) <= 1.0 + 1e-12
    assert _fsum_average(Y, a, m, lam * (1.0 - 1e-10)) > 1.0


TABLE_GRIDS = {
    "1d": Grid(dim=1, half_width=4.0, points_per_axis=64),
    "2d-ball": Grid(dim=2, half_width=2.0, points_per_axis=16),
    "2d-cube": Grid(dim=2, half_width=2.0, points_per_axis=16),
    # cell volume (6 / 16)^2 = 9 / 64, not a power of two
    "2d-ball-3": Grid(dim=2, half_width=3.0, points_per_axis=16),
}


@settings(max_examples=60, deadline=None)
@given(
    young_functions(),
    st.sampled_from(sorted(TABLE_GRIDS)),
    st.booleans(),
    st.sampled_from([1, 100, 2**14]),
    st.data(),
)
def test_luxemburg_table_is_luxemburg_norm_bit_for_bit(Y, where, weighted, limit, data):
    grid = TABLE_GRIDS[where]
    shape = "cube" if where == "2d-cube" else "ball"
    vals = data.draw(node_values(grid.n_nodes))
    w = None
    if weighted:
        w = data.draw(hnp.arrays(np.float64, grid.n_nodes, elements=st.floats(1e-3, 1e3)))
    # sizes past the box, and one below the spacing whose regions hold a node or none
    fam = region_family(grid, sizes=(grid.spacing / 4, 0.3, 1.0, 6.0), shape=shape, center_stride=3)
    # batches of one region, of a few, and of all regions of a size
    with mock.patch.object(amalgam.grid, "_BATCH_NODES", limit):
        table = luxemburg_table(fam, grid, vals, Y, w)
    f = DiscreteFunction(grid, vals)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyRegionWarning)
        want = [[luxemburg_norm(f, Y, Region(shape, c, s), w) for c in fam.centers]
                for s in fam.sizes]
    assert np.array_equal(table, np.array(want))


# Newton passes a spiky exp region may take: far from the root a Newton step
# moves s by only about 1 / max|f|, so the solve leans on geometric bisection
EXP_SPIKE_PASSES = 12


@pytest.mark.parametrize("spike_at", [0, 1000, 4095])
def test_luxemburg_exp_spike_pass_bound(monkeypatch, spike_at):
    grid = Grid(dim=1, half_width=4.0, points_per_axis=4096)
    vals = np.full(grid.n_nodes, 1e-3)
    vals[spike_at] = 4095 / 3096  # max / avg = 1e3
    assert vals.max() / vals.mean() == pytest.approx(1e3)
    passes = []
    slope = YoungFunction._with_slope
    monkeypatch.setattr(YoungFunction, "_with_slope", lambda Y, *args: passes.append(1) or slope(Y, *args))
    Y = YoungFunction.exponential()
    got = luxemburg_norm(DiscreteFunction(grid, vals), Y)
    want = oracles.brute_luxemburg(vals, np.full(grid.n_nodes, grid.cell_volume), Y)
    assert got == pytest.approx(want, rel=1e-8)
    assert len(passes) <= EXP_SPIKE_PASSES


def test_luxemburg_exp_overflowing_slope():
    # at the Jensen start t Y'(t) overflows while Y(t) does not, so the Newton
    # step reads 0 there; the solve must bisect on rather than stop at s0
    grid = Grid(dim=1, half_width=4.0, points_per_axis=64)
    vals = np.zeros(grid.n_nodes)
    vals[:3] = [211.0, 1e-3, 1.0]
    w = np.ones(grid.n_nodes)
    w[1] = 961.0
    Y = YoungFunction.exponential()
    got = luxemburg_norm(DiscreteFunction(grid, vals), Y, weight=w)
    want = oracles.brute_luxemburg(vals, w * grid.cell_volume, Y)
    assert got == pytest.approx(want, rel=1e-12)


def test_luxemburg_stop_saves_a_pass_per_batch(monkeypatch):
    # the bump gate's solve: v^(-1/p) for v = r^0.3 and p = 2, under (t (1 + log+ t))^2
    grid = Grid(dim=2, half_width=2.0, points_per_axis=128)
    values = sample("r**-0.15", grid).values
    fam = region_family(grid, sizes=(0.25, 0.5, 1.0), shape="ball", center_stride=8)
    counts = {}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(YoungFunction, "_with_slope", counted("passes", YoungFunction._with_slope))
    monkeypatch.setattr(YoungFunction, "_values", counted("contract", YoungFunction._values))
    monkeypatch.setattr(amalgam.orlicz, "_solve", counted("batches", amalgam.orlicz._solve))
    runs = []
    # the stop, and a Newton run on to a relative step of 1e-14
    for stop in (amalgam.orlicz._STEP_STOP, 1e-14):
        monkeypatch.setattr(amalgam.orlicz, "_STEP_STOP", stop)
        counts.update(passes=0, contract=0, batches=0)
        luxemburg_table(fam, grid, values, YoungFunction.llogl(2.0))
        # each pass evaluates Y through _values too
        counts["contract"] -= counts["passes"]
        runs.append(dict(counts))
    new, old = runs
    assert new["passes"] <= 4 * new["batches"]
    # the contract evaluations the stop adds cost less than the passes it removes
    assert new["contract"] - old["contract"] < old["passes"] - new["passes"]


def test_luxemburg_split_reads_fewer_entries(monkeypatch):
    # the bump gate's solve, as in the stop test: the nodes below t = 1 at the
    # Jensen start are summed once, so the passes read only the others
    grid = Grid(dim=2, half_width=2.0, points_per_axis=128)
    values = sample("r**-0.15", grid).values
    fam = region_family(grid, sizes=(0.25, 0.5, 1.0), shape="ball", center_stride=8)
    entries = dict(gathered=0, passes=0, contract=0)

    def counted(name, fn, arg):
        def call(*args):
            entries[name] += args[arg].size
            return fn(*args)
        return call

    monkeypatch.setattr(YoungFunction, "_with_slope", counted("passes", YoungFunction._with_slope, 1))
    monkeypatch.setattr(YoungFunction, "_values", counted("contract", YoungFunction._values, 1))
    monkeypatch.setattr(amalgam.orlicz, "_solve", counted("gathered", amalgam.orlicz._solve, 1))
    luxemburg_table(fam, grid, values, YoungFunction.llogl(2.0))
    # each pass evaluates Y through _values too
    entries["contract"] -= entries["passes"]
    # before the split, the passes and the contract read 3.99 and 1.41 per entry
    assert entries["passes"] <= 2.0 * entries["gathered"]
    assert entries["contract"] <= 0.75 * entries["gathered"]


# power(3) joins the tags: on the spike region every node but the max is below t = 1
EDGE_TAGS = ALL_TAGS | {"power-3.0": YoungFunction.power(3.0)}
SPLIT_TAGS = {key: Y for key, Y in EDGE_TAGS.items() if Y.tag != "exp"}


@pytest.mark.parametrize("Y", EDGE_TAGS.values(), ids=list(EDGE_TAGS))
def test_luxemburg_split_edges_match_oracle(monkeypatch, Y):
    rng = np.random.default_rng(7)
    regions = [
        # s0 = 2 (u = 1), so the nodes at 1.5 sit at s0 a = 1.0 exactly and stay in the solve
        (np.array([3.0, 1.5, 1.5, 0.0]), np.ones(4)),
        # one spike over a floor below the average: every other node is below t = 1
        (np.concatenate(([1.0], np.full(99, 1e-2))), np.ones(100)),
        # zeros with positive mass, at random values and masses
        (np.where(rng.random(200) < 0.3, 0.0, rng.uniform(0.0, 5.0, 200)), rng.uniform(0.1, 2.0, 200)),
    ]
    a = np.concatenate([v for v, _ in regions])
    m = np.concatenate([w for _, w in regions])
    counts = np.array([v.size for v, _ in regions])
    seen = []
    newton = amalgam.orlicz._newton
    # the Newton solve's nodes: a / max a, per-segment counts, and s0
    monkeypatch.setattr(amalgam.orlicz, "_newton", lambda Y, a, m, counts, total, s0, *rest: (
        seen.append((a.copy(), counts.copy(), s0.copy()))
        or newton(Y, a, m, counts, total, s0, *rest)))
    got = amalgam.orlicz._solve(Y, a, m, counts)
    for lam, (v, w) in zip(got, regions):
        assert lam == pytest.approx(oracles.brute_luxemburg(v, w, Y, rel=1e-14), rel=1e-12)
    [(a_n, kept, s0)] = seen
    if Y.tag == "exp":
        # no split: Newton reads every node
        assert np.array_equal(kept, counts)
        return
    # Newton reads the nodes at s0 a >= 1 alone: 1, 1/2 and 1/2 of the first
    # region, at s0 a = 2, 1 and 1, the spike of the second, and no zero of the third
    assert np.array_equal(a_n[:3], [1.0, 0.5, 0.5]) and s0[0] * a_n[1] == 1.0
    assert kept[:2].tolist() == [3, 1] and kept[2] < np.count_nonzero(regions[2][0])
    assert (np.repeat(s0, kept) * a_n >= 1.0).all()


@pytest.mark.parametrize("Y", SPLIT_TAGS.values(), ids=list(SPLIT_TAGS))
def test_luxemburg_split_in_work_rows_allocates_no_float_row(monkeypatch, Y):
    # the split compacts into work rows: one solve over a 2^15-entry batch stays
    # below the 3.164 batch rows (Newton's broadcasts and shrinks) that the
    # solve took before the split, with no row added for the compaction
    n = 2**15
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 1.0, n) ** 4 * 3.0
    m = rng.uniform(0.5, 1.5, n)
    counts = np.full(32, n // 32)
    work = np.empty((amalgam.orlicz._SOLVE_ROWS, n))
    kept = []
    newton = amalgam.orlicz._newton
    with monkeypatch.context() as patch:
        patch.setattr(amalgam.orlicz, "_newton", lambda Y, a, m, *rest: (
            kept.extend(np.shares_memory(x, work) for x in (a, m)) or newton(Y, a, m, *rest)))
        amalgam.orlicz._solve(Y, a, m, counts, work)
    assert kept == [True] * 2
    tracemalloc.start()
    try:
        amalgam.orlicz._solve(Y, a, m, counts, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.17 * 8 * n


# (grid, exact): the cell volumes 2^-6 and 2^-4 scale every mass exactly, and 9 / 64 does not
EQUAL_MASS_GRIDS = [((1, 4.0, 64), True), ((2, 2.0, 16), True), ((2, 3.0, 16), False)]


@pytest.mark.parametrize("grid_args, exact", EQUAL_MASS_GRIDS, ids=["1d-w4", "2d-w2", "2d-w3"])
@pytest.mark.parametrize("Y", EDGE_TAGS.values(), ids=list(EDGE_TAGS))
def test_unweighted_table_is_the_unit_weight_table(grid_args, exact, Y):
    # without a weight the solve reads no masses; a unit weight reads h^dim at every node
    dim, half_width, n = grid_args
    grid = Grid(dim=dim, half_width=half_width, points_per_axis=n)
    rng = np.random.default_rng(n)
    vals = np.where(rng.random(grid.n_nodes) < 0.2, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes) ** 4 * 3.0)
    fam = region_family(grid, sizes=(0.3, 1.0, 6.0), shape="ball", center_stride=3)
    ones = np.ones(grid.n_nodes)
    got, want = (luxemburg_table(fam, grid, vals, Y, w) for w in (None, ones))
    if not exact:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        return
    assert np.array_equal(got, want)
    # the bump gate's pruned table too, which reads the same bounds
    factor = rng.uniform(0.5, 2.0, got.shape)
    got, want = (luxemburg_table(fam, grid, vals, Y, w, factor=factor) for w in (None, ones))
    assert np.array_equal(got, want)


def test_unweighted_table_gathers_only_the_values(monkeypatch):
    grid = Grid(dim=2, half_width=2.0, points_per_axis=16)
    fam = region_family(grid, sizes=(0.5, 1.0), shape="ball", center_stride=3)
    vals = sample("r**-0.15", grid).values
    batch_table, solve, node_masses = (
        amalgam.orlicz.batch_table, amalgam.orlicz._solve, amalgam.orlicz.node_masses)

    def run(weight):
        """(node arrays batch_table gathers, masses each _solve reads, node_masses calls)."""
        gathered, masses, calls = [], [], []
        monkeypatch.setattr(amalgam.orlicz, "batch_table", lambda family, grid, arrays, *rest, **kw: (
            gathered.append(len(arrays)) or batch_table(family, grid, arrays, *rest, **kw)))
        monkeypatch.setattr(amalgam.orlicz, "_solve", lambda Y, a, m, *rest: (
            masses.append(m) or solve(Y, a, m, *rest)))
        monkeypatch.setattr(amalgam.orlicz, "node_masses", lambda *args: (
            calls.append(1) or node_masses(*args)))
        luxemburg_table(fam, grid, vals, YoungFunction.llogl(2.0), weight)
        return gathered, masses, len(calls)

    gathered, masses, calls = run(None)
    assert gathered == [1] and calls == 0 and masses and all(m is None for m in masses)
    gathered, masses, calls = run(np.ones(grid.n_nodes))
    assert gathered == [2] and calls == 1 and masses and all(m is not None for m in masses)


@pytest.mark.parametrize("Y", EDGE_TAGS.values(), ids=list(EDGE_TAGS))
def test_luxemburg_equal_masses_allocate_less(Y):
    # the 2^15-entry batch of the work-row test: with masses None no shrink
    # copies a mass row, and unit masses give the same norms bit for bit
    n = 2**15
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 1.0, n) ** 4 * 3.0
    counts = np.full(32, n // 32)
    work = np.empty((amalgam.orlicz._SOLVE_ROWS, n))
    norms, peaks = [], []
    for m in (np.ones(n), None):
        norms.append(amalgam.orlicz._solve(Y, a, m, counts, work))
        tracemalloc.start()
        try:
            amalgam.orlicz._solve(Y, a, m, counts, work)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(*norms)
    assert peaks[1] < peaks[0]


@pytest.mark.parametrize("Y", SPLIT_TAGS.values(), ids=list(SPLIT_TAGS))
def test_luxemburg_contract_counts_the_nodes_below_one(monkeypatch, Y):
    # a Newton root 1e-6 too large leaves lam too small, and on a spike region
    # the kept max node alone stays below the constraint: the contract must add
    # the nodes below t = 1 to step lam up
    newton = amalgam.orlicz._newton
    monkeypatch.setattr(amalgam.orlicz, "_newton", lambda *args: newton(*args) * (1.0 + 1e-6))
    rng = np.random.default_rng(3)
    regions = [(np.concatenate(([1.0], np.full(99, 1e-2))), np.ones(100)),
               (rng.uniform(0.0, 5.0, 300), rng.uniform(0.1, 2.0, 300))]
    a = np.concatenate([v for v, _ in regions])
    m = np.concatenate([w for _, w in regions])
    got = amalgam.orlicz._solve(Y, a, m, np.array([v.size for v, _ in regions]))
    for lam, (v, w) in zip(got, regions):
        assert _fsum_average(Y, v, w, lam) <= 1.0 + 1e-12
        assert lam == pytest.approx(oracles.brute_luxemburg(v, w, Y, rel=1e-14), rel=1e-5)


BRACKET_GRIDS = {
    "1d": Grid(dim=1, half_width=4.0, points_per_axis=64),
    "2d": Grid(dim=2, half_width=2.0, points_per_axis=16),
}


@settings(max_examples=200, deadline=None)
@given(
    young_functions(),
    st.sampled_from(sorted(BRACKET_GRIDS)),
    # the weight's range: none, random, or subnormal
    st.sampled_from([None, (1e-3, 1e3), (1e-310, 2e-308)]),
    st.integers(0, 250),
    st.data(),
)
def test_luxemburg_band_bracket_holds_the_norm(Y, where, weights, spread, data):
    # |f| with zeros, over up to 10^500: past 1 + _BAND_RATIO per band at the band cap
    grid = BRACKET_GRIDS[where]
    n = grid.n_nodes
    vals = data.draw(node_values(n)) * 10.0 ** data.draw(
        hnp.arrays(np.float64, n, elements=st.integers(-spread, spread)))
    w = m = None
    if weights is not None:
        w = data.draw(hnp.arrays(np.float64, n, elements=st.floats(*weights)))
        m = amalgam.grid.node_masses(grid, w)
    # sizes past the box, and one below the spacing whose regions hold a node or none
    fam = region_family(grid, sizes=(grid.spacing / 4, 0.3, 1.0, 6.0), center_stride=3)
    lam = luxemburg_table(fam, grid, vals, Y, w)
    work = np.empty((amalgam.orlicz._SOLVE_ROWS, n))
    lo, hi = amalgam.orlicz._bracket(fam, grid, vals, m, Y, work)
    assert np.all(lo <= lam * (1.0 + 1e-9)) and np.all(lam <= hi * (1.0 + 1e-9))
