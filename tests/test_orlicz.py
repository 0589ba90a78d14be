import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import amalgam.grid
import oracles
from amalgam import (
    ConfigurationError,
    DiscreteFunction,
    EmptyRegionWarning,
    Region,
    YoungFunction,
    holder_check,
    luxemburg_norm,
    luxemburg_table,
    make_grid,
    region_family,
    sample,
)


def test_young_values():
    t = np.array([0.0, 0.5, 1.0, 2.0, 8.0])
    assert np.allclose(YoungFunction.power(2.0)(t), t**2)
    y = YoungFunction.llogl(1.0)(t)
    want = t * (1.0 + np.where(t > 1, np.log(np.maximum(t, 1.0)), 0.0))
    assert np.allclose(y, want)
    assert np.allclose(YoungFunction.exponential()(t), np.expm1(t))
    s = 1.5
    yb = YoungFunction.bump(s)(t)
    assert np.allclose(yb, want**s)
    assert YoungFunction.phi() == YoungFunction.llogl(1.0)


def test_young_validation():
    with pytest.raises(ConfigurationError):
        YoungFunction.power(0.5)
    with pytest.raises(ConfigurationError):
        YoungFunction.llogl(-1.0)
    with pytest.raises(ConfigurationError):
        YoungFunction.bump(1.0)
    with pytest.raises(ConfigurationError):
        YoungFunction("nope", 1.0)


def test_unit_argument():
    assert YoungFunction.power(3.0).unit_argument == 1.0
    assert YoungFunction.llogl(1.0).unit_argument == 1.0
    assert YoungFunction.exponential().unit_argument == math.log(2.0)
    # Y(unit_argument) = 1 in all cases
    for Y in (
        YoungFunction.power(2.0),
        YoungFunction.llogl(2.0),
        YoungFunction.exponential(),
        YoungFunction.bump(1.5),
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
    for Y in (YoungFunction.llogl(1.0), YoungFunction.exponential(), YoungFunction.bump(1.5)):
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
    grid = make_grid(dim=1, half_width=4.0, points_per_axis=4096)
    spike = np.full(grid.n_nodes, 1e-3)
    spike[2048] = 0.1
    Y = YoungFunction.exponential()
    got = luxemburg_norm(DiscreteFunction(grid, spike), Y)
    want = oracles.brute_luxemburg(spike, np.full(grid.n_nodes, grid.cell_volume), Y)
    assert got == pytest.approx(want, rel=1e-12)


def test_luxemburg_constant_fast_path(small_grid):
    c = sample("2.5", small_grid)
    assert luxemburg_norm(c, YoungFunction.power(2.0)) == 2.5
    assert luxemburg_norm(c, YoungFunction.llogl(1.0)) == 2.5
    got = luxemburg_norm(c, YoungFunction.exponential())
    assert got == pytest.approx(2.5 / math.log(2.0), rel=1e-15)
    one = sample("1.0", small_grid)
    assert luxemburg_norm(one, YoungFunction.exponential()) == pytest.approx(
        1.0 / math.log(2.0), rel=1e-15
    )


def test_luxemburg_far_scales(small_grid, rng):
    f = DiscreteFunction(small_grid, np.abs(rng.normal(size=small_grid.n_nodes)))
    for Y in (YoungFunction.power(3.0), YoungFunction.llogl(1.0), YoungFunction.exponential(),
              YoungFunction.bump(2.0)):
        base = luxemburg_norm(f, Y)
        for c in (1e-300, 1e300):
            assert luxemburg_norm(c * f, Y) == pytest.approx(c * base, rel=1e-12)


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
    n2 = luxemburg_norm(2.0 * f, Y)
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


def test_young_slope_is_t_times_the_derivative():
    t = np.array([0.01, 0.3, 0.9, 1.0, 1.5, 4.0, 30.0])
    d = 1e-7 * t
    for Y in (YoungFunction.power(2.5), YoungFunction.llogl(1.5), YoungFunction.exponential(),
              YoungFunction.bump(1.5)):
        y, ty = Y._with_slope(t, np.log(t))
        assert np.array_equal(y, Y(t))
        # central differences, and the right difference at the kink t = 1
        want = t * (Y(t + d) - Y(t - d)) / (2 * d)
        want[3] = (Y(1.0 + 1e-9) - Y(1.0)) / 1e-9
        assert np.allclose(ty, want, rtol=1e-6), Y.tag


ALL_TAGS = [YoungFunction.power(1.0), YoungFunction.power(2.5), YoungFunction.llogl(0.0),
            YoungFunction.llogl(1.5), YoungFunction.exponential(), YoungFunction.bump(1.5),
            YoungFunction.bump(2.0)]


@pytest.mark.parametrize("Y", ALL_TAGS, ids=lambda Y: f"{Y.tag}-{Y.param}")
def test_young_slope_only_reads_its_arguments(Y):
    # the Newton pass hands in its work rows as t and log t
    t = np.array([0.0, 0.01, 0.3, 1.0, 1.5, 4.0, 30.0, 800.0])
    with np.errstate(divide="ignore"):
        log_t = np.log(t)
    kept = t.copy(), log_t.copy()
    y, ty = Y._with_slope(t, log_t)
    assert np.array_equal(t, kept[0]) and np.array_equal(log_t, kept[1])
    # read-only arguments, and the results written into a given array
    t.flags.writeable = log_t.flags.writeable = False
    out = np.full((2, t.size), np.nan)
    got = Y._with_slope(t, log_t, out)
    assert all(np.shares_memory(row, out) for row in got)
    assert np.array_equal(out, np.stack([y, ty]))


@st.composite
def young_functions(draw):
    tag = draw(st.sampled_from(["power", "llogl", "exp", "bump"]))
    if tag == "power":
        return YoungFunction.power(draw(st.floats(1.0, 4.0)))
    if tag == "llogl":
        return YoungFunction.llogl(draw(st.floats(0.0, 3.0)))
    if tag == "bump":
        return YoungFunction.bump(draw(st.floats(1.05, 3.0)))
    return YoungFunction.exponential()


PROP_GRID = make_grid(dim=1, half_width=4.0, points_per_axis=64)


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
    "1d": make_grid(dim=1, half_width=4.0, points_per_axis=64),
    "2d-ball": make_grid(dim=2, half_width=2.0, points_per_axis=16),
    "2d-cube": make_grid(dim=2, half_width=2.0, points_per_axis=16),
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
        want = [[luxemburg_norm(f, Y, region, w) for region in fam.at_size(s)] for s in fam.sizes]
    assert np.array_equal(table, np.array(want))


# Newton passes a spiky exp region may take: far from the root a Newton step
# moves s by only about 1 / max|f|, so the solve leans on geometric bisection
EXP_SPIKE_PASSES = 12


@pytest.mark.parametrize("spike_at", [0, 1000, 4095])
def test_luxemburg_exp_spike_pass_bound(monkeypatch, spike_at):
    grid = make_grid(dim=1, half_width=4.0, points_per_axis=4096)
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
