import math

import numpy as np
import pytest

import amalgam.grid
import oracles
from amalgam import (
    ConfigurationError,
    DiscreteFunction,
    Grid,
    PreconditionError,
    Weight,
    doubling_profile,
    muckenhoupt_characteristic,
    region_family,
    weight_from_expression,
)


def test_weight_requires_positive_values(small_grid):
    with pytest.raises(ConfigurationError, match="weight expression 'x' must be strictly positive"):
        weight_from_expression("x", small_grid)  # changes sign
    with pytest.raises(ConfigurationError, match="weight expression '0.0' must be strictly positive"):
        weight_from_expression("0.0", small_grid)
    with pytest.raises(ConfigurationError, match="weights must be strictly positive"):
        Weight(DiscreteFunction(small_grid, np.zeros(small_grid.n_nodes)))
    w = weight_from_expression("1.0 + ax", small_grid)
    assert np.all(w.values > 0)


def test_power_weight_clipped(small_grid):
    h = small_grid.spacing
    w = weight_from_expression("r**(-0.5)", small_grid)
    i0 = small_grid.node_index((0.0,))
    assert w.values[i0] == (h / 2) ** -0.5
    assert np.all(np.isfinite(w.values))
    wp = weight_from_expression("r**(0.5)", small_grid)
    assert wp.values[i0] == (h / 2) ** 0.5


# the 2D families hold one region without nodes, which the characteristic skips with a warning
@pytest.mark.filterwarnings("ignore::amalgam.EmptyRegionWarning")
def test_characteristic_matches_brute_force(small_grid, spill_families_2d, rng):
    vals = np.exp(rng.normal(scale=0.4, size=small_grid.n_nodes))
    w = Weight(DiscreteFunction(small_grid, vals))
    cases = [(w, region_family(small_grid, sizes=(0.5, 1.0), center_stride=32))]
    grid, families = spill_families_2d
    w2 = Weight(DiscreteFunction(grid, np.exp(rng.normal(scale=0.4, size=grid.n_nodes))))
    cases += [(w2, fam) for fam in families]
    for w, fam in cases:
        for p in (1.0, 1.5, 2.0, 3.0):
            got = muckenhoupt_characteristic(w, p, fam)
            want = oracles.brute_characteristic(w, p, fam)
            assert got == pytest.approx(want, rel=1e-12)
    # exp(-a r) over about 300 decades: at p > 1 its dual average overflows,
    # at p = 1 the minimum is exact and the average keeps its relative precision
    for g, fam in [(small_grid, cases[0][1])] + [(grid, fam) for fam in families]:
        rate = 680.0 / (g.half_width * math.sqrt(g.dim))
        wide = weight_from_expression(f"exp(-{rate!r} * r)", g)
        assert wide.values.max() / wide.values.min() > 1e280
        got = muckenhoupt_characteristic(wide, 1.0, fam)
        assert got == pytest.approx(oracles.brute_characteristic(wide, 1.0, fam), rel=1e-12)


def test_characteristic_gathers_no_node_values(monkeypatch, small_grid, spill_families_2d, rng):
    # window sums and a window minimum only: no node batch is ever handed out
    def no_batches(*args):
        raise AssertionError("node values gathered")

    monkeypatch.setattr(amalgam.grid, "node_batches", no_batches)
    grid = spill_families_2d[0]
    cases = [(small_grid, region_family(small_grid, sizes=(0.5, 1.0), center_stride=32)),
             (grid, region_family(grid, sizes=(0.5, 1.0), shape="ball", center_stride=5))]
    for g, fam in cases:
        w = Weight(DiscreteFunction(g, np.exp(rng.normal(scale=0.4, size=g.n_nodes))))
        for p in (1.0, 2.0):
            got = muckenhoupt_characteristic(w, p, fam)
            assert got == pytest.approx(oracles.brute_characteristic(w, p, fam), rel=1e-12)


def test_characteristic_constant_weight(small_grid):
    w = weight_from_expression("3.7", small_grid)
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=32)
    for p in (1.0, 2.0):
        assert muckenhoupt_characteristic(w, p, fam) == pytest.approx(1.0, rel=1e-12)


def test_characteristic_monotone_in_p(small_grid):
    w = weight_from_expression("r**(0.5)", small_grid)
    fam = region_family(small_grid, sizes=(0.5, 1.0, 2.0), center_stride=64)
    c15 = muckenhoupt_characteristic(w, 1.5, fam)
    c2 = muckenhoupt_characteristic(w, 2.0, fam)
    c3 = muckenhoupt_characteristic(w, 3.0, fam)
    assert c15 >= c2 >= c3 >= 1.0 - 1e-12


def test_constant_weight_must_be_positive(small_grid):
    for c in ("0.0", "-1.0"):
        with pytest.raises(ConfigurationError, match="must be strictly positive"):
            weight_from_expression(c, small_grid)


def test_characteristic_invalid_p(small_grid):
    w = weight_from_expression("1.0", small_grid)
    fam = region_family(small_grid, sizes=(1.0,), center_stride=64)
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="needs 1 <= p < inf"):
            muckenhoupt_characteristic(w, p, fam)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_characteristic_empty_family_rejected(small_grid):
    w = weight_from_expression("1.0", small_grid)
    fam = region_family(small_grid, sizes=(1e-9,), centers=[(0.5 * small_grid.spacing,)])
    with pytest.raises(PreconditionError):
        muckenhoupt_characteristic(w, 2.0, fam)


def test_doubling_profile_unit_weight(small_grid):
    w = weight_from_expression("1.0", small_grid)
    fam = region_family(small_grid, sizes=(0.25, 0.5, 1.0), center_stride=32)
    prof = doubling_profile(w, fam)
    # doubling a 1d ball doubles the node count up to one-node effects
    assert prof.doubling_constant == pytest.approx(2.0, rel=0.05)
    assert prof.reverse_doubling_constant == pytest.approx(2.0, rel=0.05)
    assert prof.comparison_constant >= 1.0
    assert prof.comparison_constant < 1.2
    assert prof.n_regions > 0


def test_doubling_profile_power_weight(small_grid):
    w = weight_from_expression("r**(0.5)", small_grid)
    fam = region_family(small_grid, sizes=(0.25, 0.5, 1.0), center_stride=32)
    prof = doubling_profile(w, fam)
    assert 1.01 < prof.reverse_doubling_constant <= prof.doubling_constant
    assert prof.doubling_constant < 4.0
    assert math.isfinite(prof.comparison_constant)


def test_doubling_profile_matches_region_loop(small_grid, tiny_grid_2d):
    one_d = region_family(small_grid, sizes=(0.25, 0.5, 1.0), center_stride=32)
    cases = [
        (weight_from_expression("1.0", small_grid), one_d),
        (weight_from_expression("r**(0.5)", small_grid), one_d),
        # unsorted sizes, and centers close enough to the edge that some
        # regions or their doublings leave the box
        (
            weight_from_expression("r**(-0.3)", small_grid),
            region_family(small_grid, (2.0, 0.5, 1.0), center_stride=8),
        ),
        (
            weight_from_expression("1.0 + 0.5 * r", tiny_grid_2d),
            region_family(tiny_grid_2d, (0.25, 0.5, 0.75), shape="cube", center_stride=2),
        ),
        (
            weight_from_expression("r**(0.5)", tiny_grid_2d),
            region_family(tiny_grid_2d, (0.5, 0.25), shape="ball", center_stride=3),
        ),
    ]
    for w, fam in cases:
        got = doubling_profile(w, fam)
        want = oracles.brute_doubling_profile(w, fam)
        assert got.n_regions == want[4]
        assert (
            got.doubling_constant,
            got.reverse_doubling_constant,
            got.comparison_exponent,
            got.comparison_constant,
        ) == pytest.approx(want[:4], rel=1e-12)


def test_doubling_profile_needs_room():
    g = Grid(dim=1, points_per_axis=256)
    w = weight_from_expression("1.0", g)
    fam = region_family(g, sizes=(3.0,), centers=[(0.0,)])
    with pytest.raises(PreconditionError):
        doubling_profile(w, fam)  # the doubled ball spills out of the box
