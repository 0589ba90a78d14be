import math

import numpy as np
import pytest

import oracles
from amalgam import (
    ConfigurationError,
    DiscreteFunction,
    Region,
    YoungFunction,
    holder_check,
    luxemburg_norm,
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
