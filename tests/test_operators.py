import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from amalgam import (
    ConfigurationError,
    DiscreteFunction,
    Kernel,
    PreconditionError,
    Region,
    ThetaModulus,
    apply_operator,
    covering_region,
    dini_integrals,
    make_grid,
    maximal,
    region_family,
    sample,
)


def test_theta_validation():
    with pytest.raises(ConfigurationError):
        ThetaModulus.power(0.0)
    with pytest.raises(ConfigurationError):
        ThetaModulus.power(1.5)
    with pytest.raises(ConfigurationError):
        ThetaModulus.log(0.0)
    with pytest.raises(ConfigurationError):
        ThetaModulus("nope", 1.0)


def test_theta_values():
    t = np.array([0.0, 0.25, 1.0, 3.0])
    th = ThetaModulus.power(0.5)
    assert np.allclose(th(t), [0.0, 0.5, 1.0, 1.0])  # clipped above at t = 1
    lg = ThetaModulus.log(2.0)
    want = (1.0 - np.log(np.array([0.25, 1.0]))) ** -2.0
    assert np.allclose(lg(np.array([0.25, 1.0])), want)
    assert lg(np.array([0.0]))[0] == 0.0
    assert np.all(ThetaModulus.zero()(t) == 0.0)


def test_theta_monotone():
    t = np.linspace(0.0, 1.0, 200)
    for th in (ThetaModulus.power(0.7), ThetaModulus.log(1.5)):
        v = th(t)
        assert np.all(np.diff(v) >= -1e-15)


def test_dini_closed_forms():
    cases = [
        ("power", 0.5),
        ("power", 1.0),
        ("log", 0.5),
        ("log", 1.5),
        ("log", 2.0),
        ("log", 4.0),
    ]
    for tag, param in cases:
        th = ThetaModulus(tag, param)
        got = dini_integrals(th)
        want_d, want_ld = oracles.dini_closed_forms(tag, param)
        # log moduli converge like a power of 1/log(1/t), so their tail
        # estimate is honest but coarse; power moduli converge geometrically
        rel = 1e-6 if tag == "power" else 1e-3
        for got_v, want_v in ((got.dini, want_d), (got.log_dini, want_ld)):
            if math.isinf(want_v):
                assert math.isinf(got_v)
            else:
                assert got_v == pytest.approx(want_v, rel=rel)


def test_dini_zero_modulus():
    got = dini_integrals(ThetaModulus.zero())
    assert got.dini == 0.0
    assert got.log_dini == 0.0
    assert got.converged


def test_dini_near_divergent_power():
    # a tiny exponent is numerically indistinguishable from divergence
    got = dini_integrals(ThetaModulus.power(1e-13))
    assert math.isinf(got.dini)
    assert not got.converged


def test_dini_convergence_flag():
    assert dini_integrals(ThetaModulus.power(1.0)).converged
    assert not dini_integrals(ThetaModulus.log(1.5)).converged  # log factor diverges
    assert dini_integrals(ThetaModulus.log(4.0)).converged


def test_kernel_validation():
    with pytest.raises(ConfigurationError):
        Kernel("nope", 1)
    with pytest.raises(ConfigurationError):
        Kernel("hilbert", 2)
    with pytest.raises(ConfigurationError):
        Kernel("riesz", 2, component=2)


def test_hilbert_pointwise():
    k = Kernel("hilbert", 1)
    d = np.array([0.5, -0.5, 2.0, 0.0])
    out = k.pointwise(d)
    assert out[0] == pytest.approx(2.0 / math.pi)
    assert out[1] == pytest.approx(-2.0 / math.pi)
    assert out[2] == pytest.approx(0.5 / math.pi)
    assert out[3] == 0.0


def test_riesz_pointwise_2d():
    k0 = Kernel("riesz", 2, component=0)
    k1 = Kernel("riesz", 2, component=1)
    d = np.array([[3.0, 4.0]])
    assert k0.pointwise(d)[0] == pytest.approx(3.0 / 125.0)
    assert k1.pointwise(d)[0] == pytest.approx(4.0 / 125.0)


def test_apply_operator_matches_direct_1d():
    g = make_grid(dim=1, points_per_axis=128)
    f = sample("gauss(0.5, 0.4) + ind(-2.0, -1.0)", g)
    k = Kernel("hilbert", 1)
    eps = 4 * g.spacing
    got = apply_operator(k, f, eps)
    want = oracles.direct_truncated(k, f, eps)
    assert np.allclose(got.values, want, rtol=1e-12, atol=1e-13)


def test_apply_operator_matches_direct_2d(tiny_grid_2d):
    g = tiny_grid_2d
    f = sample("gauss(0.3, 0.5)", g)
    k = Kernel("riesz", 2, component=1)
    eps = 2.5 * g.spacing
    got = apply_operator(k, f, eps)
    want = oracles.direct_truncated(k, f, eps)
    assert np.allclose(got.values, want, rtol=1e-10, atol=1e-12)


def test_commutator_matches_direct():
    g = make_grid(dim=1, points_per_axis=128)
    f = sample("gauss(0.5, 0.4)", g)
    b = sample("logabs", g)
    k = Kernel("hilbert", 1)
    eps = 4 * g.spacing
    got = apply_operator(k, f, eps, b)
    want = oracles.direct_truncated(k, f, eps, b)
    assert np.allclose(got.values, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "grid_args, k, eps_cells, rtol, atol",
    [
        ({"dim": 1, "points_per_axis": 128}, Kernel("hilbert", 1), 4.0, 1e-12, 1e-13),
        ({"dim": 2, "half_width": 2.0, "points_per_axis": 16}, Kernel("riesz", 2), 2.5, 1e-10, 1e-12),
    ],
    ids=["1d", "2d"],
)
def test_apply_operator_matches_direct_at_edges(grid_args, k, eps_cells, rtol, atol, rng):
    # random values put mass at both ends of the box, so the extreme offsets
    # +-(n - 1) contribute and a kernel layout that wraps fails
    g = make_grid(**grid_args)
    f = DiscreteFunction(g, rng.normal(size=g.n_nodes))
    b = DiscreteFunction(g, rng.normal(size=g.n_nodes))
    eps = eps_cells * g.spacing
    for symbol in (None, b):
        got = apply_operator(k, f, eps, symbol)
        want = oracles.direct_truncated(k, f, eps, symbol)
        assert np.allclose(got.values, want, rtol=rtol, atol=atol)


OPERATOR_CASES = st.sampled_from(
    [(1, 64, Kernel("hilbert", 1)), (1, 512, Kernel("hilbert", 1)), (2, 16, Kernel("riesz", 2))]
)


@settings(max_examples=25, deadline=None)
@given(OPERATOR_CASES, st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0), st.floats(2.0, 9.0))
def test_commutator_with_constant_symbol_vanishes(case, seed, c, eps_cells):
    dim, n, k = case
    g = make_grid(dim=dim, points_per_axis=n)
    f = DiscreteFunction(g, np.random.default_rng(seed).normal(size=g.n_nodes))
    eps = eps_cells * g.spacing
    Tf = apply_operator(k, f, eps).values
    Cf = apply_operator(k, f, eps, DiscreteFunction(g, np.full(g.n_nodes, c))).values
    assert np.max(np.abs(Cf)) <= 1e-12 * abs(c) * np.max(np.abs(Tf))


@settings(max_examples=25, deadline=None)
@given(OPERATOR_CASES, st.integers(0, 2**32 - 1), st.floats(2.0, 9.0))
def test_odd_kernel_is_antisymmetric(case, seed, eps_cells):
    # <Tf, g> = -<f, Tg> because K(-x) = -K(x)
    dim, n, k = case
    grid = make_grid(dim=dim, points_per_axis=n)
    f, g = np.random.default_rng(seed).normal(size=(2, grid.n_nodes))
    eps = eps_cells * grid.spacing
    Tf = apply_operator(k, DiscreteFunction(grid, f), eps).values
    Tg = apply_operator(k, DiscreteFunction(grid, g), eps).values
    scale = np.linalg.norm(Tf) * np.linalg.norm(g) + np.linalg.norm(f) * np.linalg.norm(Tg)
    assert abs(np.dot(Tf, g) + np.dot(f, Tg)) <= 1e-12 * scale


def test_operator_linearity():
    g = make_grid(dim=1, points_per_axis=256)
    f1 = sample("gauss(0.0, 0.5)", g)
    f2 = sample("ind(-1.0, 0.0)", g)
    k = Kernel("hilbert", 1)
    eps = 4 * g.spacing
    lhs = apply_operator(k, f1 + f2, eps).values
    rhs = apply_operator(k, f1, eps).values + apply_operator(k, f2, eps).values
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_operator_epsilon_validation(small_grid):
    f = sample("1.0", small_grid)
    k = Kernel("hilbert", 1)
    with pytest.raises(ConfigurationError):
        apply_operator(k, f, small_grid.spacing)
    with pytest.raises(ConfigurationError):
        apply_operator(Kernel("riesz", 2), f, 4 * small_grid.spacing)


def test_zero_kernel_maps_to_zero(small_grid):
    f = sample("gauss(0.0, 1.0)", small_grid)
    out = apply_operator(Kernel("zero", 1), f, 4 * small_grid.spacing)
    assert np.all(out.values == 0.0)


def test_maximal_matches_brute(small_grid, spill_families_2d, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    fam = region_family(small_grid, sizes=(0.5, 1.5), center_stride=32)
    cases = [(f, list(fam) + [covering_region(small_grid)])]
    grid, families = spill_families_2d
    f2 = DiscreteFunction(grid, rng.normal(size=grid.n_nodes))
    cases += [(f2, list(fam) + [covering_region(grid)]) for fam in families]
    for f, regions in cases:
        for kind in ("hl", "sharp"):
            got = maximal(f, kind, regions)
            want = oracles.brute_maximal(f, regions, kind)
            assert np.allclose(got.values, want, rtol=1e-12, atol=1e-14)
        # the oracle's brentq root carries a relative error of about 1e-11
        got = maximal(f, "llogl", regions)
        want = oracles.brute_maximal(f, regions, "llogl")
        assert np.allclose(got.values, want, rtol=1e-9, atol=0.0)


def test_maximal_delta_composition(small_grid, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    fam = region_family(small_grid, sizes=(0.5, 1.5), center_stride=32)
    regions = list(fam) + [covering_region(small_grid)]
    powered = DiscreteFunction(small_grid, np.abs(f.values) ** 0.5)
    want = maximal(powered, "hl", regions).values ** 2.0
    got = maximal(f, "hl_delta", regions, delta=0.5)
    assert np.allclose(got.values, want, rtol=1e-12)
    with pytest.raises(ConfigurationError):
        maximal(f, "hl_delta", regions)
    with pytest.raises(ConfigurationError):
        maximal(f, "sharp_delta", regions, delta=1.5)


def test_maximal_dominates_function_on_small_balls(small_grid):
    # with balls shrinking to single nodes the maximal function reaches |f|
    f = sample("gauss(0.0, 1.0)", small_grid)
    h = small_grid.spacing
    fam = region_family(small_grid, sizes=(0.9 * h,), center_stride=1)
    got = maximal(f, "hl", list(fam))
    assert np.allclose(got.values, np.abs(f.values), rtol=1e-12)


def test_maximal_requires_cover(small_grid):
    f = sample("1.0", small_grid)
    fam = region_family(small_grid, sizes=(0.25,), centers=[(0.0,)])
    with pytest.raises(PreconditionError):
        maximal(f, "hl", list(fam))


def test_maximal_unknown_kind(small_grid):
    f = sample("1.0", small_grid)
    with pytest.raises(ConfigurationError):
        maximal(f, "median", [covering_region(small_grid)])


def test_maximal_llogl_constant(small_grid):
    # LlogL norm of a constant over any region is the constant itself
    f = sample("2.0", small_grid)
    regions = [covering_region(small_grid)]
    got = maximal(f, "llogl", regions)
    assert np.allclose(got.values, 2.0, rtol=1e-9)
