import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from amalgam import (
    ConfigurationError,
    DiscreteFunction,
    Grid,
    Kernel,
    PreconditionError,
    Region,
    ThetaModulus,
    apply_operator,
    covering_region,
    dini_integrals,
    maximal,
    region_family,
    sample,
)
from amalgam import operators


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
        ("power", 0.001),
        ("log", 0.5),
        ("log", 1.05),
        ("log", 1.1),
        ("log", 1.5),
        ("log", 2.0),
        ("log", 2.1),
        ("log", 4.0),
    ]
    for tag, param in cases:
        th = ThetaModulus(tag, param)
        got = dini_integrals(th)
        want_d, want_ld = oracles.dini_closed_forms(tag, param)
        for got_v, want_v in ((got.dini, want_d), (got.log_dini, want_ld)):
            if math.isinf(want_v):
                assert math.isinf(got_v)
            else:
                assert got_v == pytest.approx(want_v, rel=1e-12)


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
    with pytest.raises(ConfigurationError, match="kernel dim"):
        Kernel("riesz", 3)


def test_hilbert_pointwise():
    k = Kernel("hilbert", 1)
    d = np.array([0.5, -0.5, 2.0, 0.0])
    out = k.pointwise(d)
    assert out[0] == pytest.approx(2.0 / math.pi)
    assert out[1] == pytest.approx(-2.0 / math.pi)
    assert out[2] == pytest.approx(0.5 / math.pi)
    assert out[3] == 0.0
    with np.errstate(divide="ignore"):
        assert np.array_equal(out, np.where(d != 0, 1.0 / (math.pi * d), 0.0))
    assert np.array_equal(k.pointwise(d[:, None]), out)


def test_riesz_pointwise_1d():
    k = Kernel("riesz", 1)
    d = np.array([0.5, -0.5, 2.0, 0.0, -3.0 * 2.0**-12])
    out = k.pointwise(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(out, np.where(d != 0, d / np.abs(d) ** 2, 0.0))
    assert out.tolist()[:4] == [2.0, -2.0, 0.5, 0.0]
    assert np.array_equal(k.pointwise(d[:, None]), out)


def test_riesz_pointwise_2d():
    k0 = Kernel("riesz", 2, component=0)
    k1 = Kernel("riesz", 2, component=1)
    d = np.array([[3.0, 4.0]])
    assert k0.pointwise(d)[0] == pytest.approx(3.0 / 125.0)
    assert k1.pointwise(d)[0] == pytest.approx(4.0 / 125.0)


def test_apply_operator_matches_direct_1d():
    g = Grid(dim=1, points_per_axis=128)
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
    g = Grid(dim=1, points_per_axis=128)
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
    g = Grid(**grid_args)
    f = DiscreteFunction(g, rng.normal(size=g.n_nodes))
    b = DiscreteFunction(g, rng.normal(size=g.n_nodes))
    eps = eps_cells * g.spacing
    for symbol in (None, b):
        got = apply_operator(k, f, eps, symbol)
        want = oracles.direct_truncated(k, f, eps, symbol)
        assert np.allclose(got.values, want, rtol=rtol, atol=atol)


def _case(dim, n, k, half_width=4.0, eps_cells=3):
    tail = "" if (half_width, eps_cells) == (4.0, 3) else f"-hw{half_width:g}-eps{eps_cells}"
    return pytest.param(dim, n, k, half_width, eps_cells, id=f"{dim}d-{n}-{k.tag}{k.component}{tail}")


# the 2D 256^2 lattice has 257 spectrum columns, so its last column block holds one;
# the 1D 65536-node transform has 65537 columns, two blocks.  Half width 3.0 makes h
# no power of two, and the zero kernel's mirrors copy zeros
BLOCKED_CASES = [
    _case(1, 64, Kernel("hilbert", 1)),
    _case(1, 65536, Kernel("hilbert", 1)),
    _case(2, 16, Kernel("riesz", 2, component=0)),
    _case(2, 16, Kernel("riesz", 2, component=1)),
    _case(2, 256, Kernel("riesz", 2, component=0)),
    _case(2, 256, Kernel("riesz", 2, component=1)),
    _case(1, 64, Kernel("riesz", 1), 3.0, 2),
    _case(1, 4096, Kernel("hilbert", 1), 3.0, 5),
    _case(1, 64, Kernel("zero", 1), 3.0, 5),
    _case(2, 32, Kernel("riesz", 2, component=0), 3.0, 2),
    _case(2, 32, Kernel("riesz", 2, component=1), 3.0, 5),
    _case(2, 16, Kernel("zero", 2, component=0), 3.0, 2),
    _case(2, 16, Kernel("zero", 2, component=1)),
]


@pytest.fixture
def fresh_spectra():
    operators._kernel_spectrum.cache_clear()
    yield
    operators._kernel_spectrum.cache_clear()


def _blocked_matches_full_lattice(dim, n, k, half_width, eps_cells, seed):
    g = Grid(dim=dim, half_width=half_width, points_per_axis=n)
    eps = eps_cells * g.spacing
    want = oracles.full_lattice_spectrum(k, g, eps)
    got = operators._kernel_spectrum(k, g, eps)
    # == lets a mirrored zero kernel differ in the sign of a zero
    assert got.shape == want.shape and np.array_equal(got, want)
    f, b = (DiscreteFunction(g, v) for v in np.random.default_rng(seed).normal(size=(2, g.n_nodes)))
    for symbol in (None, b):
        assert (apply_operator(k, f, eps, symbol).values.tobytes()
                == oracles.stacked_apply(k, f, eps, symbol).tobytes())


@pytest.mark.parametrize("dim, n, k, half_width, eps_cells", BLOCKED_CASES)
def test_blocked_transforms_match_full_lattice(fresh_spectra, dim, n, k, half_width, eps_cells):
    # the orthant, its mirrors and rfftn's axis sequence run in blocks change no bit
    # of the spectrum, T f or [b, T] f
    _blocked_matches_full_lattice(dim, n, k, half_width, eps_cells, seed=n)


@pytest.mark.parametrize("dim, n, k, half_width, eps_cells", BLOCKED_CASES[:4])
def test_small_blocks_match_full_lattice(fresh_spectra, monkeypatch, dim, n, k, half_width,
                                         eps_cells):
    # 100-entry blocks: 2D lattice rows go 3 to a block (32 = 10 * 3 + 2), columns 3 (17 = 5 * 3 + 2)
    monkeypatch.setattr(operators, "_BLOCK", 100)
    _blocked_matches_full_lattice(dim, n, k, half_width, eps_cells, seed=n + 1)


@pytest.mark.parametrize("dim, n, k, half_width, eps_cells", BLOCKED_CASES)
def test_spectrum_evaluates_one_orthant(fresh_spectra, monkeypatch, dim, n, k, half_width,
                                        eps_cells):
    # columns n+1..2n-1 mirror columns n-1..1 and 2D rows n+1..2n-1 mirror rows n-1..1,
    # so only indices 0..n of each axis are evaluated
    offsets = []
    truncated = Kernel._truncated
    monkeypatch.setattr(Kernel, "_truncated", lambda self, cutoff, *x: (
        offsets.append(math.prod(np.broadcast_shapes(*map(np.shape, x))))
        or truncated(self, cutoff, *x)))
    g = Grid(dim=dim, half_width=half_width, points_per_axis=n)
    operators._kernel_spectrum(k, g, eps_cells * g.spacing)
    assert sum(offsets) == (n + 1) ** dim


PARITY_KERNELS = [Kernel("hilbert", 1), Kernel("riesz", 1), Kernel("zero", 1),
                  *(Kernel(tag, 2, component=c) for tag in ("riesz", "zero") for c in (0, 1))]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(PARITY_KERNELS), st.integers(0, 1),
       st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))
def test_kernel_parity_is_exact(k, axis, x):
    # both spectrum mirrors rest on K(.., -x_a, ..) = -K(x) on the component axis, +K(x) off it
    axis = min(axis, k.dim - 1)
    x = np.array(x[:k.dim])
    flipped = x.copy()
    flipped[axis] = -flipped[axis]
    sign = -1.0 if axis == k.component else 1.0
    assert k.pointwise(flipped)[0] == sign * k.pointwise(x)[0]


def test_spectrum_build_holds_a_few_blocks(fresh_spectra):
    g = Grid(dim=2, points_per_axis=256)
    tracemalloc.start()
    try:
        spectrum = operators._kernel_spectrum(Kernel("riesz", 2), g, 3.0 * g.spacing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 4.1 blocks of complex entries over the spectrum; the full lattice took 14
    assert peak < spectrum.nbytes + 5 * operators._BLOCK * 16


def test_commutator_apply_holds_a_few_node_arrays(fresh_spectra):
    g = Grid(dim=2, points_per_axis=512)
    k = Kernel("riesz", 2)
    eps = 3.0 * g.spacing
    f, b = (DiscreteFunction(g, v) for v in np.random.default_rng(5).normal(size=(2, g.n_nodes)))
    apply_operator(k, f, eps, b)
    tracemalloc.start()
    try:
        apply_operator(k, f, eps, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the image, b scaled, b f, the half spectrum (two) and a column block's
    # transforms (one): about six node arrays; the stacked transform took 27
    assert peak < 8 * 8 * g.n_nodes


OPERATOR_CASES = st.sampled_from(
    [(1, 64, Kernel("hilbert", 1)), (1, 512, Kernel("hilbert", 1)), (2, 16, Kernel("riesz", 2))]
)


@settings(max_examples=25, deadline=None)
@given(OPERATOR_CASES, st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0), st.floats(2.0, 9.0))
def test_commutator_with_constant_symbol_vanishes(case, seed, c, eps_cells):
    dim, n, k = case
    g = Grid(dim=dim, points_per_axis=n)
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
    grid = Grid(dim=dim, points_per_axis=n)
    f, g = np.random.default_rng(seed).normal(size=(2, grid.n_nodes))
    eps = eps_cells * grid.spacing
    Tf = apply_operator(k, DiscreteFunction(grid, f), eps).values
    Tg = apply_operator(k, DiscreteFunction(grid, g), eps).values
    scale = np.linalg.norm(Tf) * np.linalg.norm(g) + np.linalg.norm(f) * np.linalg.norm(Tg)
    assert abs(np.dot(Tf, g) + np.dot(f, Tg)) <= 1e-12 * scale


def test_operator_linearity():
    g = Grid(dim=1, points_per_axis=256)
    f1 = sample("gauss(0.0, 0.5)", g)
    f2 = sample("ind(-1.0, 0.0)", g)
    k = Kernel("hilbert", 1)
    eps = 4 * g.spacing
    lhs = apply_operator(k, DiscreteFunction(g, f1.values + f2.values), eps).values
    rhs = apply_operator(k, f1, eps).values + apply_operator(k, f2, eps).values
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_operator_epsilon_validation(small_grid):
    f = sample("1.0", small_grid)
    k = Kernel("hilbert", 1)
    with pytest.raises(ConfigurationError):
        apply_operator(k, f, small_grid.spacing)
    with pytest.raises(ConfigurationError):
        apply_operator(Kernel("riesz", 2), f, 4 * small_grid.spacing)
    b = sample("1.0", Grid(dim=1, points_per_axis=2 * small_grid.points_per_axis))
    with pytest.raises(ConfigurationError, match="symbol b"):
        apply_operator(k, f, 4 * small_grid.spacing, b)


@pytest.mark.parametrize("dim, points, vanishing", [(1, 256, 255), (2, 16, 22)])
def test_operator_rejects_a_truncation_past_every_node_pair(dim, points, vanishing):
    # the longest displacement is (points - 1) h sqrt(dim): 255 cells in 1D, 15 sqrt(2) in 2D,
    # the bound ExperimentSpec puts on eps_nodes
    grid = Grid(dim=dim, points_per_axis=points)
    f = sample("1.0", grid)
    kernel = Kernel("hilbert" if dim == 1 else "riesz", dim)
    with pytest.raises(ConfigurationError, match="longest node displacement"):
        apply_operator(kernel, f, vanishing * grid.spacing)
    assert np.abs(apply_operator(kernel, f, (vanishing - 1) * grid.spacing).values).max() > 0


def test_zero_kernel_maps_to_zero(small_grid):
    f = sample("gauss(0.0, 1.0)", small_grid)
    out = apply_operator(Kernel("zero", 1), f, 4 * small_grid.spacing)
    assert np.all(out.values == 0.0)


def test_maximal_matches_brute(small_grid, spill_families_2d, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    fam = region_family(small_grid, sizes=(0.5, 1.5), center_stride=32)
    cases = [(f, [fam, covering_region(small_grid).as_family()])]
    grid, spilling = spill_families_2d
    f2 = DiscreteFunction(grid, rng.normal(size=grid.n_nodes))
    cases += [(f2, [fam, covering_region(grid).as_family()]) for fam in spilling]
    for f, families in cases:
        # maximal takes the families, the oracle their regions one by one
        regions = [region for fam in families for region in fam]
        for kind in ("hl", "sharp"):
            got = maximal(f, kind, families)
            want = oracles.brute_maximal(f, regions, kind)
            assert np.allclose(got.values, want, rtol=1e-12, atol=1e-14)
        # the oracle's brentq root carries a relative error of about 1e-11
        got = maximal(f, "llogl", families)
        want = oracles.brute_maximal(f, regions, "llogl")
        assert np.allclose(got.values, want, rtol=1e-9, atol=0.0)


def test_maximal_delta_composition(small_grid, rng):
    f = DiscreteFunction(small_grid, rng.normal(size=small_grid.n_nodes))
    fam = region_family(small_grid, sizes=(0.5, 1.5), center_stride=32)
    families = [fam, covering_region(small_grid).as_family()]
    powered = DiscreteFunction(small_grid, np.abs(f.values) ** 0.5)
    want = maximal(powered, "hl", families).values ** 2.0
    got = maximal(f, "hl_delta", families, delta=0.5)
    assert np.allclose(got.values, want, rtol=1e-12)
    with pytest.raises(ConfigurationError):
        maximal(f, "hl_delta", families)
    with pytest.raises(ConfigurationError):
        maximal(f, "sharp_delta", families, delta=1.5)


def test_maximal_dominates_function_on_small_balls(small_grid):
    # with balls shrinking to single nodes the maximal function reaches |f|
    f = sample("gauss(0.0, 1.0)", small_grid)
    h = small_grid.spacing
    fam = region_family(small_grid, sizes=(0.9 * h,), center_stride=1)
    got = maximal(f, "hl", [fam])
    assert np.allclose(got.values, np.abs(f.values), rtol=1e-12)


def test_maximal_requires_cover(small_grid):
    f = sample("1.0", small_grid)
    fam = region_family(small_grid, sizes=(0.25,), centers=[(0.0,)])
    with pytest.raises(PreconditionError):
        maximal(f, "hl", [fam])


def test_maximal_unknown_kind(small_grid):
    f = sample("1.0", small_grid)
    with pytest.raises(ConfigurationError):
        maximal(f, "median", [covering_region(small_grid).as_family()])


def test_maximal_llogl_constant(small_grid):
    # LlogL norm of a constant over any region is the constant itself
    f = sample("2.0", small_grid)
    got = maximal(f, "llogl", [covering_region(small_grid).as_family()])
    assert np.allclose(got.values, 2.0, rtol=1e-9)
