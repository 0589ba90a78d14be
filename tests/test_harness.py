import json
import math
from dataclasses import replace
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
    BumpParams,
    CaseResult,
    ConfigurationError,
    Corpus,
    DiscreteFunction,
    ExperimentSpec,
    Grid,
    HypothesisError,
    Kernel,
    PreconditionError,
    Region,
    RegionFamily,
    ThetaModulus,
    Weight,
    YoungFunction,
    apply_operator,
    bmo_lemma_check,
    bump_check,
    covering_region,
    doubling_profile,
    luxemburg_table,
    maximal,
    muckenhoupt_characteristic,
    region_family,
    sample,
    sharp_domination_check,
    theorem_experiment,
    weight_from_expression,
)
from amalgam import harness, operators
from amalgam.harness import _max_rel_drift

TINY = dict(points=512, center_stride=128, corpus_n=3, sizes=(0.5, 1.0))


def tiny_spec(theorem, **kw):
    args = dict(TINY)
    args.update(kw)
    return ExperimentSpec(theorem, **args)


def test_corpus_deterministic():
    a = Corpus.generate(8, seed=3)
    b = Corpus.generate(8, seed=3)
    assert [m.expression for m in a.members] == [m.expression for m in b.members]
    c = Corpus.generate(8, seed=4)
    assert [m.expression for m in a.members] != [m.expression for m in c.members]


def test_corpus_labels_unique():
    corpus = Corpus.generate(20, seed=0)
    labels = [m.label for m in corpus.members]
    assert len(set(labels)) == 20


def test_corpus_respects_margin(small_grid):
    corpus = Corpus.generate(12, seed=0, half_width=4.0, margin=1.0)
    for label, f in corpus.realize(small_grid):
        outside = np.abs(small_grid.axis) > 3.0 + 1e-9
        assert np.all(f.values[outside] == 0.0), label
        assert np.any(f.values != 0.0), label


def test_corpus_renders_on_a_grid_of_its_dimension(small_grid, tiny_grid_2d):
    with pytest.raises(ConfigurationError, match="corpus and grid dimensions"):
        Corpus.generate(2, seed=0).realize(tiny_grid_2d)


def test_case_result_edges():
    ok = CaseResult("a", 1.0, 2.0)
    assert ok.ratio == 0.5
    assert not ok.violation
    zero = CaseResult("b", 0.0, 0.0)
    assert zero.ratio == 0.0
    assert not zero.violation
    bad = CaseResult("c", 1.0, 0.0)
    assert math.isinf(bad.ratio)
    assert bad.violation


def test_drift_is_relative_or_absolute_from_zero():
    base = [CaseResult("a", 1.0, 2.0), CaseResult("b", 0.0, 1.0), CaseResult("c", 0.0, 0.0)]
    # a: 0.5 -> 0.75 is a relative drift of 0.5; b: 0 -> 0.125 drifts by 0.125
    other = [CaseResult("a", 1.5, 2.0), CaseResult("b", 0.125, 1.0), CaseResult("c", 0.0, 0.0)]
    assert _max_rel_drift(base, other) == 0.5
    # a ratio that appears from zero counts by its absolute size
    assert _max_rel_drift(base, [CaseResult("b", 3.0, 1.0)]) == 3.0
    assert _max_rel_drift(base, [CaseResult("c", 0.0, 0.0)]) == 0.0
    # labels missing on either side are skipped; an infinite ratio is an infinite drift
    assert _max_rel_drift(base, [CaseResult("z", 9.0, 1.0)]) == 0.0
    assert math.isinf(_max_rel_drift(base, [CaseResult("a", 1.0, 0.0)]))


def test_bump_check_unit_weights_exact(small_grid):
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=64)
    one = weight_from_expression("1.0", small_grid)
    for mode in ("two", "power", "orlicz"):
        res = bump_check(one, one, BumpParams(2.0, 1.5, mode), fam)
        assert res.value == 1.0, mode
        # every region ties, and the first in [size, center] order is the argmax
        assert (res.argmax_center, res.argmax_size) == (fam.centers[0], fam.sizes[0]), mode


def test_bump_check_power_dominates_two(small_grid):
    # r > 1 power means are larger than plain means by Jensen
    fam = region_family(small_grid, sizes=(0.5, 1.0), center_stride=64)
    u = weight_from_expression("r**(0.5)", small_grid)
    two = bump_check(u, u, BumpParams(2.0, 1.0, "two"), fam).value
    power = bump_check(u, u, BumpParams(2.0, 1.5, "power"), fam).value
    assert power >= two * (1 - 1e-12)


BUMP_GRIDS = {
    "1d": (Grid(dim=1, half_width=4.0, points_per_axis=256), "ball"),
    "2d-ball": (Grid(dim=2, half_width=2.0, points_per_axis=32), "ball"),
    "2d-cube": (Grid(dim=2, half_width=2.0, points_per_axis=32), "cube"),
}


@pytest.mark.parametrize("mode", ["two", "power", "orlicz"])
@pytest.mark.parametrize("where", sorted(BUMP_GRIDS))
def test_bump_check_matches_oracle(where, mode):
    grid, shape = BUMP_GRIDS[where]
    h = grid.spacing
    dim = grid.dim
    ax = grid.axis
    # lattice centers, one of them at the box edge so that the large sizes
    # spill past it, and one center between nodes, whose smallest region
    # holds no node
    lattice = [(ax[3],) * dim, (ax[len(ax) // 2 + 1],) + (ax[5],) * (dim - 1), (ax[-1],) * dim]
    centers = [tuple(float(c) for c in pt) for pt in lattice] + [(float(ax[10]) + h / 2,) * dim]
    fam = region_family(grid, sizes=(h / 4, 0.5, 1.0), shape=shape, centers=centers)
    # oscillating weights, so that the sup is a region of many nodes, tilted
    # so that it has no ties
    osc = "sin(7.0 * x)" if dim == 1 else "sin(7.0 * x + 5.0 * y)"
    tilt = "exp(0.3 * x)" if dim == 1 else "exp(0.3 * x - 0.2 * y)"
    u = weight_from_expression(f"{tilt} * (1.5 + {osc})", grid)
    v = weight_from_expression(f"(1.5 + {osc}) * (1.0 + r)", grid)
    for p, r in ((2.0, 1.5), (3.0, 1.25)):
        params = BumpParams(p, r, mode)
        got = bump_check(u, v, params, fam)
        value, center, size = oracles.brute_bump(u, v, p, r, mode, fam)
        assert got.value == pytest.approx(value, rel=1e-9)
        assert got.argmax_center == center and got.argmax_size == size
        # region by region; a family whose only region is empty still raises
        for size in fam.sizes:
            for center in fam.centers:
                one = RegionFamily(shape, (center,), (size,))
                want = oracles.brute_bump(u, v, p, r, mode, one)
                if want is None:
                    with pytest.raises(PreconditionError):
                        bump_check(u, v, params, one)
                else:
                    assert bump_check(u, v, params, one).value == pytest.approx(want[0], rel=1e-9)


def _full_table_bump(u, v, params, fam):
    """The orlicz-mode sup from the full luxemburg_table times the u side: value, center, size."""
    grid, p, r = u.grid, params.p, params.r
    sums, counts = amalgam.grid.window_sums(fam, grid, [u.values**r])
    with np.errstate(divide="ignore", invalid="ignore"):
        u_side = (sums[0] / counts) ** (1.0 / (r * p))
    v_side = luxemburg_table(fam, grid, v.values ** (-1.0 / p), YoungFunction.llogl(p / (p - 1.0)))
    table = np.where(counts > 0, u_side * v_side, -np.inf)
    best = table.max()
    # the first region attaining it, in [size, center] order
    s, c = [int(k[0]) for k in np.nonzero(table == best)]
    return best, fam.centers[c], fam.sizes[s]


PRUNE_GRIDS = {
    "1d": (Grid(dim=1, half_width=4.0, points_per_axis=64), "ball"),
    "2d-ball": (Grid(dim=2, half_width=2.0, points_per_axis=16), "ball"),
    "2d-cube": (Grid(dim=2, half_width=2.0, points_per_axis=16), "cube"),
}


@st.composite
def bump_weight(draw, grid, vanish):
    """A positive weight, one or random; with vanish, 5e-324 on a block, where u**r is 0 for r > 1."""
    n = grid.n_nodes
    values = draw(st.just(1.0) | hnp.arrays(np.float64, n, elements=st.floats(1e-3, 1e3))) * np.ones(n)
    if vanish:
        lo = draw(st.integers(0, n - 1))
        values[lo:draw(st.integers(lo + 1, n))] = 5e-324
    return Weight(DiscreteFunction(grid, values))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(PRUNE_GRIDS)),
    st.sampled_from([(2.0, 1.5), (3.0, 1.0), (1.5, 1.25)]),
    st.sampled_from([1, 100, 2**14]),
    st.data(),
)
def test_bump_check_prune_changes_no_bit(where, pr, limit, data):
    grid, shape = PRUNE_GRIDS[where]
    h = grid.spacing
    u = data.draw(bump_weight(grid, data.draw(st.booleans())))
    v = data.draw(bump_weight(grid, False))
    # lattice centers, and one between nodes whose smallest region holds none;
    # the sizes reach past the box
    ax = grid.axis[::3].tolist()
    centers = [(x,) * grid.dim for x in ax] + [(grid.axis[5] + h / 2,) * grid.dim]
    fam = region_family(grid, sizes=(h / 4, 0.3, 1.0, 6.0), shape=shape, centers=centers)
    params = BumpParams(*pr, "orlicz")
    # batches of one region, of a few, and of all regions of a size share one bar
    with mock.patch.object(amalgam.grid, "_BATCH_NODES", limit):
        got = bump_check(u, v, params, fam)
    want = _full_table_bump(u, v, params, fam)
    assert (got.value, got.argmax_center, got.argmax_size) == want


def test_bump_gate_solves_few_entries(monkeypatch):
    # the bump gate of the two_weight_2d benchmark on its 128^2 grid: the band
    # bracket and the exact solve of the 44 regions it cannot rule out read 0.32
    # Young evaluations per node entry of the family; the full table reads 2.30
    spec = ExperimentSpec("two_weight_strong", dim=2, points=128, kernel_tag="riesz",
                          u_expr="r**0.3", v_expr="r**0.3", center_stride=8, corpus_n=3)
    ctx = harness._Context(spec, 128)
    entries = amalgam.grid.window_sums(ctx.family, ctx.grid, ())[1].sum()
    evaluations = []

    def counted(fn):
        def call(Y, t, *rest):
            evaluations.append(t.size)
            return fn(Y, t, *rest)
        return call

    # the Newton passes evaluate Y through _values too
    monkeypatch.setattr(YoungFunction, "_values", counted(YoungFunction._values))
    bump_check(ctx.u, ctx.v, spec.bump, ctx.family)
    assert sum(evaluations) <= 0.35 * entries


def test_bump_params_validation(small_grid):
    with pytest.raises(ConfigurationError):
        BumpParams(1.0, 1.5, "two")
    with pytest.raises(ConfigurationError):
        BumpParams(2.0, 0.5, "two")
    with pytest.raises(ConfigurationError):
        BumpParams(2.0, 1.5, "median")
    for p, r in ((math.nan, 1.5), (math.inf, 1.5), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(ConfigurationError, match="< inf"):
            BumpParams(p, r, "power")
    fam = region_family(small_grid, (1.0,), center_stride=64)
    other = Grid(dim=1, points_per_axis=2 * small_grid.points_per_axis)
    with pytest.raises(ConfigurationError, match="different grids"):
        bump_check(weight_from_expression("1.0", small_grid), weight_from_expression("1.0", other),
                   BumpParams(2.0, 1.5, "two"), fam)


def test_bmo_lemma_log_growth(desk_grid):
    b = sample("logabs", desk_grid)
    fam = region_family(desk_grid, sizes=(0.125, 0.25, 0.5), centers=[(0.0,)])
    reg = Region("ball", (0.0,), 0.125)
    res = bmo_lemma_check(b, reg, fam, jmax=4)
    assert res.bmo > 0.0
    # means of log over dilated centered balls step by log 2 per doubling
    for j, d in enumerate(res.diffs, start=1):
        assert d == pytest.approx((j + 1) * math.log(2.0), abs=2e-3)
    for g in res.growth_ratios:
        assert 0.0 < g < 1.5
    assert res.weighted_ratios is None


def test_bmo_lemma_weighted(desk_grid):
    b = sample("logabs", desk_grid)
    fam = region_family(desk_grid, sizes=(0.125, 0.25), centers=[(0.0,)])
    reg = Region("ball", (0.0,), 0.125)
    w = weight_from_expression("r**(0.5)", desk_grid)
    res = bmo_lemma_check(b, reg, fam, jmax=3, p=2.0, w=w)
    assert res.weighted_ratios is not None
    assert all(math.isfinite(v) and v > 0 for v in res.weighted_ratios)


def test_bmo_lemma_preconditions(desk_grid):
    b = sample("logabs", desk_grid)
    fam = region_family(desk_grid, sizes=(0.125,), centers=[(0.0,)])
    with pytest.raises(PreconditionError):
        bmo_lemma_check(b, Region("ball", (0.0,), 1.0), fam, jmax=4)  # spills
    const = sample("1.0", desk_grid)
    with pytest.raises(PreconditionError):
        bmo_lemma_check(const, Region("ball", (0.0,), 0.125), fam, jmax=1)
    with pytest.raises(ConfigurationError, match="jmax"):
        bmo_lemma_check(b, Region("ball", (0.0,), 0.125), fam, jmax=0)
    w = weight_from_expression("1.0", desk_grid)
    for p in (0.0, -1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="1 <= p < inf"):
            bmo_lemma_check(b, Region("ball", (0.0,), 0.125), fam, jmax=1, p=p, w=w)


def test_sharp_domination_plain(desk_grid):
    f = sample("ind(-1.0, 1.0)", desk_grid)
    fam = region_family(desk_grid, sizes=(0.5, 1.0), center_stride=512)
    rep = sharp_domination_check(
        Kernel("hilbert", 1), f, fam, 4 * desk_grid.spacing, delta=0.5
    )
    assert rep.kind == "operator"
    assert not rep.violation
    assert 0.0 < rep.max_ratio < 50.0


def test_sharp_domination_commutator(desk_grid):
    f = sample("gauss(0.5, 0.5)", desk_grid)
    b = sample("logabs", desk_grid)
    fam = region_family(desk_grid, sizes=(0.5, 1.0), center_stride=512)
    rep = sharp_domination_check(
        Kernel("hilbert", 1), f, fam, 4 * desk_grid.spacing, delta=0.5, b=b
    )
    assert rep.kind == "commutator"
    assert not rep.violation
    assert math.isfinite(rep.max_ratio)


def test_no_path_walks_a_family_region_by_region(small_grid):
    # family statistics read grid.py's family layer; iterating a family's Regions raises
    def walk(family):
        raise AssertionError("a family was walked region by region")

    f = sample("gauss(0.5, 0.5)", small_grid)
    b = sample("logabs", small_grid)
    w = weight_from_expression("r**(0.5)", small_grid)
    fam = region_family(small_grid, sizes=(0.25, 0.5), center_stride=32)
    cover = [fam, covering_region(small_grid).as_family()]
    eps = 4 * small_grid.spacing
    with mock.patch.object(RegionFamily, "__iter__", walk):
        for theorem in harness.THEOREMS:
            theorem_experiment(tiny_spec(theorem))
        for commutator in (None, b):
            sharp_domination_check(Kernel("hilbert", 1), f, fam, eps, delta=0.5, b=commutator)
        for kind in ("hl", "sharp", "hl_delta", "sharp_delta", "llogl"):
            maximal(f, kind, cover, delta=0.5)
        for mode in ("two", "power", "orlicz"):
            bump_check(w, w, BumpParams(2.0, 1.5, mode), fam)
        for p in (1.0, 2.0):
            muckenhoupt_characteristic(w, p, fam)
        doubling_profile(w, fam)
        bmo_lemma_check(b, Region("ball", (0.0,), 0.125), fam, jmax=2, p=2.0, w=w)
    with pytest.raises(AssertionError, match="region by region"), \
            mock.patch.object(RegionFamily, "__iter__", walk):
        list(fam)


def test_sharp_domination_validation(desk_grid):
    f = sample("1.0", desk_grid)
    fam = region_family(desk_grid, sizes=(0.5,), center_stride=512)
    with pytest.raises(ConfigurationError):
        sharp_domination_check(Kernel("hilbert", 1), f, fam, 0.01, delta=1.0)
    b = sample("logabs", desk_grid)
    with pytest.raises(ConfigurationError):
        sharp_domination_check(
            Kernel("hilbert", 1), f, fam, 0.01, delta=0.5, b=b, eps_exponent=0.4
        )


def test_experiment_p_defaults_by_theorem():
    for theorem in ("weak", "endpoint", "two_weight_endpoint"):
        assert ExperimentSpec(theorem).p == 1.0
    for theorem in ("strong", "commutator", "two_weight_weak", "two_weight_strong"):
        assert ExperimentSpec(theorem).p == 2.0
    assert ExperimentSpec("two_weight_strong", p=3.0, alpha=4.0).p == 3.0


def test_experiment_alpha_follows_p_only_by_default():
    # an unset alpha read 2.5, so ExperimentSpec("strong", p=3.0) was rejected
    assert ExperimentSpec("strong").alpha == 2.5
    assert ExperimentSpec("strong", p=3.0).alpha == 3.0
    assert ExperimentSpec("two_weight_weak", p=1.5).alpha == 2.5
    with pytest.raises(ConfigurationError, match="need 1 <= p <= alpha"):
        ExperimentSpec("strong", p=3.0, alpha=2.0)


@pytest.mark.parametrize("theorem, p, bump_p", [
    ("two_weight_strong", 3.0, 3.0), ("two_weight_commutator", 1.5, 1.5),
    ("two_weight_weak", 2.0, 2.0), ("two_weight_weak", 1.0, None),
    ("two_weight_endpoint", 1.0, None), ("strong", 3.0, None),
])
def test_two_weight_bump_takes_the_theorem_p_above_one(theorem, p, bump_p):
    assert ExperimentSpec(theorem, p=p).bump.p == bump_p
    # bump.p stays in use at p = 1, and must agree with p above it
    if bump_p is None:
        assert ExperimentSpec(theorem, p=p, bump=BumpParams(3.5)).bump.p == 3.5
    else:
        assert ExperimentSpec(theorem, p=p, bump=BumpParams(p)).bump.p == p
        with pytest.raises(ConfigurationError, match=f"bump.p = 3.5 differs from p = {p!r}"):
            ExperimentSpec(theorem, p=p, bump=BumpParams(3.5))


def test_bump_gate_runs_at_the_theorem_p():
    # the gate read bump.p = 2 at every p
    spec = tiny_spec("two_weight_strong", p=3.0, u_expr="r**0.3", v_expr="r**0.3")
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    gate = next(h for h in report.hypotheses if h.name == "bump_plateau")
    ctx = harness._Context(spec, spec.points)
    at = {p: bump_check(ctx.u, ctx.v, BumpParams(p), ctx.family).value for p in (2.0, 3.0)}
    assert gate.values[1] == at[3.0] != at[2.0]


def test_experiment_rejects_negative_refinements():
    # refinements=-1 reported no grid_refinement, where the CLI's --refine rejects it
    with pytest.raises(ConfigurationError, match="refinements must be at least 0, got -1"):
        theorem_experiment(tiny_spec("strong"), refinements=-1)


def test_a_pass_is_added_through_the_table_alone(monkeypatch):
    spec = tiny_spec("strong", eps_nodes=8)
    passes, run_cases = harness._passes, harness._run_cases
    monkeypatch.setattr(harness, "_passes",
                        lambda *a: passes(*a) + [("eps_quarter", (0, 8), (0, 8 // 4))])
    runs = []
    monkeypatch.setattr(harness, "_run_cases", lambda ctx, n: runs.append(
        (ctx.grid.points_per_axis, n)) or run_cases(ctx, n))
    report = theorem_experiment(spec)
    # the base run, the truncation halving, refinement level 1 and the new run, each once
    assert runs == [(512, 8), (512, 4), (1024, 16), (512, 2)]
    ctx = harness._Context(spec, spec.points)
    direct = _max_rel_drift(run_cases(ctx, 8), run_cases(ctx, 2))
    assert report.stability["eps_quarter"] == direct > 0.0
    assert set(report.stability) == {"epsilon_halving", "grid_refinement", "eps_quarter"}


def test_experiment_spec_validation():
    with pytest.raises(ConfigurationError):
        ExperimentSpec("nope")
    with pytest.raises(ConfigurationError):
        ExperimentSpec("weak", p=2.0)
    with pytest.raises(ConfigurationError):
        ExperimentSpec("strong", p=1.0)
    with pytest.raises(ConfigurationError):
        ExperimentSpec("strong", eps_nodes=1)


@pytest.mark.parametrize("factors", [(-1.0, 1.0), (0.0, 1.0), (math.inf, 1.0), (math.nan,), ()])
def test_experiment_spec_rejects_lambda_factors_not_positive(factors):
    # a level lam = factor * max|f| must be finite and > 0: a negative factor
    # read a ratio of 4.2, and a zero factor an rhs of -inf; no factor ran no case
    with pytest.raises(ConfigurationError, match="lambda_factors"):
        ExperimentSpec("endpoint", lambda_factors=factors)
    assert ExperimentSpec("endpoint", lambda_factors=(0.5, 1.0)).lambda_factors == (0.5, 1.0)


@pytest.mark.parametrize("dim, points, vanishing", [(1, 256, 255), (2, 16, 22)])
def test_experiment_spec_rejects_eps_nodes_where_the_operator_vanishes(dim, points, vanishing):
    # no displacement exceeds (points - 1) h sqrt(dim): 255 cells in 1D, 15 sqrt(2) = 21.2 in 2D
    kernel = "hilbert" if dim == 1 else "riesz"
    spec = dict(dim=dim, points=points, kernel_tag=kernel)
    with pytest.raises(ConfigurationError, match="eps_nodes"):
        ExperimentSpec("strong", eps_nodes=vanishing, **spec)
    kept = ExperimentSpec("strong", eps_nodes=vanishing - 1, **spec)
    # one node pair, the box's two far corners, survives the truncation
    grid = Grid(dim=dim, half_width=kept.half_width, points_per_axis=points)
    f = DiscreteFunction(grid, np.eye(1, grid.n_nodes).ravel())
    image = apply_operator(Kernel(kernel, dim), f, kept.eps_nodes * grid.spacing)
    big = np.abs(image.values) > 1e-9 * np.abs(image.values).max()
    assert np.flatnonzero(big).tolist() == [grid.n_nodes - 1]


def test_experiment_spec_needs_a_half_grid():
    # every theorem runs a plateau gate, whose half grid must be a valid grid
    with pytest.raises(ConfigurationError, match="half grid"):
        ExperimentSpec("strong", points=8)
    assert ExperimentSpec("strong", points=16).points == 16


@pytest.mark.parametrize("theorem", ["strong", "two_weight_strong"])
@pytest.mark.parametrize("dim, points, stride", [
    (1, 256, 3), (1, 256, 32), (2, 32, 3), (2, 32, 8),
])
def test_one_center_set_per_run(monkeypatch, theorem, dim, points, stride):
    built = []

    def recording_family(grid, *args, **kwargs):
        family = region_family(grid, *args, **kwargs)
        built.append((grid.points_per_axis, family.centers))
        return family

    monkeypatch.setattr(harness, "region_family", recording_family)
    spec = tiny_spec(theorem, dim=dim, points=points, center_stride=stride, corpus_n=2,
                     kernel_tag="riesz" if dim == 2 else "hilbert")
    theorem_experiment(spec, refinements=2)
    base = region_family(Grid(dim=dim, points_per_axis=points), spec.sizes,
                         center_stride=stride).centers
    # the plateau gate's half, same and double grids, and two refinement
    # levels, the first on the gate's double grid: each grid is built once
    assert sorted(n for n, _ in built) == [points // 2, points, 2 * points, 4 * points]
    assert all(centers == base for _, centers in built)


@pytest.mark.parametrize("theorem, dim", [
    ("strong", 1), ("commutator", 1), ("endpoint", 1), ("two_weight_strong", 1), ("commutator", 2),
])
def test_each_kernel_spectrum_is_built_once(monkeypatch, theorem, dim):
    # a run reads each (kernel, grid, eps) spectrum in one stretch, so the
    # cache of the last two misses once per distinct spectrum
    cached = operators._kernel_spectrum
    keys = []
    monkeypatch.setattr(operators, "_kernel_spectrum", lambda *key: keys.append(key) or cached(*key))
    cached.cache_clear()
    spec = tiny_spec(theorem, dim=dim, points=512 if dim == 1 else 32, center_stride=8,
                     kernel_tag="riesz" if dim == 2 else "hilbert")
    try:
        theorem_experiment(spec, refinements=2)
        info = cached.cache_info()
    finally:
        cached.cache_clear()
    assert info.misses == len(set(keys)) < len(keys)


@pytest.mark.parametrize("corpus_n", [3, 6])
@pytest.mark.parametrize("theorem", ["strong", "weak", "endpoint", "two_weight_commutator"])
def test_one_norm_call_per_side_per_pass(monkeypatch, theorem, corpus_n):
    # both sides on the base grid, the image side of the truncation halving and
    # both sides of refinement level 1, whatever the corpus size; each pass
    # renders each member's image once, the endpoint levels included
    norms, images = [], []
    amalgam_norms, apply = harness.amalgam_norms, harness.apply_operator
    monkeypatch.setattr(harness, "amalgam_norms", lambda *a: norms.append(a) or amalgam_norms(*a))
    monkeypatch.setattr(harness, "apply_operator", lambda *a: images.append(a) or apply(*a))
    report = theorem_experiment(tiny_spec(theorem, corpus_n=corpus_n))
    assert len(norms) == 5
    assert len(images) == 3 * corpus_n
    assert len(report.cases) == corpus_n * (9 if theorem == "endpoint" else 1)


@pytest.mark.parametrize("theorem", ["weak", "endpoint"])
def test_odd_eps_nodes_halves_to_the_two_node_floor(theorem):
    # eps_nodes = 3 halves to 1, below the floor of 2 cells, so the pass runs at 2
    spec = tiny_spec(theorem, eps_nodes=3, lambda_factors=(0.5, 2.0))
    report = theorem_experiment(spec, refinements=0)
    at = {n: theorem_experiment(replace(spec, eps_nodes=n), refinements=0, eps_stability=False)
          for n in (2, 3)}
    assert report.cases == at[3].cases
    assert report.stability["epsilon_halving"] == _max_rel_drift(at[3].cases, at[2].cases)
    assert report.stability["epsilon_halving"] > 0.0


def test_strong_experiment_report():
    spec = tiny_spec("strong")
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    assert report.experiment == "strong"
    assert len(report.cases) == 3
    assert report.violations == ()
    assert report.hypotheses_ok
    assert math.isfinite(report.max_ratio)
    assert report.argmax_label
    gate_names = [h.name for h in report.hypotheses]
    assert "dini_modulus" in gate_names
    assert "weight_class_plateau" in gate_names


@pytest.mark.parametrize("theorem, tag, param, passed", [
    ("strong", "log", 1.05, True),  # Dini integral 1/(beta - 1) = 20
    ("strong", "power", 0.001, True),  # 1/delta = 1000
    ("commutator", "log", 2.1, True),  # log-Dini 1/((beta - 1)(beta - 2)) = 9.09
    ("strong", "log", 1.0, False),  # the Dini integral diverges for beta <= 1
    ("commutator", "log", 1.5, False),  # the log-Dini integral diverges for beta <= 2
])
def test_dini_gate_verdict(theorem, tag, param, passed):
    spec = ExperimentSpec(theorem, points=64, corpus_n=2, theta=ThetaModulus(tag, param))
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    gate = next(h for h in report.hypotheses if h.name == "dini_modulus")
    assert gate.passed is passed


def test_experiment_stability_fields():
    spec = tiny_spec("strong")
    report = theorem_experiment(spec, refinements=1, eps_stability=True)
    assert "epsilon_halving" in report.stability
    assert "grid_refinement" in report.stability
    assert report.stability["grid_refinement"] < 0.5


def test_endpoint_lambda_labels():
    spec = tiny_spec("endpoint", p=1.0, alpha=1.0, q=4.0, lambda_factors=(0.5, 2.0))
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    labels = [c.label for c in report.cases]
    assert len(labels) == 6
    assert all("@x" in lab for lab in labels)
    assert all(c.lam is not None for c in report.cases)


def test_endpoint_levels_under_outer_measure_match_oracle():
    spec = tiny_spec(
        "endpoint", p=1.0, alpha=1.0, q=4.0, w_expr="r**-0.3", mu_expr="1.0 + 0.5 * r",
        center_stride=32, lambda_factors=(0.25, 1.0, 4.0),
    )
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    by_label = {c.label: c for c in report.cases}
    grid = Grid(points_per_axis=spec.points)
    fam = region_family(grid, sizes=spec.sizes, center_stride=spec.center_stride)
    w = sample(spec.w_expr, grid).values
    mu = sample(spec.mu_expr, grid).values
    b = sample(spec.b_expr, grid)
    exceeded = 0
    for label, f in Corpus.generate(spec.corpus_n, seed=spec.seed).realize(grid):
        image = apply_operator(Kernel("hilbert", 1), f, spec.eps_nodes * grid.spacing, b)
        vmax = float(np.max(np.abs(f.values)))
        for factor in spec.lambda_factors:
            lhs, rhs = oracles.endpoint_level(
                grid, fam, image, f, factor * vmax, w, w, spec.alpha, spec.q,
                YoungFunction.phi(), mu_vals=mu,
            )
            case = by_label[f"{label}@x{factor!r}"]
            assert rhs > 0.0
            exceeded += lhs > 0.0
            assert case.lhs == pytest.approx(lhs, rel=1e-10, abs=0.0)
            assert case.rhs == pytest.approx(rhs, rel=1e-10, abs=0.0)
    assert exceeded >= len(report.cases) // 2


def test_endpoint_levels_in_2d_match_oracle():
    spec = tiny_spec(
        "endpoint", dim=2, points=32, kernel_tag="riesz", p=1.0, alpha=1.0, q=4.0,
        w_expr="r**-0.3", mu_expr="1.0 + 0.5 * r", center_stride=4,
        lambda_factors=(2.0**-6, 2.0**-4, 0.25),
    )
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    by_label = {c.label: c for c in report.cases}
    grid = Grid(dim=2, points_per_axis=spec.points)
    fam = region_family(grid, sizes=spec.sizes, center_stride=spec.center_stride)
    w = sample(spec.w_expr, grid).values
    mu = sample(spec.mu_expr, grid).values
    b = sample(spec.b_expr, grid)
    corpus = Corpus.generate(spec.corpus_n, spec.seed, spec.half_width, spec.corpus_margin, 2)
    exceeded = 0
    for label, f in corpus.realize(grid):
        image = apply_operator(Kernel("riesz", 2), f, spec.eps_nodes * grid.spacing, b)
        vmax = float(np.max(np.abs(f.values)))
        for factor in spec.lambda_factors:
            lhs, rhs = oracles.endpoint_level(
                grid, fam, image, f, factor * vmax, w, w, spec.alpha, spec.q,
                YoungFunction.phi(), mu_vals=mu,
            )
            case = by_label[f"{label}@x{factor!r}"]
            assert rhs > 0.0
            exceeded += lhs > 0.0
            assert case.lhs == pytest.approx(lhs, rel=1e-10, abs=0.0)
            assert case.rhs == pytest.approx(rhs, rel=1e-10, abs=0.0)
    assert exceeded >= len(report.cases) // 2


def _two_weight_run(theorem, dim, **kw):
    """A tiny two-weight run under an outer measure, with its grid, family, weights and images."""
    grid_args = dict(points=512, kernel_tag="hilbert") if dim == 1 else dict(
        points=32, kernel_tag="riesz", center_stride=4)
    spec = tiny_spec(theorem, dim=dim, u_expr="r**0.3", v_expr="1.0 + r**0.5",
                     mu_expr="1.0 + 0.5 * r", **grid_args, **kw)
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    grid = Grid(dim=dim, points_per_axis=spec.points)
    fam = region_family(grid, sizes=spec.sizes, center_stride=spec.center_stride)
    u, v, mu = (sample(e, grid) for e in (spec.u_expr, spec.v_expr, spec.mu_expr))
    b = sample(spec.b_expr, grid) if theorem == "two_weight_endpoint" else None
    kernel = Kernel(spec.kernel_tag, dim)
    corpus = Corpus.generate(spec.corpus_n, spec.seed, spec.half_width, spec.corpus_margin, dim)
    members = [(label, f, apply_operator(kernel, f, spec.eps_nodes * grid.spacing, b))
               for label, f in corpus.realize(grid)]
    return spec, report, grid, fam, (u, v, mu), members


@pytest.mark.parametrize("dim", [1, 2])
def test_two_weight_endpoint_levels_match_oracle(dim):
    spec, report, grid, fam, (u, v, mu), members = _two_weight_run(
        "two_weight_endpoint", dim, lambda_factors=(2.0**-6, 2.0**-4, 0.25, 1.0))
    by_label = {c.label: c for c in report.cases}
    exceeded = 0
    for label, f, image in members:
        vmax = float(np.max(np.abs(f.values)))
        for factor in spec.lambda_factors:
            # the oracle scales both sides by the mass of its first weight
            level = [oracles.endpoint_level(grid, fam, image, f, factor * vmax, wt.values, wt.values,
                                            spec.alpha, spec.q, YoungFunction.phi(), mu.values)
                     for wt in (u, v)]
            lhs, rhs = level[0][0], level[1][1]
            case = by_label[f"{label}@x{factor!r}"]
            assert rhs > 0.0
            exceeded += lhs > 0.0
            assert case.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
            assert case.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
    assert len(by_label) == len(report.cases) == spec.corpus_n * len(spec.lambda_factors)
    assert exceeded >= len(report.cases) // 2


@pytest.mark.parametrize("dim", [1, 2])
def test_two_weight_weak_matches_oracle(dim):
    spec, report, grid, fam, (u, v, mu), members = _two_weight_run("two_weight_weak", dim)
    assert [c.label for c in report.cases] == [label for label, _, _ in members]
    for case, (_, f, image) in zip(report.cases, members):
        lhs = oracles.brute_amalgam_strong(image, fam, spec.p, spec.alpha, spec.q, w=u, mu=mu,
                                           variant="weak")
        rhs = oracles.brute_amalgam_strong(f, fam, spec.p, spec.alpha, spec.q, w=v, mu=mu)
        assert lhs > 0.0 and rhs > 0.0
        assert case.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
        assert case.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_commutator_gates_include_symbol():
    spec = tiny_spec("commutator")
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    names = [h.name for h in report.hypotheses]
    assert "symbol_oscillation" in names


def test_two_weight_gates_include_bump():
    spec = tiny_spec("two_weight_strong", u_expr="r**0.5", v_expr="r**0.5")
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    names = [h.name for h in report.hypotheses]
    assert "bump_plateau" in names
    assert report.violations == ()


def test_measure_gate_runs_when_mu_given():
    spec = tiny_spec("strong", mu_expr="1.0")
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    names = [h.name for h in report.hypotheses]
    assert "measure_doubling" in names


def test_strict_mode_raises_on_divergent_weight():
    # |x|^2 sits outside every p = 2 class, so the plateau gate trips
    spec = tiny_spec("strong", w_expr="r**2.0")
    with pytest.raises(HypothesisError):
        theorem_experiment(spec, refinements=0, eps_stability=False, strict=True)
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    assert not report.hypotheses_ok


def test_report_serialization_roundtrip():
    spec = tiny_spec("weak", p=1.0, alpha=1.0, q=4.0)
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["experiment"] == "weak"
    assert len(parsed["cases"]) == 3
    rows = report.csv_rows()
    assert rows[0] == ["label", "lhs", "rhs", "ratio", "lam", "violation"]
    assert len(rows) == 1 + len(report.cases)


def test_report_handles_infinite_ratio():
    rep_cases = (CaseResult("x", 1.0, 0.0),)
    from amalgam import RatioReport

    report = RatioReport("strong", rep_cases, (), {}, {})
    blob = json.dumps(report.to_dict())
    assert "inf" in blob
    assert report.violations == ("x",)
    # JSON has no nan either: a nan drift is written as the string "nan"
    report = RatioReport("strong", (), (), {}, {"grid_refinement": math.nan})
    assert report.to_dict()["stability"] == {"grid_refinement": "nan"}
