"""End-to-end acceptance checks.

Each test covers one numbered check from the project contract, prints a
single status line with its measured quantities, and enforces the stated
tolerance and runtime budget.  Failures list every subcheck that missed
its target.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

import oracles
from amalgam import (
    AmalgamSpec,
    BumpParams,
    Corpus,
    DiscreteFunction,
    ExperimentSpec,
    Grid,
    Kernel,
    Region,
    SpaceParams,
    YoungFunction,
    amalgam_norm,
    apply_operator,
    bmo_norm,
    bump_check,
    local_lp_norm,
    luxemburg_norm,
    holder_check,
    muckenhoupt_characteristic,
    region_family,
    region_mean,
    sample,
    sharp_domination_check,
    theorem_experiment,
    weight_from_expression,
)
from amalgam.cli import main as cli_main


def _finish(name, failures, started, limit):
    elapsed = time.perf_counter() - started
    if elapsed > limit:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {limit:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"{name}: {status} ({elapsed:.1f}s)")
    for line in failures:
        print(f"  - {line}")
    assert not failures, f"{name}: " + " | ".join(failures)


def _random_region(grid, rng):
    center = float(rng.uniform(-2.0, 2.0))
    radius = float(rng.uniform(0.1, 2.0))
    return Region("ball", (center,), radius)


def test_criterion_01_luxemburg_lp_coincidence(desk_grid):
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(100):
        vals = rng.normal(size=desk_grid.n_nodes)
        f = DiscreteFunction(desk_grid, vals)
        reg = _random_region(desk_grid, rng)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        got = luxemburg_norm(f, YoungFunction.power(p), reg)
        idx = reg.node_indices(desk_grid)
        want = float(np.mean(np.abs(vals[idx]) ** p)) ** (1.0 / p)
        rel = abs(got - want) / want
        worst = max(worst, rel)
    if worst >= 1e-8:
        failures.append(f"worst relative error {worst:.3e} not below 1e-8")
    _finish("criterion 01 luxemburg/lp coincidence", failures, started, 5.0)


def test_criterion_02_generalized_holder(desk_grid):
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(200):
        f = DiscreteFunction(desk_grid, rng.normal(size=desk_grid.n_nodes))
        g = DiscreteFunction(desk_grid, rng.normal(size=desk_grid.n_nodes))
        reg = _random_region(desk_grid, rng)
        res = holder_check(f, g, "llogl_expl", reg)
        if not res.holds:
            violations += 1
    if violations:
        failures.append(f"{violations} of 200 product bounds violated")
    c, d = 1.3, 0.6
    res = holder_check(sample(f"{c!r}", desk_grid), sample(f"{d!r}", desk_grid), "llogl_expl")
    if abs(res.lhs - c * d) > 1e-6 * (c * d):
        failures.append(f"constant lhs {res.lhs!r} != {c * d!r}")
    want_rhs = 2.0 * c * d / math.log(2.0)
    if abs(res.rhs - want_rhs) > 1e-6 * want_rhs:
        failures.append(f"constant rhs {res.rhs!r} != {want_rhs!r}")
    _finish("criterion 02 generalized holder", failures, started, 10.0)


def test_criterion_03_average_below_llogl(desk_grid):
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(303)
    w_half = weight_from_expression("r**(0.5)", desk_grid)
    violations = 0
    for k in range(200):
        f = DiscreteFunction(desk_grid, rng.normal(size=desk_grid.n_nodes))
        reg = _random_region(desk_grid, rng)
        w = None if k % 2 == 0 else w_half
        avg = region_mean(DiscreteFunction(desk_grid, np.abs(f.values)), reg, w)
        lux = luxemburg_norm(f, YoungFunction.llogl(1.0), reg, w)
        if avg > lux * (1 + 1e-12):
            violations += 1
    if violations:
        failures.append(f"{violations} of 200 averages exceeded the LlogL norm")
    _finish("criterion 03 average below llogl norm", failures, started, 10.0)


def test_criterion_04_power_weight_class_law():
    started = time.perf_counter()
    failures = []
    p = 2.0
    grids = [Grid(points_per_axis=n) for n in (2048, 4096, 8192)]

    def centered_char(a, grid):
        fam = region_family(grid, sizes=(0.5, 1.0, 2.0), centers=[(0.0,)])
        return muckenhoupt_characteristic(weight_from_expression(f"r**({a!r})", grid), p, fam)

    # in class (-1 < a < p - 1): the characteristic plateaus under refinement
    for a in (-0.5, 0.5, 0.75):
        c1, c2, c3 = (centered_char(a, g) for g in grids)
        d1 = abs(c2 - c1) / c1
        d2 = abs(c3 - c2) / c2
        if not (d1 < 0.10 and d2 < 0.10):
            failures.append(
                f"a={a}: characteristic does not plateau "
                f"({c1:.4f} -> {c2:.4f} -> {c3:.4f}, drifts {d1:.1%}, {d2:.1%})"
            )
    # out of class: with |x| clipped at h/2 the characteristic grows like
    # h^{-s}, s the distance to the class, so by 2^s per halving of h
    for a in (-1.5, 1.5, 2.0):
        s = max(-1.0 - a, a - (p - 1.0))
        c1, c2, c3 = (centered_char(a, g) for g in grids)
        rates = (math.log2(c2 / c1), math.log2(c3 / c2))
        if not all(abs(rate - s) <= 0.05 for rate in rates):
            failures.append(
                f"a={a}: log2 growth per refinement {rates[0]:.4f}, {rates[1]:.4f} "
                f"({c1:.4g} -> {c2:.4g} -> {c3:.4g}), needs s={s} +- 0.05"
            )
    anchor = centered_char(0.5, grids[1])
    if abs(anchor - 4.0 / 3.0) > 0.05:
        failures.append(f"centered value for a=0.5 is {anchor:.4f}, not 4/3 +- 0.05")
    _finish("criterion 04 power weight class law", failures, started, 30.0)


def test_criterion_05_amalgam_reductions(desk_grid, corpus20):
    started = time.perf_counter()
    failures = []
    big = desk_grid.half_width + desk_grid.spacing
    fam_cover = region_family(desk_grid, sizes=(0.5, 1.0, big), centers=[(0.0,)])
    lp_spec = AmalgamSpec(SpaceParams(2.0, 2.0, math.inf), fam_cover, None)

    worst_lp = 0.0
    for label, f in corpus20:
        got = amalgam_norm(f, lp_spec)
        want = local_lp_norm(f, 2.0)
        worst_lp = max(worst_lp, abs(got - want) / want)
    if worst_lp >= 1e-12:
        failures.append(f"L^alpha reduction off by {worst_lp:.3e} relative")

    fam = region_family(desk_grid, sizes=(0.25, 0.5, 1.0), center_stride=256)
    morrey_spec = AmalgamSpec(SpaceParams(2.0, 4.0, math.inf), fam, None)
    worst_mo = 0.0
    for label, f in corpus20:
        got = amalgam_norm(f, morrey_spec)
        want = oracles.brute_morrey(f, fam, 2.0, 4.0)
        worst_mo = max(worst_mo, abs(got - want) / want)
    if worst_mo >= 1e-12:
        failures.append(f"morrey reduction off by {worst_mo:.3e} relative")
    _finish("criterion 05 amalgam reductions", failures, started, 10.0)


def test_criterion_06_hilbert_closed_form():
    started = time.perf_counter()
    failures = []

    def max_err(n):
        g = Grid(points_per_axis=n)
        f = sample("ind(-1.0, 1.0)", g)
        img = apply_operator(Kernel("hilbert", 1), f, 4 * g.spacing)
        x = g.axis
        with np.errstate(divide="ignore"):
            ref = np.log(np.abs((x + 1.0) / (x - 1.0))) / math.pi
        mask = np.minimum(np.abs(x - 1.0), np.abs(x + 1.0)) > 0.2
        return float(np.max(np.abs(img.values[mask] - ref[mask])))

    e12 = max_err(4096)
    e13 = max_err(8192)
    if not e12 < 5e-3:
        failures.append(f"max abs error {e12:.3e} at 2^12 nodes, needs < 5e-3")
    if not e13 < 0.6 * e12:
        failures.append(f"error did not halve under refinement ({e12:.3e} -> {e13:.3e})")
    _finish("criterion 06 hilbert closed form", failures, started, 20.0)


def test_criterion_07_commutator_annihilation(desk_grid, corpus20):
    started = time.perf_counter()
    failures = []
    b = sample("2.5", desk_grid)
    kernel = Kernel("hilbert", 1)
    eps = 4 * desk_grid.spacing
    worst = 0.0
    for label, f in corpus20:
        img = apply_operator(kernel, f, eps, b)
        worst = max(worst, float(np.max(np.abs(img.values))))
    if not worst < 1e-12:
        failures.append(f"constant symbol commutator reached {worst:.3e}, needs < 1e-12")
    _finish("criterion 07 commutator annihilation", failures, started, 10.0)


def test_criterion_08_mean_growth_anchor(desk_grid):
    started = time.perf_counter()
    failures = []
    base = Region("ball", (0.0,), 0.125)

    def dyadic_diffs(grid):
        b = sample("logabs", grid)
        m0 = region_mean(b, base)
        return [region_mean(b, base.dilate(2.0 ** (j + 1))) - m0 for j in range(1, 5)]

    # a node mean over a centered ball of radius r carries a bias of about
    # +0.07 h / r, so the raw difference is first order in h: anchor its
    # Richardson limit, and require the raw error to halve with h
    coarse = dyadic_diffs(desk_grid)
    fine = dyadic_diffs(Grid(desk_grid.dim, desk_grid.half_width, 2 * desk_grid.points_per_axis))
    for j, (d1, d2) in enumerate(zip(coarse, fine), start=1):
        target = (j + 1) * math.log(2.0)
        err = (2.0 * d2 - d1) - target
        if not abs(err) <= 1e-3:
            failures.append(
                f"j={j}: extrapolated mean growth off target by {err:+.3e}, needs |err| <= 1e-3"
            )
        e1, e2 = d1 - target, d2 - target
        if not abs(e2) < 0.6 * abs(e1):
            failures.append(
                f"j={j}: mean growth error did not halve under refinement ({e1:+.3e} -> {e2:+.3e})"
            )
    _finish("criterion 08 mean growth anchor", failures, started, 5.0)


def test_criterion_09_bmo_anchors(desk_grid):
    started = time.perf_counter()
    failures = []
    fam = region_family(desk_grid, sizes=(0.5, 1.0, 2.0), centers=[(0.0,)])
    got_log = bmo_norm(sample("logabs", desk_grid), fam)
    if abs(got_log - 2.0 / math.e) > 5e-3:
        failures.append(f"log oscillation {got_log:.6f} vs 2/e +- 5e-3")
    got_sgn = bmo_norm(sample("sgn", desk_grid), fam)
    if abs(got_sgn - 1.0) > 1e-6:
        failures.append(f"sign oscillation {got_sgn!r} vs 1 +- 1e-6")
    _finish("criterion 09 bmo anchors", failures, started, 5.0)


def test_criterion_10_sharp_domination(desk_grid, corpus20):
    started = time.perf_counter()
    failures = []
    kernel = Kernel("hilbert", 1)
    fine_grid = Grid(points_per_axis=8192)
    fine_corpus = dict(Corpus.generate(20, seed=0).realize(fine_grid))
    b_desk = sample("logabs", desk_grid)
    b_fine = sample("logabs", fine_grid)

    for tag, b0, b1 in (("plain", None, None), ("commutator", b_desk, b_fine)):
        maxima = []
        for grid, corpus, b in (
            (desk_grid, dict(corpus20), b0),
            (fine_grid, fine_corpus, b1),
        ):
            stride = 256 * (grid.points_per_axis // 4096)
            fam = region_family(grid, sizes=(0.25, 0.5, 1.0, 2.0), center_stride=stride)
            eps = 4 * desk_grid.spacing  # same physical truncation on both grids
            worst = 0.0
            for label, f in corpus.items():
                rep = sharp_domination_check(
                    kernel, f, fam, eps, delta=0.5, b=b, eps_exponent=0.75
                )
                if rep.violation:
                    failures.append(f"{tag}: domination violated for {label}")
                if not math.isfinite(rep.max_ratio):
                    failures.append(f"{tag}: non-finite ratio for {label}")
                worst = max(worst, rep.max_ratio)
            maxima.append(worst)
        drift = abs(maxima[1] - maxima[0]) / maxima[0]
        if not drift <= 0.20:
            failures.append(
                f"{tag}: max ratio moved {drift:.1%} across refinement "
                f"({maxima[0]:.4f} -> {maxima[1]:.4f}), needs <= 20%"
            )
    _finish("criterion 10 sharp domination", failures, started, 60.0)


def test_criterion_11_strong_type_experiment():
    started = time.perf_counter()
    failures = []
    spec = ExperimentSpec(
        "strong",
        p=2.0,
        alpha=4.0,
        q=8.0,
        w_expr="r**0.5",
        mu_expr="1.0",
        corpus_n=20,
    )
    base = theorem_experiment(spec, refinements=0, eps_stability=False)
    if len(base.cases) != 20:
        failures.append(f"expected 20 cases, got {len(base.cases)}")
    if base.violations:
        failures.append(f"violations: {', '.join(base.violations)}")
    if not all(math.isfinite(c.ratio) for c in base.cases):
        failures.append("non-finite ratio in the base run")
    if not base.hypotheses_ok:
        bad = [h.name for h in base.hypotheses if not h.passed]
        failures.append(f"hypothesis gates failed: {', '.join(bad)}")

    half = theorem_experiment(
        replace(spec, eps_nodes=2), refinements=0, eps_stability=False
    )
    eps_drift = abs(half.max_ratio - base.max_ratio) / base.max_ratio
    if not eps_drift <= 0.05:
        failures.append(
            f"max ratio drift {eps_drift:.2%} under eps halving "
            f"({base.max_ratio:.5f} -> {half.max_ratio:.5f}), needs <= 5%"
        )
    fine = theorem_experiment(
        replace(spec, points=8192, eps_nodes=8, center_stride=512),
        refinements=0,
        eps_stability=False,
    )
    grid_drift = abs(fine.max_ratio - base.max_ratio) / base.max_ratio
    if not grid_drift <= 0.20:
        failures.append(
            f"max ratio drift {grid_drift:.2%} under grid refinement "
            f"({base.max_ratio:.5f} -> {fine.max_ratio:.5f}), needs <= 20%"
        )

    # degree one homogeneity of both norms, hence scale invariance of the ratio
    grid = Grid(points_per_axis=4096)
    fam = region_family(grid, sizes=spec.sizes, center_stride=256)
    space = AmalgamSpec(SpaceParams(2.0, 4.0, 8.0), fam, weight_from_expression("r**(0.5)", grid))
    corpus = Corpus.generate(3, seed=0).realize(grid)
    kernel = Kernel("hilbert", 1)
    worst_h = 0.0
    for label, f in corpus:
        image = apply_operator(kernel, f, 4 * grid.spacing)
        for g in (f, image):
            n1 = amalgam_norm(g, space)
            n2 = amalgam_norm(DiscreteFunction(grid, 2.0 * g.values), space)
            worst_h = max(worst_h, abs(n2 / (2.0 * n1) - 1.0))
        r1 = amalgam_norm(image, space) / amalgam_norm(f, space)
        f2 = DiscreteFunction(grid, 2.0 * f.values)
        image2 = apply_operator(kernel, f2, 4 * grid.spacing)
        r2 = amalgam_norm(image2, space) / amalgam_norm(f2, space)
        worst_h = max(worst_h, abs(r2 / r1 - 1.0))
    if not worst_h < 1e-8:
        failures.append(f"homogeneity defect {worst_h:.3e}, needs < 1e-8")
    _finish("criterion 11 strong type experiment", failures, started, 120.0)


def test_criterion_12_endpoint_experiment(desk_grid):
    started = time.perf_counter()
    failures = []
    spec = ExperimentSpec(
        "endpoint",
        p=1.0,
        alpha=1.0,
        q=4.0,
        w_expr="1.0",
        b_expr="logabs",
    )
    report = theorem_experiment(spec, refinements=0, eps_stability=False)
    n_expected = 6 * len(spec.lambda_factors)
    if len(report.cases) != n_expected:
        failures.append(f"expected {n_expected} lambda cases, got {len(report.cases)}")
    if report.violations:
        failures.append(f"violations: {', '.join(report.violations)}")
    if not all(math.isfinite(c.ratio) for c in report.cases):
        failures.append("non-finite ratio at some lambda level")

    # level quantities recomputed independently, then scale invariance
    fam = region_family(desk_grid, sizes=spec.sizes, center_stride=256)
    kernel = Kernel("hilbert", 1)
    b = sample("logabs", desk_grid)
    eps = 4 * desk_grid.spacing
    ones = np.ones(desk_grid.n_nodes)
    phi = YoungFunction.phi()
    corpus = Corpus.generate(6, seed=0).realize(desk_grid)
    by_label = {c.label: c for c in report.cases}
    worst_match = 0.0
    worst_inv = 0.0
    for label, f in corpus:
        image = apply_operator(kernel, f, eps, b)
        f2 = DiscreteFunction(desk_grid, 2.0 * f.values)
        image2 = apply_operator(kernel, f2, eps, b)
        vmax = float(np.max(np.abs(f.values)))
        for factor in spec.lambda_factors:
            lam = factor * vmax
            lhs, rhs = oracles.endpoint_level(
                desk_grid, fam, image, f, lam, ones, ones, 1.0, 4.0, phi
            )
            case = by_label[f"{label}@x{factor!r}"]
            for got, want in ((case.lhs, lhs), (case.rhs, rhs)):
                scale = max(abs(want), 1e-300)
                worst_match = max(worst_match, abs(got - want) / scale)
            lhs2, rhs2 = oracles.endpoint_level(
                desk_grid, fam, image2, f2, 2.0 * lam, ones, ones, 1.0, 4.0, phi
            )
            for a, bb in ((lhs, lhs2), (rhs, rhs2)):
                scale = max(abs(a), abs(bb))
                if scale > 0:
                    worst_inv = max(worst_inv, abs(a - bb) / scale)
    if worst_match > 1e-10:
        failures.append(f"level quantities disagree with reference by {worst_match:.3e}")
    if not worst_inv <= 1e-6:
        failures.append(f"scaling (f, lam) -> (2f, 2lam) moved levels by {worst_inv:.3e}")
    _finish("criterion 12 endpoint experiment", failures, started, 120.0)


def test_criterion_13_bump_checker(desk_grid):
    started = time.perf_counter()
    failures = []
    fam = region_family(desk_grid, sizes=(0.25, 0.5, 1.0, 2.0), center_stride=256)
    one = weight_from_expression("1.0", desk_grid)
    for mode in ("two", "power", "orlicz"):
        got = bump_check(one, one, BumpParams(2.0, 1.5, mode), fam).value
        if got != 1.0:
            failures.append(f"unit weights in mode {mode!r} gave {got!r}, not exactly 1")

    params = BumpParams(2.0, 1.5, "orlicz")
    values = []
    for n in (4096, 8192):
        g = Grid(points_per_axis=n)
        famn = region_family(
            g, sizes=(0.25, 0.5, 1.0, 2.0), center_stride=256 * (n // 4096)
        )
        u = weight_from_expression("r**(0.5)", g)
        values.append(bump_check(u, u, params, famn).value)
    if not all(math.isfinite(v) for v in values):
        failures.append(f"bump value not finite: {values}")
    drift = abs(values[1] - values[0]) / values[0]
    if not drift < 0.10:
        failures.append(
            f"bump value drifts {drift:.1%} under refinement ({values[0]:.5f} -> {values[1]:.5f})"
        )

    spec = ExperimentSpec(
        "two_weight_strong",
        u_expr="r**0.5",
        v_expr="r**0.5",
        bump=params,
    )
    report = theorem_experiment(spec, refinements=1, eps_stability=True)
    if report.violations:
        failures.append(f"violations: {', '.join(report.violations)}")
    if not all(math.isfinite(c.ratio) for c in report.cases):
        failures.append("non-finite two weight ratio")
    if not report.hypotheses_ok:
        bad = [h.name for h in report.hypotheses if not h.passed]
        failures.append(f"hypothesis gates failed: {', '.join(bad)}")
    for key, value in report.stability.items():
        if not (math.isfinite(value) and value <= 0.20):
            failures.append(f"stability {key} drift {value:.2%} exceeds 20%")
    _finish("criterion 13 bump checker", failures, started, 120.0)


def test_criterion_14_verify_determinism(tmp_path):
    started = time.perf_counter()
    failures = []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": {
                    "points": 512,
                    "corpus_n": 3,
                    "center_stride": 128,
                    "sizes": [0.5, 1.0],
                    "weights": {"w": "r**0.5"},
                }
            }
        )
    )
    blobs = []
    second = None
    for run in ("a", "b"):
        t0 = time.perf_counter()
        code = cli_main(
            [
                "verify",
                "strong",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / run),
                "--refine",
                "0",
                "--no-eps-stability",
                "--seed",
                "11",
            ]
        )
        second = time.perf_counter() - t0
        if code != 0:
            failures.append(f"verify run {run} exited with {code}")
        blobs.append((tmp_path / run / "cases.csv").read_bytes())
    if blobs[0] != blobs[1]:
        failures.append("repeated verify runs produced different CSV bytes")
    if second is not None and second > 5.0:
        failures.append(f"repeat run took {second:.1f}s, needs < 5s")
    _finish("criterion 14 verify determinism", failures, started, 30.0)
