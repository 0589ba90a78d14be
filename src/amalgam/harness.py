"""Empirical verification harness for the operator norm inequalities.

Each supported estimate is realized as a ratio experiment: render a small
corpus of test functions, apply the truncated operator, evaluate both
sides of the inequality, and report the worst ratio together with the
hypothesis gates (weight class membership, modulus integrability, bump
conditions) and stability deltas under truncation halving and grid
refinement.  A bounded ratio that is stable under refinement is the
evidence the harness is after; hypothesis gates that fail mark the run as
outside the theory, not as a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, HypothesisError, PreconditionError
from .grid import (
    DiscreteFunction,
    Grid,
    Region,
    RegionFamily,
    covering_region,
    region_family,
    sample,
    window_sums,
)
from .operators import Kernel, ThetaModulus, apply_operator, dini_integrals, maximal
from .orlicz import YoungFunction, luxemburg_table, ratio
from .spaces import (
    AmalgamSpec,
    SpaceParams,
    amalgam_norms,
    bmo_norm,
    region_mean,
)
from .weights import Weight, doubling_profile, muckenhoupt_characteristic, weight_from_expression

__all__ = [
    "CorpusMember",
    "Corpus",
    "CaseResult",
    "HypothesisResult",
    "RatioReport",
    "BumpParams",
    "BumpResult",
    "bump_check",
    "BmoLemmaResult",
    "bmo_lemma_check",
    "SharpReport",
    "sharp_domination_check",
    "ExperimentSpec",
    "theorem_experiment",
    "THEOREMS",
]

# theorem -> (lhs, rhs, image, p rule), each side an amalgam norm given as (variant, inner
# weight, scaled by the BMO norm of b) with outer measure mu; an lhs weight u makes a
# two-weight theorem.  The lhs reads the image: T f, [b, T] f, or the indicators of
# |[b, T] f| > lam at each level lam, where the rhs reads Phi(|f| / lam) in place of f.
_THEOREMS = {
    "strong": (("strong", "w", False), ("strong", "w", False), "T f", "> 1"),
    "weak": (("weak", "w", False), ("strong", "w", False), "T f", "= 1"),
    "commutator": (("strong", "w", False), ("strong", "w", True), "[b, T] f", "> 1"),
    "endpoint": (("strong", "w", False), ("strong", "w", False), "levels", "= 1"),
    "two_weight_weak": (("weak", "u", False), ("strong", "v", False), "T f", ">= 1"),
    "two_weight_endpoint": (("strong", "u", False), ("strong", "v", False), "levels", "= 1"),
    "two_weight_strong": (("strong", "u", False), ("strong", "v", False), "T f", "> 1"),
    "two_weight_commutator": (("strong", "u", False), ("strong", "v", True), "[b, T] f", "> 1"),
}
THEOREMS = tuple(_THEOREMS)


@dataclass(frozen=True)
class CorpusMember:
    label: str
    expression: str


@dataclass(frozen=True)
class Corpus:
    """A reproducible family of expression-backed test functions.

    Members stay symbolic so a refined grid re-renders the same corpus.
    The first two members are a smooth bump and a log-singular bump; the
    rest cycle through indicators, truncated gaussians, and random-sign
    step sums, with supports kept a margin away from the box edge.
    """

    members: Tuple[CorpusMember, ...]
    seed: int
    dim: int

    @staticmethod
    def check(n: int, seed: int, half_width: float, margin: float) -> None:
        """Reject n < 1 members, a negative seed, or a margin outside (0, half_width)."""
        if n < 1:
            raise ConfigurationError("corpus needs at least one member")
        if seed < 0:
            raise ConfigurationError(f"corpus seed must be at least 0, got {seed}")
        if not (0 < margin < half_width):
            raise ConfigurationError("corpus margin must lie strictly inside the box")

    @classmethod
    def generate(
        cls,
        n: int,
        seed: int = 0,
        half_width: float = 4.0,
        margin: float = 1.0,
        dim: int = 1,
    ) -> "Corpus":
        cls.check(n, seed, half_width, margin)
        rng = np.random.default_rng(seed)
        reach = half_width - margin
        members: List[CorpusMember] = []

        def draw_center(extent: float) -> float:
            room = reach - extent
            return float(rng.uniform(-room, room)) if room > 0 else 0.0

        def ind(lo: float, hi: float) -> str:
            if dim == 1:
                return f"ind({lo!r},{hi!r})"
            return f"ind2({lo!r},{hi!r},{lo!r},{hi!r})"

        for i in range(n):
            if i == 0:
                a = float(rng.uniform(0.5, 2.0))
                w = float(rng.uniform(0.4, 1.0))
                c = draw_center(w)
                members.append(CorpusMember(f"bump{i}", f"{a!r}*bump({c!r},{w!r})"))
                continue
            if i == 1:
                w = float(rng.uniform(0.5, 1.0))
                members.append(CorpusMember(f"logbump{i}", f"logabs*bump(0.0,{w!r})"))
                continue
            kind = (i - 2) % 3
            if kind == 0:
                a = float(rng.uniform(0.5, 2.0))
                width = float(rng.uniform(0.3, 1.5))
                lo = draw_center(width) - width / 2.0
                hi = lo + width
                members.append(CorpusMember(f"ind{i}", f"{a!r}*{ind(lo, hi)}"))
            elif kind == 1:
                a = float(rng.uniform(0.5, 2.0))
                s = float(rng.uniform(0.3, 0.8))
                c = draw_center(3.0 * s)
                cut = ind(c - 3 * s, c + 3 * s)
                members.append(CorpusMember(f"gauss{i}", f"{a!r}*gauss({c!r},{s!r})*{cut}"))
            else:
                parts = []
                for _ in range(3):
                    a = float(rng.uniform(0.3, 1.5)) * float(rng.choice([-1.0, 1.0]))
                    width = float(rng.uniform(0.2, 0.8))
                    lo = draw_center(width) - width / 2.0
                    hi = lo + width
                    parts.append(f"{a!r}*{ind(lo, hi)}")
                members.append(CorpusMember(f"steps{i}", " + ".join(parts)))
        return cls(tuple(members), seed, dim)

    def realize(self, grid: Grid) -> List[Tuple[str, DiscreteFunction]]:
        if grid.dim != self.dim:
            raise ConfigurationError("corpus and grid dimensions do not match")
        return [(m.label, sample(m.expression, grid)) for m in self.members]


@dataclass(frozen=True)
class CaseResult:
    label: str
    lhs: float
    rhs: float
    lam: Optional[float] = None

    @property
    def ratio(self) -> float:
        return ratio(self.lhs, self.rhs)

    @property
    def violation(self) -> bool:
        """True when the bound side vanished but the estimated side did not."""
        return self.rhs == 0.0 and self.lhs > 1e-12


@dataclass(frozen=True)
class HypothesisResult:
    name: str
    passed: bool
    detail: str
    values: Tuple[float, ...] = ()


def _json_safe(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


@dataclass(frozen=True)
class RatioReport:
    experiment: str
    cases: Tuple[CaseResult, ...]
    hypotheses: Tuple[HypothesisResult, ...]
    metadata: dict
    stability: dict

    @property
    def _best(self) -> Optional[CaseResult]:
        """The first case that is no violation and has the largest ratio; None when there is none."""
        best = None
        for c in self.cases:
            if not c.violation and (best is None or c.ratio > best.ratio):
                best = c
        return best

    @property
    def max_ratio(self) -> float:
        best = self._best
        return best.ratio if best else 0.0

    @property
    def argmax_label(self) -> str:
        best = self._best
        return best.label if best else ""

    @property
    def violations(self) -> Tuple[str, ...]:
        return tuple(c.label for c in self.cases if c.violation)

    @property
    def hypotheses_ok(self) -> bool:
        return all(h.passed for h in self.hypotheses)

    def to_dict(self) -> dict:
        return _json_safe({
            "experiment": self.experiment,
            "metadata": self.metadata,
            "hypotheses": [asdict(h) for h in self.hypotheses],
            "cases": [dict(asdict(c), ratio=c.ratio, violation=c.violation) for c in self.cases],
            "max_ratio": self.max_ratio,
            "argmax_label": self.argmax_label,
            "stability": self.stability,
            "violations": list(self.violations),
            "hypotheses_ok": self.hypotheses_ok,
        })

    def csv_rows(self) -> List[List[str]]:
        rows = [["label", "lhs", "rhs", "ratio", "lam", "violation"]]
        for c in self.cases:
            rows.append(
                [
                    c.label,
                    repr(c.lhs),
                    repr(c.rhs),
                    repr(c.ratio),
                    "" if c.lam is None else repr(c.lam),
                    str(c.violation),
                ]
            )
        return rows


@dataclass(frozen=True)
class BumpParams:
    """Parameters of a two-weight bump condition; p None reads 2."""

    p: Optional[float] = None
    r: float = 1.5
    mode: str = "orlicz"

    def __post_init__(self):
        if self.p is not None and not 1.0 < self.p < math.inf:
            raise ConfigurationError("bump conditions need 1 < p < inf")
        if not 1.0 <= self.r < math.inf:
            raise ConfigurationError("bump conditions need 1 <= r < inf")
        if self.mode not in ("two", "power", "orlicz"):
            raise ConfigurationError(f"unknown bump mode {self.mode!r}")


@dataclass(frozen=True)
class BumpResult:
    value: float
    argmax_center: tuple
    argmax_size: float
    mode: str


def bump_check(u: Weight, v: Weight, params: BumpParams, family: RegionFamily) -> BumpResult:
    """Supremum of a two-weight bump quantity over a region family.

    two:     (avg u)^{1/p} (avg v^{1-p'})^{1/p'}
    power:   (avg u^r)^{1/(rp)} (avg v^{(1-p')r})^{1/(rp')}
    orlicz:  (avg u^r)^{1/(rp)} times the averaged Luxemburg norm of
             v^{-1/p} under t (1 + log+ t)^{p'}

    Every mode evaluates to exactly one when both weights are constant
    one, which anchors the scale.  In orlicz mode only the regions that can
    attain the sup are solved exactly: luxemburg_table, handed the u side as
    factor, brackets every region's value from its band masses and solves
    only those whose upper bound reaches the best lower bound in the family,
    so the value and its first argmax are those of the full table bit for bit.
    """
    if u.grid != v.grid:
        raise ConfigurationError("bump weights live on different grids")
    grid = u.grid
    p = 2.0 if params.p is None else params.p
    pp = p / (p - 1.0)
    r = 1.0 if params.mode == "two" else params.r
    powers = [u.values**r] + ([] if params.mode == "orlicz" else [v.values ** ((1.0 - pp) * r)])
    sums, counts = window_sums(family, grid, powers)
    if not counts.any():
        raise PreconditionError("every region in the family is empty")
    with np.errstate(divide="ignore", invalid="ignore"):
        means = sums / counts
    u_side = means[0] ** (1.0 / (r * p))
    if params.mode == "orlicz":
        # regions that cannot attain the sup read -inf
        table = luxemburg_table(family, grid, v.values ** (-1.0 / p), YoungFunction.bump(pp),
                                factor=u_side)
    else:
        table = u_side * means[1] ** (1.0 / (r * pp))
    # the first region attaining the sup, in [size, center] order
    s, c = np.unravel_index(np.argmax(np.where(counts > 0, table, -np.inf)), table.shape)
    return BumpResult(float(table[s, c]), family.centers[c], family.sizes[s], params.mode)


@dataclass(frozen=True)
class BmoLemmaResult:
    bmo: float
    diffs: Tuple[float, ...]
    growth_ratios: Tuple[float, ...]
    weighted_ratios: Optional[Tuple[float, ...]]


def bmo_lemma_check(
    b: DiscreteFunction,
    region: Region,
    bmo_family: RegionFamily,
    jmax: int = 4,
    p: Optional[float] = None,
    w: Optional[Weight] = None,
) -> BmoLemmaResult:
    """Growth of dilated means of an oscillating function.

    diffs[j-1] is the mean of b over 2^{j+1}B minus its mean over B;
    growth_ratios normalizes by (j + 1) times the oscillation norm.  With
    p and w given (one without the other is an error), weighted_ratios
    additionally checks the weighted local oscillation against the same budget.
    """
    grid = b.grid
    if jmax < 1:
        raise ConfigurationError("jmax must be at least 1")
    if (p is None) != (w is None):
        missing = "the weight" if w is None else "p"
        raise ConfigurationError(f"the weighted check needs p and a weight; {missing} is missing")
    if p is not None and not 1.0 <= p < math.inf:
        raise ConfigurationError(f"the weighted check needs 1 <= p < inf, got {p}")
    top = region.dilate(2.0 ** (jmax + 1))
    if not top.fits_box(grid):
        raise PreconditionError(
            f"dilate(2^{jmax + 1}) of the region spills out of the box"
        )
    norm = bmo_norm(b, bmo_family)
    if norm == 0.0:
        raise PreconditionError("b has zero oscillation; the lemma check is vacuous")
    base_mean = region_mean(b, region)
    shells = [region.dilate(2.0 ** (j + 1)) for j in range(1, jmax + 1)]
    budgets = [(j + 1) * norm for j in range(1, jmax + 1)]
    diffs = tuple(region_mean(b, shell) - base_mean for shell in shells)
    growth = tuple(abs(d) / budget for d, budget in zip(diffs, budgets))
    weighted = None
    if p is not None:
        osc = DiscreteFunction(grid, np.abs(b.values - base_mean) ** p)
        weighted = tuple(region_mean(osc, shell, w) ** (1.0 / p) / budget
                         for shell, budget in zip(shells, budgets))
    return BmoLemmaResult(norm, diffs, growth, weighted)


@dataclass(frozen=True)
class SharpReport:
    kind: str
    max_ratio: float
    violation: bool


def sharp_domination_check(
    kernel: Kernel,
    f: DiscreteFunction,
    family: RegionFamily,
    epsilon: float,
    delta: float = 0.5,
    b: Optional[DiscreteFunction] = None,
    eps_exponent: float = 0.75,
    bmo_family: Optional[RegionFamily] = None,
) -> SharpReport:
    """Pointwise domination of the sharp function of the operator image.

    Plain mode compares the delta-sharp function of T f against the
    maximal function of f.  Commutator mode compares the delta-sharp
    function of [b, T] f against the oscillation norm of b times the sum
    of the eps-power maximal function of T f and the LlogL maximal
    function of f.
    """
    if not (0.0 < delta < 1.0):
        raise ConfigurationError("sharp domination needs 0 < delta < 1")
    grid = f.grid
    families = (family, covering_region(grid).as_family())
    Tf = apply_operator(kernel, f, epsilon)
    if b is None:
        lhs = maximal(Tf, "sharp_delta", families, delta=delta)
        rhs_vals = maximal(f, "hl", families).values
        kind = "operator"
    else:
        if not (delta < eps_exponent < 1.0):
            raise ConfigurationError("need delta < eps_exponent < 1")
        Cf = apply_operator(kernel, f, epsilon, b)
        lhs = maximal(Cf, "sharp_delta", families, delta=delta)
        fam_for_bmo = bmo_family if bmo_family is not None else family
        scale = bmo_norm(b, fam_for_bmo)
        rhs_vals = scale * (
            maximal(Tf, "hl_delta", families, delta=eps_exponent).values
            + maximal(f, "llogl", families).values
        )
        kind = "commutator"
    lhs_vals = lhs.values
    mask = rhs_vals > 0
    violation = bool(np.any(~mask & (lhs_vals > 1e-12)))
    ratio = float(np.max(lhs_vals[mask] / rhs_vals[mask])) if np.any(mask) else 0.0
    return SharpReport(kind, ratio, violation)


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one ratio experiment.

    Weights and the corpus are kept as expressions so refinement re-renders
    everything on the finer grid.  eps_nodes fixes the truncation radius in
    grid cells (at least 2), which keeps the operator well defined on every
    grid in a refinement chain.  p defaults to 1 where the theorem's p rule is
    p = 1 and to 2 otherwise, and alpha to max(2.5, p).  A two-weight theorem
    at p > 1 checks its bump at that p, which a bump.p that is set must equal.
    """

    theorem: str
    dim: int = 1
    half_width: float = 4.0
    points: int = 4096
    kernel_tag: str = "hilbert"
    theta: ThetaModulus = ThetaModulus.power(1.0)
    riesz_component: int = 0
    eps_nodes: int = 4
    p: Optional[float] = None
    alpha: Optional[float] = None
    q: float = 8.0
    w_expr: str = "1.0"
    u_expr: str = "1.0"
    v_expr: str = "1.0"
    mu_expr: Optional[str] = None
    b_expr: str = "logabs"
    shape: str = "ball"
    sizes: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    center_stride: int = 256
    corpus_n: int = 6
    corpus_margin: float = 1.0
    seed: int = 0
    lambda_factors: Tuple[float, ...] = tuple(2.0**k for k in range(-4, 5))
    bump: BumpParams = field(default_factory=BumpParams)

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ConfigurationError(
                f"unknown theorem {self.theorem!r}; expected one of {THEOREMS}"
            )
        if self.points < 16:
            raise ConfigurationError(
                f"points must be at least 16, since every theorem's plateau gate "
                f"also runs on a half grid of points // 2; got {self.points}"
            )
        # no two nodes lie (points - 1) sqrt(dim) cells apart or more, so T_eps would be zero
        reach = (self.points - 1) * math.sqrt(self.dim)
        if not 2 <= self.eps_nodes < reach:
            raise ConfigurationError(f"eps_nodes must be at least 2 and below (points - 1) "
                                     f"sqrt(dim) = {reach:.6g}; got {self.eps_nodes}")
        factors = self.lambda_factors
        if not factors or not all(math.isfinite(x) and x > 0 for x in factors):
            raise ConfigurationError(f"need finite lambda_factors > 0, got {factors}")
        (_, weight, _), _, _, rule = _THEOREMS[self.theorem]
        if self.p is None:
            object.__setattr__(self, "p", 1.0 if rule == "= 1" else 2.0)
        if not {"= 1": self.p == 1.0, "> 1": self.p > 1.0, ">= 1": self.p >= 1.0}[rule]:
            raise ConfigurationError(f"theorem {self.theorem!r} requires p {rule}, got {self.p!r}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", max(2.5, self.p))
        if weight == "u" and self.p > 1.0:
            if self.bump.p not in (None, self.p):
                raise ConfigurationError(f"bump.p = {self.bump.p!r} differs from p = {self.p!r}")
            object.__setattr__(self, "bump", replace(self.bump, p=self.p))
        SpaceParams(self.p, self.alpha, self.q)  # needs 1 <= p <= alpha < q
        Corpus.check(self.corpus_n, self.seed, self.half_width, self.corpus_margin)


class _Context:
    """Everything rendered on the grid of spec at points per axis; no other code renders a grid.

    The family takes the given centers, or every center_stride-th node when
    none are given.  The corpus, its cases and their bound sides render on
    first use, so a plateau gate's grid renders only the weights.
    """

    def __init__(self, spec: ExperimentSpec, points: int, centers: Optional[tuple] = None):
        self.spec = spec
        self.lhs, self.rhs, self.image, _ = _THEOREMS[spec.theorem]
        self.grid = grid = Grid(spec.dim, spec.half_width, points)
        self.kernel = Kernel(
            spec.kernel_tag, grid.dim, spec.theta, component=spec.riesz_component
        )
        self.family = region_family(
            grid, spec.sizes, shape=spec.shape, center_stride=spec.center_stride, centers=centers
        )
        self.w = weight_from_expression(spec.w_expr, grid)
        self.u = weight_from_expression(spec.u_expr, grid)
        self.v = weight_from_expression(spec.v_expr, grid)
        self.mu = None if spec.mu_expr is None else weight_from_expression(spec.mu_expr, grid)
        self.b = None if self.image == "T f" else sample(spec.b_expr, grid)

    @cached_property
    def corpus(self) -> List[Tuple[str, DiscreteFunction]]:
        spec = self.spec
        return Corpus.generate(
            spec.corpus_n, spec.seed, spec.half_width, spec.corpus_margin, spec.dim
        ).realize(self.grid)

    @cached_property
    def bmo(self) -> float:
        """Oscillation norm of the symbol b over the family, for the commutator theorems."""
        return bmo_norm(self.b, self.family)

    @cached_property
    def cases(self) -> List[Tuple[str, DiscreteFunction, Optional[float]]]:
        """(label, member f, level lam) of every case, member by member: one at lam
        None, or for the endpoint theorems one per level lam of |f|, none when f = 0."""
        if self.image != "levels":
            return [(label, f, None) for label, f in self.corpus]
        out = []
        for label, f in self.corpus:
            vmax = float(np.max(np.abs(f.values)))
            factors = self.spec.lambda_factors if vmax > 0.0 else ()
            out += [(f"{label}@x{x!r}", f, x * vmax) for x in factors]
        return out

    @cached_property
    def bounds(self) -> List[float]:
        """The bound side of every case, f or Phi(|f| / lam); no bound depends on eps."""
        phi = YoungFunction.phi()
        # the rows are made one at a time, as the norms read them
        return _side(self, self.rhs, (
            f.values if lam is None else phi(np.abs(f.values) / lam) for _, f, lam in self.cases))


def _side(ctx: _Context, side: Tuple[str, str, bool], rows) -> List[float]:
    """The amalgam norms of the rows on ctx for one side of a _THEOREMS row."""
    variant, weight, bmo = side
    params = SpaceParams(ctx.spec.p, ctx.spec.alpha, ctx.spec.q)
    space = AmalgamSpec(params, ctx.family, getattr(ctx, weight), ctx.mu, variant)
    scale = ctx.bmo if bmo else 1.0
    return [scale * norm.value for norm in amalgam_norms(ctx.grid, rows, space)]


def _run_cases(ctx: _Context, eps_nodes: int) -> List[CaseResult]:
    """The cases on ctx at a truncation radius of eps_nodes cells; only the operator side is new."""

    def rows():
        # each member's image is rendered once, when the norms first read one of its cases
        f = image = None
        for _, member, lam in ctx.cases:
            if member is not f:
                # ctx.b is set exactly for the images of [b, T]
                f, image = member, apply_operator(ctx.kernel, member, eps_nodes * ctx.grid.spacing,
                                                  ctx.b).values
            yield image if lam is None else np.abs(image) > lam

    lhs = _side(ctx, ctx.lhs, rows())
    return [CaseResult(label, value, bound, lam)
            for (label, _, lam), value, bound in zip(ctx.cases, lhs, ctx.bounds)]


def _drift(r0: float, r1: float) -> float:
    """|r1 - r0| / |r0|, or |r1 - r0| when r0 = 0; inf when either value is not finite."""
    if not (math.isfinite(r0) and math.isfinite(r1)):
        return math.inf
    drift = abs(r1 - r0)
    return drift / abs(r0) if r0 != 0.0 else drift


def _plateau_gate(name: str, contexts: tuple, quantity, tol: float = 0.10) -> HypothesisResult:
    """quantity(ctx) on the contexts of the half, same and double grids must settle.

    Every grid evaluates the same centers, those of the base family; a
    center off the half grid's nodes (odd stride) keeps its coordinates.
    """
    lo, mid, hi = (quantity(ctx) for ctx in contexts)
    d1, d2 = _drift(lo, mid), _drift(mid, hi)
    growth = hi / lo if lo > 0 else math.inf
    passed = d1 < tol and d2 < tol
    detail = (
        f"refinement drift {d1:.3%}, {d2:.3%}; total growth x{growth:.3f}"
        + ("" if passed else "; the supremum is not settling, treat as divergent")
    )
    return HypothesisResult(name, passed, detail, (lo, mid, hi, growth))


def _gates(half: _Context, ctx: _Context, double: _Context) -> List[HypothesisResult]:
    """The gates of ctx.spec; the plateau gates read the half, base and double grid contexts."""
    spec = ctx.spec
    gates: List[HypothesisResult] = []
    di = dini_integrals(spec.theta)
    if ctx.image != "T f":
        ok = di.converged
        detail = f"dini={di.dini!r}, log_dini={di.log_dini!r}"
    else:
        ok = math.isfinite(di.dini)
        detail = f"dini={di.dini!r}"
    gates.append(HypothesisResult("dini_modulus", ok, detail, (di.dini, di.log_dini)))
    contexts = (half, ctx, double)
    if ctx.lhs[1] == "u":
        gates.append(_plateau_gate("bump_plateau", contexts,
                                   lambda c: bump_check(c.u, c.v, spec.bump, c.family).value))
    else:
        gates.append(_plateau_gate("weight_class_plateau", contexts,
                                   lambda c: muckenhoupt_characteristic(c.w, spec.p, c.family)))
    if spec.mu_expr is not None:
        profile = doubling_profile(ctx.mu, ctx.family)
        d, r = profile.doubling_constant, profile.reverse_doubling_constant
        gates.append(HypothesisResult("measure_doubling", d < 1e6 and r > 1.01,
                                      f"doubling={d:.4g}, reverse={r:.4g}", (d, r)))
    if ctx.b is not None:
        norm = ctx.bmo
        ok = norm > 0.0 and math.isfinite(norm)
        gates.append(
            HypothesisResult("symbol_oscillation", ok, f"oscillation norm {norm!r}", (norm,)))
    return gates


def _max_rel_drift(base: List[CaseResult], other: List[CaseResult]) -> float:
    """Largest _drift of a case ratio from base to other, matched by label."""
    by_label = {c.label: c.ratio for c in other}
    return max((_drift(c.ratio, by_label[c.label]) for c in base if c.label in by_label),
               default=0.0)


def _passes(spec: ExperimentSpec, refinements: int, eps_stability: bool) -> list:
    """(key, run, other run) of each stability pass; a run is (grid level k, eps_nodes), and
    level k has points << k nodes per axis.  A refinement doubles eps_nodes with the points,
    so the physical truncation radius stays fixed and the drift isolates discretization error."""
    if refinements < 0:
        raise ConfigurationError(f"refinements must be at least 0, got {refinements}")
    e = spec.eps_nodes
    rows = [("epsilon_halving", (0, e), (0, max(2, e // 2)))] if eps_stability and e > 2 else []
    return rows + [("grid_refinement" if k == 1 else f"grid_refinement_{k}",
                    (k - 1, e << (k - 1)), (k, e << k)) for k in range(1, refinements + 1)]


def theorem_experiment(
    spec: ExperimentSpec,
    refinements: int = 1,
    eps_stability: bool = True,
    strict: bool = False,
) -> RatioReport:
    """Run one ratio experiment end to end.

    Gates are computed first; with strict=True a failing gate raises
    HypothesisError, otherwise the report carries the failure and the
    cases are still evaluated so divergence studies can see the numbers.
    Stability deltas are the _max_rel_drift of the two runs of each _passes
    row, and each run is evaluated once.  The region centers are fixed
    once, every center_stride-th node of the base grid, and every pass and
    plateau gate evaluates those same centers, so a refinement changes how
    finely each region is sampled and nothing else.  The outer weight stays
    the cell volume of the grid evaluated, a uniform factor that every
    ratio cancels.  Each grid is rendered once, as one _Context: the
    plateau gates read the half, base and double grids, the truncation
    pass reuses the base grid's bound sides, and refinement level 1 runs
    on the gates' double grid.
    """
    passes = _passes(spec, refinements, eps_stability)
    ctx = _Context(spec, spec.points)
    centers = ctx.family.centers
    fine = {1: _Context(spec, spec.points * 2, centers)}
    # the half grid's context is read by the gates only, and released with them
    gates = _gates(_Context(spec, spec.points // 2, centers), ctx, fine[1])
    if strict:
        for g in gates:
            if not g.passed:
                raise HypothesisError(g.name, g.detail)
    runs: dict = {}
    for k, eps_nodes in [(0, spec.eps_nodes)] + [run for _, *pair in passes for run in pair]:
        if (k, eps_nodes) not in runs:
            # level 1 is the gates' double grid; a refined context is released once its run is in
            level = (fine.pop(k, None) or _Context(spec, spec.points << k, centers)) if k else ctx
            runs[k, eps_nodes] = _run_cases(level, eps_nodes)
    stability = {key: _max_rel_drift(runs[a], runs[b]) for key, a, b in passes}

    metadata = {
        "dim": spec.dim,
        "half_width": spec.half_width,
        "points": spec.points,
        "kernel": spec.kernel_tag,
        "theta": {"tag": spec.theta.tag, "param": spec.theta.param},
        "eps_nodes": spec.eps_nodes,
        "epsilon": spec.eps_nodes * ctx.grid.spacing,
        "p": spec.p,
        "alpha": spec.alpha,
        "q": spec.q,
        "weights": {"w": spec.w_expr, "u": spec.u_expr, "v": spec.v_expr, "mu": spec.mu_expr},
        "symbol": spec.b_expr if ctx.b is not None else None,
        "shape": spec.shape,
        "sizes": list(spec.sizes),
        "center_stride": spec.center_stride,
        "corpus": [label for label, _ in ctx.corpus],
        "seed": spec.seed,
    }
    return RatioReport(
        experiment=spec.theorem,
        cases=tuple(runs[0, spec.eps_nodes]),
        hypotheses=tuple(gates),
        metadata=metadata,
        stability=stability,
    )
