"""Local norms, BMO, and weighted amalgam norms.

An amalgam norm scans a family of congruent regions: for each size it
takes a local norm on every region, weights it by a power of the region's
measure, aggregates over centers in an outer counting norm, then takes
the supremum over sizes.  Suitable parameter choices collapse this to
weighted Lebesgue or Morrey norms, which is how the implementation is
cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .grid import DiscreteFunction, Grid, Region, RegionFamily, batch_table, gather, window_sums
from .orlicz import YoungFunction, luxemburg_table
from .weights import Weight

__all__ = [
    "SpaceParams",
    "AmalgamSpec",
    "AmalgamNormResult",
    "local_lp_norm",
    "local_weak_lp_norm",
    "region_mean",
    "bmo_norm",
    "amalgam_norm",
    "amalgam_norm_detail",
]


@dataclass(frozen=True)
class SpaceParams:
    """Exponent triple (p, alpha, q) with 1 <= p <= alpha < q <= inf."""

    p: float
    alpha: float
    q: float

    def __post_init__(self):
        if not (1.0 <= self.p <= self.alpha):
            raise ConfigurationError("need 1 <= p <= alpha")
        if not (self.alpha < self.q):
            raise ConfigurationError("need alpha < q")

    @property
    def p_prime(self) -> float:
        return math.inf if self.p == 1.0 else self.p / (self.p - 1.0)

    @property
    def inv_q(self) -> float:
        return 0.0 if math.isinf(self.q) else 1.0 / self.q

    @property
    def strong_exponent(self) -> float:
        """Measure exponent 1/alpha - 1/p - 1/q for strong and weak norms."""
        return 1.0 / self.alpha - 1.0 / self.p - self.inv_q

    @property
    def llogl_exponent(self) -> float:
        """Measure exponent 1/alpha - 1/q for the averaged LlogL norm."""
        return 1.0 / self.alpha - self.inv_q


def local_lp_norm(
    f: DiscreteFunction,
    p: float,
    region: Optional[Region] = None,
    weight=None,
) -> float:
    """Unnormalized norm (integral form) of f in L^p with an optional weight."""
    if p < 1:
        raise ConfigurationError("local_lp_norm needs p >= 1")
    vals, masses = gather(f, region, weight)
    return float(np.sum(np.abs(vals) ** p * masses)) ** (1.0 / p)


def local_weak_lp_norm(
    f: DiscreteFunction,
    p: float,
    region: Optional[Region] = None,
    weight=None,
) -> float:
    """sup over lam of lam * mass(|f| > lam)^{1/p}, evaluated exactly.

    On a finite grid the supremum is attained just below each distinct
    value of |f|, so scanning descending-sorted values with cumulative
    masses gives the exact answer.
    """
    if p < 1:
        raise ConfigurationError("local_weak_lp_norm needs p >= 1")
    vals, masses = gather(f, region, weight)
    return float(_weak_lp(np.abs(vals), masses, np.array([vals.size]), p)[0])


def _weak_lp(a, m, counts, p: float) -> np.ndarray:
    """Weak L^p norms of segments of counts[k] consecutive |f| values a and masses m.

    Each segment becomes a row of a zero-padded [segment, slot] table, sorted
    by |f| in descending order; its cumulative masses then run inside the
    row, never as differences of prefix sums over the whole batch.
    """
    starts = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(counts.size), counts)
    slots = np.arange(a.size) - np.repeat(starts, counts)
    key = np.full((counts.size, int(counts.max(initial=0))), -1.0)
    mass = np.zeros(key.shape)
    key[rows, slots], mass[rows, slots] = a, m
    order = np.argsort(-key, axis=1)
    cum = np.cumsum(np.take_along_axis(mass, order, axis=1), axis=1)
    cand = np.maximum(np.take_along_axis(key, order, axis=1), 0.0) * cum ** (1.0 / p)
    return cand.max(axis=1, initial=0.0)


def region_mean(
    f: DiscreteFunction,
    region: Optional[Region] = None,
    weight=None,
) -> float:
    """Mass-weighted average of f over a region.

    Without a weight this is the node average over the region's strict
    members, not an integral mean: at a sampled log singularity (``logabs``
    clips |x| at h/2) it is biased by O(h / r).  For a ball of radius
    r = m h centered on the singularity the mean of ``logabs`` is
    log r - 1 + (log pi - 1) / (2m - 1) + O(m^-2), about log r - 1 + 0.072 h / r.
    """
    vals, masses = gather(f, region, weight)
    total = float(np.sum(masses))
    if total <= 0.0:
        return 0.0
    return float(np.sum(vals * masses)) / total


def oscillation_table(b: np.ndarray, family: RegionFamily, grid: Grid):
    """avg_B |b - b_B| on every region of a family, and node counts, as [size, center]."""

    def oscillation(idx, counts, starts):
        seg = b[idx]
        mean = np.add.reduceat(seg, starts) / counts
        return np.add.reduceat(np.abs(seg - np.repeat(mean, counts)), starts) / counts

    return batch_table(family, grid, oscillation)


def bmo_norm(b: DiscreteFunction, family: RegionFamily) -> float:
    """sup over the family of avg_B |b - b_B|."""
    table, counts = oscillation_table(b.values, family, b.grid)
    if not counts.any():
        raise PreconditionError("every region in the family is empty")
    return float(table.max())


@dataclass(frozen=True)
class AmalgamSpec:
    """Everything an amalgam norm needs besides the function itself.

    variant is one of "strong", "weak", "llogl".  inner_weight drives the
    local norms and the measure powers; outer_weight (optional) weights
    the counting measure over centers.  The llogl variant is an averaged
    Luxemburg norm and is defined for p = 1 only.
    """

    params: SpaceParams
    family: RegionFamily
    inner_weight: Optional[Weight] = None
    outer_weight: Optional[Weight] = None
    variant: str = "strong"

    def __post_init__(self):
        if self.variant not in ("strong", "weak", "llogl"):
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.variant == "llogl" and self.params.p != 1.0:
            raise ConfigurationError("the llogl variant requires p = 1")


@dataclass(frozen=True)
class AmalgamNormResult:
    value: float
    argmax_size: float
    argmax_center: tuple


def outer_weights(grid: Grid, family: RegionFamily, mu: Optional[Weight]):
    """Outer measure of each center: the cell volume, times mu at the center when mu is set."""
    if mu is None:
        return grid.cell_volume
    return np.array([mu.values[grid.node_index(c)] for c in family.centers]) * grid.cell_volume


def outer_norm(table: np.ndarray, q: float, weights) -> Tuple[float, int, int]:
    """l^q(weights) over the centers of each size, then the sup over sizes.

    table is indexed [size, center].  Returns the value, the index of the
    size attaining it, and the index of the largest entry in that size.
    """
    best = -math.inf
    best_size = best_center = 0
    for s, row in enumerate(table):
        k = int(np.argmax(row))
        if math.isinf(q):
            outer = float(row[k])
        else:
            outer = float(np.sum(row**q * weights)) ** (1.0 / q)
        if outer > best:
            best = outer
            best_size = s
            best_center = k
    return best, best_size, best_center


def amalgam_norm_detail(f: DiscreteFunction, spec: AmalgamSpec) -> AmalgamNormResult:
    grid = f.grid
    if spec.inner_weight is not None and spec.inner_weight.grid != grid:
        raise ConfigurationError("inner weight lives on a different grid")
    if spec.outer_weight is not None and spec.outer_weight.grid != grid:
        raise ConfigurationError("outer weight lives on a different grid")
    fam = spec.family
    params = spec.params
    u = np.ones(grid.n_nodes) if spec.inner_weight is None else spec.inner_weight.values
    if spec.variant == "strong":
        sums, _ = window_sums(fam, grid, [u, np.abs(f.values) ** params.p * u])
        inner = (grid.cell_volume * sums[1]) ** (1.0 / params.p)
    else:
        sums, _ = window_sums(fam, grid, [u])
        if spec.variant == "weak":
            a, m = np.abs(f.values), grid.cell_volume * u
            inner = batch_table(fam, grid, lambda idx, counts, starts: _weak_lp(
                a[idx], m[idx], counts, params.p))[0]
        else:
            llogl = YoungFunction.llogl(1.0)
            inner = luxemburg_table(fam, grid, f.values, llogl, spec.inner_weight)
    expo = params.llogl_exponent if spec.variant == "llogl" else params.strong_exponent
    # inner > 0 only on regions that hold nodes, whose u-mass is positive
    mass = grid.cell_volume * sums[0]
    table = np.power(mass, expo, out=np.zeros(mass.shape), where=inner > 0.0) * inner
    value, s, c = outer_norm(table, params.q, outer_weights(grid, fam, spec.outer_weight))
    return AmalgamNormResult(value, fam.sizes[s], fam.centers[c])


def amalgam_norm(f: DiscreteFunction, spec: AmalgamSpec) -> float:
    return amalgam_norm_detail(f, spec).value
