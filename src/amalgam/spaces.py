"""Local norms, BMO, and weighted amalgam norms.

An amalgam norm scans a family of congruent regions: for each size it
takes a local norm on every region, weights it by a power of the region's
measure, aggregates over centers in an outer counting norm, then takes
the supremum over sizes.  Suitable parameter choices collapse this to
weighted Lebesgue or Morrey norms, which is how the implementation is
cross-checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .grid import (
    DiscreteFunction, Grid, Region, RegionFamily, batch_table, region_statistic, window_sums,
)
from .orlicz import YoungFunction, _average, luxemburg_table
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
    "amalgam_norms",
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
    return region_statistic(f, region, weight, lambda a, m, counts, starts: np.add.reduceat(
        np.abs(a) ** p * m, starts) ** (1.0 / p))


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
    return region_statistic(f, region, weight, lambda a, m, counts, starts: _weak_lp(
        np.abs(a), m, counts, p))


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
    return region_statistic(f, region, weight, _average)


def oscillation_table(b: np.ndarray, family: RegionFamily, grid: Grid):
    """avg_B |b - b_B| on every region of a family, and node counts, as [size, center]."""

    def oscillation(seg, counts, starts):
        mean = np.add.reduceat(seg, starts) / counts
        return np.add.reduceat(np.abs(seg - np.repeat(mean, counts)), starts) / counts

    return batch_table(family, grid, [b], oscillation)


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
    return mu.values[grid.node_index(family.centers)] * grid.cell_volume


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


# node entries per window_sums call of the strong variant: a 1D grid sums u and
# every row in one call, a 2D 512^2 grid u and seven rows, then the rest
_SUM_NODES = 2**21


def amalgam_norms(grid: Grid, rows, spec: AmalgamSpec) -> List[AmalgamNormResult]:
    """The amalgam norm of each node array in rows, in one pass over the family.

    The strong variant sums the inner-weight mass and every |row|^p u in
    window_sums calls of _SUM_NODES node entries, u in the first, each array
    on its own; weak and llogl take one batched table per row.  Every row
    then goes through outer_norm on its own.
    """
    for side, weight in (("inner", spec.inner_weight), ("outer", spec.outer_weight)):
        if weight is not None and weight.grid != grid:
            raise ConfigurationError(f"{side} weight lives on a different grid")
    fam = spec.family
    params = spec.params
    cell = grid.cell_volume
    u = np.ones(grid.n_nodes) if spec.inner_weight is None else spec.inner_weight.values
    if spec.variant == "strong":
        arrays = itertools.chain([u], (np.abs(r) ** params.p * u for r in rows))
        per = max(1, _SUM_NODES // grid.n_nodes)
        sums = np.concatenate([window_sums(fam, grid, chunk)[0] for chunk in
                               iter(lambda: list(itertools.islice(arrays, per)), [])])
        inners = (cell * sums[1:]) ** (1.0 / params.p)
    else:
        sums, _ = window_sums(fam, grid, [u])
        inners = [_inner_table(grid, r, spec, cell * u) for r in rows]
    expo = params.llogl_exponent if spec.variant == "llogl" else params.strong_exponent
    mass = cell * sums[0]
    weights = outer_weights(grid, fam, spec.outer_weight)
    results = []
    for inner in inners:
        # inner > 0 only on regions that hold nodes, whose u-mass is positive
        table = np.power(mass, expo, out=np.zeros(mass.shape), where=inner > 0.0) * inner
        value, s, c = outer_norm(table, params.q, weights)
        results.append(AmalgamNormResult(value, fam.sizes[s], fam.centers[c]))
    return results


def _inner_table(grid: Grid, values: np.ndarray, spec: AmalgamSpec, m: np.ndarray) -> np.ndarray:
    """Weak L^p or averaged LlogL norm of the values on every region, as [size, center]."""
    if spec.variant == "weak":
        return batch_table(spec.family, grid, [np.abs(values), m], lambda a, mass, counts, starts:
                           _weak_lp(a, mass, counts, spec.params.p))[0]
    return luxemburg_table(spec.family, grid, values, YoungFunction.llogl(1.0), spec.inner_weight)


def amalgam_norm_detail(f: DiscreteFunction, spec: AmalgamSpec) -> AmalgamNormResult:
    return amalgam_norms(f.grid, [f.values], spec)[0]


def amalgam_norm(f: DiscreteFunction, spec: AmalgamSpec) -> float:
    return amalgam_norm_detail(f, spec).value
