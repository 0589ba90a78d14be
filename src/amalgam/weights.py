"""Positive weights and their Muckenhoupt-style diagnostics.

Weights keep their defining expression so they can be re-rendered on a
refined grid; characteristics are suprema over a region family, which is
how every continuum supremum is realized in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .expressions import evaluate
from .grid import DiscreteFunction, Grid, RegionFamily, batch_table, window_sums

__all__ = [
    "Weight",
    "weight_from_expression",
    "power_weight",
    "constant_weight",
    "muckenhoupt_characteristic",
    "WeightProfile",
    "doubling_profile",
]


@dataclass(frozen=True)
class Weight:
    """A strictly positive function on a grid, usually expression-backed."""

    function: DiscreteFunction
    expression: Optional[str] = None

    def __post_init__(self):
        if not np.all(self.function.values > 0):
            what = f"weight expression {self.expression!r}" if self.expression else "weights"
            raise ConfigurationError(f"{what} must be strictly positive on the grid")

    @property
    def grid(self) -> Grid:
        return self.function.grid

    @property
    def values(self) -> np.ndarray:
        return self.function.values


def weight_from_expression(expression: str, grid: Grid) -> Weight:
    return Weight(DiscreteFunction(grid, evaluate(expression, grid)), expression)


def power_weight(grid: Grid, a: float) -> Weight:
    """|x|^a with the distance clipped below at h/2, so the weight stays positive.

    In dimension one this lies in the p > 1 Muckenhoupt class exactly for
    -1 < a < p - 1, which makes it the standard probe weight.  Outside the
    class the clipping keeps the characteristic over centered balls finite,
    but it grows like C h^{-s} with s = max(-1 - a, a - (p - 1)) the
    distance to the class, i.e. by 2^s per halving of h.
    """
    return weight_from_expression(f"r**({float(a)!r})", grid)


def constant_weight(grid: Grid, c: float = 1.0) -> Weight:
    if not (c > 0):
        raise ConfigurationError("constant weight must be positive")
    return weight_from_expression(repr(float(c)), grid)


def muckenhoupt_characteristic(w: Weight, p: float, family: RegionFamily) -> float:
    """sup over the family of avg(w) * avg(w^{-1/(p-1)})^{p-1}, or the
    p = 1 variant avg(w) / min(w).

    At p = 2 the product avg(w) * avg(1/w) is symmetric under w -> 1/w, so
    |x|^a and |x|^{-a} have the same characteristic.
    """
    if p < 1:
        raise ConfigurationError("muckenhoupt characteristic needs p >= 1")

    def characteristic(wb, counts, starts):
        m1 = np.add.reduceat(wb, starts) / counts
        if p == 1.0:
            return m1 / np.minimum.reduceat(wb, starts)
        m2 = np.add.reduceat(wb ** (-1.0 / (p - 1.0)), starts) / counts
        return m1 * m2 ** (p - 1.0)

    table, counts = batch_table(family, w.grid, [w.values], characteristic, warn=True)
    if not counts.any():
        raise PreconditionError("every region in the family is empty")
    return float(table.max())


@dataclass(frozen=True)
class WeightProfile:
    """Doubling constants, and a comparison fit that is None when no center carries two sizes."""

    doubling_constant: float
    reverse_doubling_constant: float
    comparison_exponent: Optional[float]
    comparison_constant: Optional[float]
    n_regions: int


def doubling_profile(w: Weight, family: RegionFamily) -> WeightProfile:
    """Doubling and growth diagnostics of the measure w dx over a family.

    Doubling constants use the pairs (B, 2B) whose dilation still fits the
    box.  The comparison exponent is a least-squares slope of log-mass
    against log-size along concentric chains, with the constant sized so
    that mass(B_r)/mass(B_R) <= C (r/R)^delta holds on every observed pair.
    """
    grid = w.grid

    def masses(fam):
        # only regions inside the box enter; the others read as massless
        sums = window_sums(fam, grid, [w.values])[0][0]
        return np.where(fam.fits_box(grid), grid.cell_volume * sums, 0.0)

    m, m2 = masses(family), masses(family.dilate(2.0))
    pairs = (m > 0.0) & (m2 > 0.0)
    if not pairs.any():
        raise PreconditionError(
            "no region in the family keeps its doubling inside the box"
        )
    ratios = m2[pairs] / m[pairs]
    stats = (float(ratios.max()), float(ratios.min()))

    # each column of the table is a concentric chain of log-mass against
    # log-size; fit one shared slope, summing chains in order of first size.
    # A chain is a row that reads 0 off the chain, so its sums, and its dot
    # products (np.matmul calls BLAS's dot, as np.dot does), add its terms in order
    chain = m > 0.0
    fitted = np.flatnonzero(chain.sum(axis=0) >= 2)
    if fitted.size == 0:
        return WeightProfile(*stats, None, None, int(ratios.size))
    log_size = np.log(family.sizes)
    log_m = np.log(m, out=np.zeros_like(m), where=chain)
    cols = fitted[np.argsort(chain.argmax(axis=0)[fitted], kind="stable")]
    on = chain[:, cols].T
    n = on.sum(axis=1, keepdims=True)
    xc, yc = (np.where(on, v - v.sum(axis=1, keepdims=True) / n, 0.0)
              for v in (log_size * on, log_m[:, cols].T))
    num, den = (float(np.cumsum(np.matmul(xc[:, None, :], v[:, :, None]))[-1]) for v in (yc, xc))
    if den == 0.0:
        raise PreconditionError("comparison fit needs at least two distinct sizes")
    delta = num / den

    # residual of every pair (r < R) along a chain
    order = np.argsort(family.sizes, kind="stable")
    x, y, on = log_size[order], log_m[order], chain[order]
    resid = (y[:, None] - y[None, :]) - delta * (x[:, None] - x[None, :])[:, :, None]
    below = np.triu(np.ones((len(x), len(x)), dtype=bool), 1)[:, :, None]
    worst = resid[below & on[:, None] & on[None, :]].max(initial=0.0)
    return WeightProfile(*stats, delta, math.exp(worst), int(ratios.size))
