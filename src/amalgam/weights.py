"""Positive weights and their Muckenhoupt-style diagnostics.

A weight keeps its defining expression only to name it in the positivity
error: harness._Context renders the weights of each grid from the strings
of the ExperimentSpec.  Characteristics are suprema over a region family,
which is how every continuum supremum is realized in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .grid import DiscreteFunction, Grid, RegionFamily, sample, window_sums

__all__ = [
    "Weight",
    "weight_from_expression",
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
    return Weight(sample(expression, grid), expression)


def muckenhoupt_characteristic(w: Weight, p: float, family: RegionFamily) -> float:
    """sup over the family of avg(w) * avg(w^{-1/(p-1)})^{p-1}, or the
    p = 1 variant avg(w) / min(w).

    At p = 2 the product avg(w) * avg(1/w) is symmetric under w -> 1/w, so
    |x|^a and |x|^{-a} have the same characteristic.
    """
    if not 1 <= p < math.inf:
        raise ConfigurationError("muckenhoupt characteristic needs 1 <= p < inf")
    arrays = [w.values] if p == 1.0 else [w.values, w.values ** (-1.0 / (p - 1.0))]
    sums, counts = window_sums(family, w.grid, arrays, warn=True)
    if not counts.any():
        raise PreconditionError("every region in the family is empty")
    held = counts > 0
    avg = sums[:, held] / counts[held]
    if p == 1.0:
        low = window_sums(family, w.grid, arrays, np.minimum)[0][0, held]
        return float((avg[0] / low).max())
    return float((avg[0] * avg[1] ** (p - 1.0)).max())


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
    # log-size; fit one shared slope, centering each chain on its own means
    chain = m > 0.0
    fitted = np.flatnonzero(chain.sum(axis=0) >= 2)
    if fitted.size == 0:
        return WeightProfile(*stats, None, None, int(ratios.size))
    log_size = np.log(family.sizes)
    log_m = np.log(m, out=np.zeros_like(m), where=chain)
    on = chain[:, fitted].T
    n = on.sum(axis=1, keepdims=True)
    xc, yc = (np.where(on, v - v.sum(axis=1, keepdims=True) / n, 0.0)
              for v in (log_size * on, log_m[:, fitted].T))
    num, den = float(np.sum(xc * yc)), float(np.sum(xc * xc))
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
