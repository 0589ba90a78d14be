"""Kernels with modulus-controlled smoothness and their truncated operators.

A kernel K is admissible when |K(x, y)| <= C |x-y|^{-dim} and the
increment |K(x, y) - K(z, y)| is controlled by
theta(|x-z| / |x-y|) |x-y|^{-dim} for |x-z| < |x-y| / 2, where theta is a
nondecreasing modulus on (0, 1].  The operator itself is realized as the
eps-truncated singular sum on the grid, which is a discrete convolution.
In 1D and 2D alike it is computed by one numpy.fft product on a (2n)^dim
lattice, O(N log N) in the node count N, against a cached kernel spectrum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, PreconditionError
from .grid import DiscreteFunction, Grid, Region, RegionFamily, node_batches, window_sums
from .orlicz import YoungFunction, luxemburg_table
from .spaces import oscillation_table

__all__ = [
    "ThetaModulus",
    "DiniIntegrals",
    "dini_integrals",
    "Kernel",
    "apply_operator",
    "maximal",
]


@dataclass(frozen=True)
class ThetaModulus:
    """Nondecreasing modulus on (0, 1] with theta(0+) = 0.

    power:   theta(t) = t^delta, 0 < delta <= 1
    log:     theta(t) = (1 + log(1/t))^{-beta}, beta > 0; its Dini integral
             diverges for beta <= 1, which makes it the standard
             counterexample probe
    zero:    theta identically zero (exact kernels with no smoothness error)
    """

    tag: str = "power"
    param: float = 1.0

    def __post_init__(self):
        if self.tag not in ("power", "log", "zero"):
            raise ConfigurationError(f"unknown modulus tag {self.tag!r}")
        if self.tag == "power" and not (0.0 < self.param <= 1.0):
            raise ConfigurationError("power modulus needs 0 < delta <= 1")
        if self.tag == "log" and not (self.param > 0.0):
            raise ConfigurationError("log modulus needs beta > 0")

    @classmethod
    def power(cls, delta: float) -> "ThetaModulus":
        return cls("power", float(delta))

    @classmethod
    def log(cls, beta: float) -> "ThetaModulus":
        return cls("log", float(beta))

    @classmethod
    def zero(cls) -> "ThetaModulus":
        return cls("zero", 0.0)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.tag == "zero":
            out = np.zeros_like(t)
        else:
            tc = np.clip(t, 0.0, 1.0)
            if self.tag == "power":
                out = tc**self.param
            else:
                with np.errstate(divide="ignore"):
                    logt = np.log(tc)
                # 1 - log(0) = inf and inf**(-beta) = 0, so t = 0 maps to 0
                out = np.where(tc > 0, (1.0 - logt) ** (-self.param), 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class DiniIntegrals:
    """Values of int_0^1 theta(t)/t dt and int_0^1 theta(t) |log t| / t dt.

    Divergent or effectively divergent integrals are reported as inf.
    """

    dini: float
    log_dini: float

    @property
    def converged(self) -> bool:
        return math.isfinite(self.dini) and math.isfinite(self.log_dini)


_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(32)


def _tail_estimate(piece: float, ratio: float, level: int) -> float:
    """Geometric or power-law extrapolation of the remaining dyadic pieces."""
    if piece <= 0.0:
        return 0.0
    if ratio >= 1.0:
        return math.inf
    if ratio < 0.95:
        return piece * ratio / (1.0 - ratio)
    # slow decay: model piece_k ~ k^{-a}
    a = level * (1.0 - ratio)
    if a <= 1.1:
        return math.inf
    return piece * level / (a - 1.0)


def dini_integrals(
    theta: ThetaModulus,
    rel_tol: float = 1e-6,
    blowup: float = 1e12,
    max_levels: int = 1008,
) -> DiniIntegrals:
    """Dyadic Gauss quadrature of the two Dini integrals of a modulus.

    The integrand is evaluated on [2^{-k-1}, 2^{-k}] until both pieces fall
    below rel_tol of their running totals, then the tail is extrapolated.
    Totals past the blowup cutoff, and tails that fail to decay summably,
    come back as inf.
    """
    # below level ~1008 the dyadic endpoints leave float64 range
    max_levels = min(max_levels, 1008)
    total1 = 0.0
    total2 = 0.0
    prev1 = prev2 = 0.0
    p1 = p2 = 0.0
    k = 0
    tiny = 1e-300
    for k in range(max_levels):
        b = 2.0**-k
        a = b / 2.0
        t = 0.5 * (a + b) + 0.5 * (b - a) * _GAUSS_NODES
        th = np.asarray(theta(t))
        scale = 0.5 * (b - a)
        prev1, prev2 = p1, p2
        with np.errstate(over="ignore"):
            p1 = scale * float(np.sum(th / t * _GAUSS_WEIGHTS))
            p2 = scale * float(np.sum(th * (-np.log(t)) / t * _GAUSS_WEIGHTS))
        total1 += p1
        total2 += p2
        if total1 > blowup or total2 > blowup:
            return DiniIntegrals(math.inf, math.inf)
        if k >= 8 and p1 <= rel_tol * max(total1, tiny) and p2 <= rel_tol * max(total2, tiny):
            break
    r1 = 0.0 if (prev1 <= 0.0 or p1 <= 0.0) else p1 / prev1
    r2 = 0.0 if (prev2 <= 0.0 or p2 <= 0.0) else p2 / prev2
    tail1 = _tail_estimate(p1, r1, k + 1)
    tail2 = _tail_estimate(p2, r2, k + 1)
    total1 = total1 + tail1
    total2 = total2 + tail2
    if total1 > blowup:
        total1 = math.inf
    if total2 > blowup:
        total2 = math.inf
    return DiniIntegrals(total1, total2)


@dataclass(frozen=True)
class Kernel:
    """A singular kernel on the box, with its declared modulus.

    hilbert:  K(x, y) = 1 / (pi (x - y)), dimension one
    riesz:    K(x, y) = (x - y)_component / |x - y|^{dim + 1}
    zero:     K identically zero
    """

    tag: str
    dim: int
    theta: ThetaModulus = ThetaModulus.power(1.0)
    component: int = 0

    def __post_init__(self):
        if self.tag not in ("hilbert", "riesz", "zero"):
            raise ConfigurationError(f"unknown kernel tag {self.tag!r}")
        if self.dim not in (1, 2):
            raise ConfigurationError("kernel dim must be 1 or 2")
        if self.tag == "hilbert" and self.dim != 1:
            raise ConfigurationError("the hilbert kernel is one dimensional")
        if not (0 <= self.component < self.dim):
            raise ConfigurationError("bad riesz component")

    def pointwise(self, diff: np.ndarray) -> np.ndarray:
        """Kernel value at displacement diff, shape (..., dim); zero at 0."""
        diff = np.asarray(diff, dtype=np.float64)
        if self.dim == 1:
            d = diff.reshape(-1)
            rho = np.abs(d)
        else:
            d = diff.reshape(-1, self.dim)
            rho = np.sqrt(np.sum(d * d, axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.tag == "hilbert":
                out = 1.0 / (math.pi * d)
            elif self.tag == "riesz":
                num = d if self.dim == 1 else d[:, self.component]
                out = num / rho ** (self.dim + 1)
            else:
                out = np.zeros_like(rho)
        out = np.where(rho > 0, out, 0.0)
        return out


@functools.lru_cache(maxsize=64)
def _kernel_spectrum(kernel: Kernel, grid: Grid, epsilon: float) -> np.ndarray:
    """rfftn of the eps-truncated kernel laid out circularly on (2n)^dim.

    Offsets run 0..n-1, then -n..-1 along each axis.  Inputs and outputs sit
    at indices 0..n-1, so no displacement exceeds n-1 and nothing wraps.
    """
    n = grid.points_per_axis
    m = np.concatenate([np.arange(n), np.arange(-n, 0)]) * grid.spacing
    diff = np.meshgrid(*[m] * grid.dim, indexing="ij")
    rho = np.sqrt(sum(d * d for d in diff))
    vals = kernel.pointwise(np.stack(diff, axis=-1)).reshape(rho.shape)
    spectrum = np.fft.rfftn(np.where(rho > epsilon * (1.0 + 1e-12), vals, 0.0))
    spectrum.flags.writeable = False
    return spectrum


def apply_operator(
    kernel: Kernel,
    f: DiscreteFunction,
    epsilon: float,
    b: Optional[DiscreteFunction] = None,
) -> DiscreteFunction:
    """Truncated singular integral, or its commutator with b when b is given.

    T f(x_i) = h^dim sum over |x_i - x_j| > eps of K(x_i - x_j) f(x_j).
    The truncation must keep at least the two nearest cells out, eps >= 2h,
    so the diagonal singularity never enters the sum.  With b the result is
    b (T f) - T (b f); f and b f go through one batched transform.
    """
    grid = f.grid
    if kernel.dim != grid.dim:
        raise ConfigurationError("kernel and grid dimensions do not match")
    h = grid.spacing
    if epsilon < 2.0 * h * (1.0 - 1e-12):
        raise ConfigurationError(f"truncation epsilon must be at least 2h = {2 * h!r}")
    if b is not None and b.grid != grid:
        raise ConfigurationError("symbol b lives on a different grid")
    n = grid.points_per_axis
    lattice, axes = (2 * n,) * grid.dim, tuple(range(1, grid.dim + 1))
    if b is not None:
        # [b, T] is linear in b: scale b exactly by a power of two to order one
        shift = int(np.frexp(np.max(np.abs(b.values)))[1])
        bs = np.ldexp(b.values, -shift)
    data = np.stack([f.values] if b is None else [f.values, bs * f.values])
    spectrum = np.fft.rfftn(data.reshape((-1,) + (n,) * grid.dim), s=lattice, axes=axes)
    full = np.fft.irfftn(spectrum * _kernel_spectrum(kernel, grid, epsilon), s=lattice, axes=axes)
    images = grid.cell_volume * full[(slice(None),) + (slice(n),) * grid.dim].reshape(len(data), -1)
    out = images[0] if b is None else np.ldexp(bs * images[0] - images[1], shift)
    return DiscreteFunction(grid, out)


def maximal(
    f: DiscreteFunction,
    kind: str,
    regions: Iterable[Region],
    delta: Optional[float] = None,
) -> DiscreteFunction:
    """Family-restricted maximal function of f.

    hl           sup of avg |f| over member regions containing the node
    sharp        sup of avg |f - avg f|
    hl_delta     [hl of |f|^delta]^{1/delta}
    sharp_delta  [sharp of |f|^delta]^{1/delta}
    llogl        sup of the averaged LlogL Luxemburg norm

    Every node must be covered by some region; append a covering cube to
    the family if needed.
    """
    if kind in ("hl_delta", "sharp_delta"):
        if delta is None or not (0.0 < delta <= 1.0):
            raise ConfigurationError("delta kinds need 0 < delta <= 1")
        powered = DiscreteFunction(f.grid, np.abs(f.values) ** delta)
        inner = maximal(powered, kind[: -len("_delta")], regions)
        return DiscreteFunction(f.grid, inner.values ** (1.0 / delta))
    if kind not in ("hl", "sharp", "llogl"):
        raise ConfigurationError(f"unknown maximal kind {kind!r}")

    grid = f.grid
    out = np.full(grid.n_nodes, -math.inf)
    # consecutive regions of one shape and size are a one-size family
    for (shape, size), group in itertools.groupby(regions, key=lambda r: (r.shape, r.size)):
        fam = RegionFamily(shape, tuple(r.center for r in group), (size,))
        if kind == "hl":
            sums, counts = window_sums(fam, grid, [np.abs(f.values)])
            table = sums[0] / np.maximum(counts, 1)
        elif kind == "sharp":
            table = oscillation_table(f.values, fam, grid)[0]
        else:
            table = luxemburg_table(fam, grid, f.values, YoungFunction.llogl(1.0))
        for s, first, idx, counts in node_batches(fam, grid):
            np.maximum.at(out, idx, np.repeat(table[s, first:first + counts.size], counts))
    if np.any(np.isinf(out)):
        raise PreconditionError(
            "maximal family leaves nodes uncovered; append a covering region"
        )
    return DiscreteFunction(grid, out)
