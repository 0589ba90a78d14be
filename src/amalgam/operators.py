"""Kernels with modulus-controlled smoothness and their truncated operators.

A kernel K is admissible when |K(x, y)| <= C |x-y|^{-dim} and the
increment |K(x, y) - K(z, y)| is controlled by
theta(|x-z| / |x-y|) |x-y|^{-dim} for |x-z| < |x-y| / 2, where theta is a
nondecreasing modulus on (0, 1].  The operator itself is realized as the
eps-truncated singular sum on the grid, which is a discrete convolution.
In 1D and 2D alike it is computed by one numpy.fft product on a (2n)^dim
lattice, O(N log N) in the node count N, against a cached kernel spectrum.
That spectrum evaluates the kernel on one orthant of offsets, (n+1)^dim of
them, and mirrors the lattice's columns and rows from it: every kernel is
odd along its component axis and even along the other, and a kernel added
later must keep that parity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .grid import DiscreteFunction, Grid, RegionFamily, spread_max, window_sums
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


_DINI_BLOWUP = 1e12  # integrals past this come back as inf


def dini_integrals(theta: ThetaModulus) -> DiniIntegrals:
    """The two Dini integrals of a modulus, in closed form.

    power delta:  int_0^1 t^{delta-1} dt = 1/delta and
                  int_0^1 t^{delta-1} log(1/t) dt = 1/delta^2.
    log beta:     with s = log(1/t), int_0^inf (1 + s)^{-beta} ds = 1/(beta-1)
                  for beta > 1 and int_0^inf (1 + s)^{-beta} s ds =
                  1/((beta-1)(beta-2)) for beta > 2; otherwise divergent.
    zero:         0 and 0.
    Integrals past _DINI_BLOWUP come back as inf, as divergent ones do.
    """
    b = theta.param
    if theta.tag == "power":
        dini = 1.0 / b
        log_dini = dini * dini  # a float product overflows to inf, a power would raise
    elif theta.tag == "log":
        dini = 1.0 / (b - 1.0) if b > 1.0 else math.inf
        log_dini = 1.0 / ((b - 1.0) * (b - 2.0)) if b > 2.0 else math.inf
    else:
        dini = log_dini = 0.0
    return DiniIntegrals(*(math.inf if v > _DINI_BLOWUP else v for v in (dini, log_dini)))


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
        d = np.asarray(diff, dtype=np.float64).reshape(-1, self.dim)
        return self._truncated(0.0, *d.T)

    def _truncated(self, cutoff: float, *offsets: np.ndarray) -> np.ndarray:
        """Kernel value at the per-axis offsets, which broadcast; zero where |x| <= cutoff.

        |x|^2 sums the per-axis squares in axis order, as a sum over a
        stacked last axis does, so the values match a stacked evaluation
        bit for bit.
        """
        rho2 = offsets[0] * offsets[0]
        for x in offsets[1:]:
            rho2 = rho2 + x * x
        rho = np.sqrt(rho2)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.tag == "hilbert":
                out = 1.0 / (math.pi * offsets[0])
            elif self.tag == "riesz":
                out = offsets[self.component] / rho ** (self.dim + 1)
            else:
                out = np.zeros_like(rho)
        return np.where(rho > cutoff, out, 0.0)


# lattice entries per block: each transient of a spectrum build or an apply
# holds a few blocks, so memory past the spectrum stays a few node arrays
_BLOCK = 2**16


@functools.lru_cache(maxsize=2)
def _kernel_spectrum(kernel: Kernel, grid: Grid, epsilon: float) -> np.ndarray:
    """rfftn of the eps-truncated kernel laid out circularly on (2n)^dim.

    Offsets run 0..n-1, then -n..-1 along each axis.  Inputs and outputs sit
    at indices 0..n-1, so no displacement exceeds n-1 and nothing wraps.
    rfftn's own axis sequence, run in blocks: the kernel values and their
    last-axis rfft a block of lattice rows at a time, then the first axis's
    fft a block of columns at a time.  A verify run reads each spectrum in
    one stretch, so the cache keeps the last two.

    The offsets satisfy m[2n - i] = -m[i] exactly, and every kernel is odd
    along its component axis and even along the other, so lattice column
    2n - c is column c times -1 (component axis) or 1, and in 2D lattice
    row 2n - r, and its rfft, is row r times -1 (component 0) or 1, up to
    the sign of a zero.  The kernel is evaluated only on the orthant of
    indices 0..n per axis, (n+1)^dim offsets, with |x|^2 from per-axis
    squares that broadcast; columns n+1..2n-1 are copied from columns
    n-1..1 before each row's rfft, and rows n+1..2n-1 from rows n-1..1
    after it.  A kernel added later must keep that parity (a radial factor
    does) or build every offset.
    """
    n = grid.points_per_axis
    # a reserve of 16 lattice rows, released untouched: releasing a block that glibc
    # mapped on its own raises the size it serves from the heap to that block's and
    # the free heap it keeps to twice that, so later 1D applies reuse paged-in heap
    # (without it a 1D 16384 verify strong took about 3 times the page faults; 4 rows
    # sufficed there, but a 4096-point verify endpoint needed 16); in 2D, at 128^2
    # and 256^2, the reserve is too small to move either threshold
    np.empty((16, 2 * n))
    m = np.concatenate([np.arange(n), [-n]]) * grid.spacing  # lattice indices 0..n
    cutoff = epsilon * (1.0 + 1e-12)
    n_rows = (2 * n) ** (grid.dim - 1)
    built = min(n_rows, n + 1)
    col_sign, row_sign = (-1.0 if kernel.component == axis else 1.0 for axis in (grid.dim - 1, 0))
    rows = None
    per = max(1, _BLOCK // (2 * n))
    for r in range(0, built, per):
        k = min(per, built - r)
        # a row's leading offset is m[row] in 2D; the one 1D row has none
        lattice = np.empty((k, 2 * n))
        lattice[:, :n + 1] = kernel._truncated(cutoff, *(m[r:r + k, None],) * (grid.dim - 1), m)
        np.multiply(lattice[:, n - 1:0:-1], col_sign, out=lattice[:, n + 1:])
        if rows is None:
            # allocated above the first block's values, whose freed memory then stays
            # in the heap for the applies; allocated before them, a 2D 128^2 verify
            # two_weight_strong took 13% more page faults
            rows = np.empty((n_rows, n + 1), dtype=complex)
        np.fft.rfft(lattice, out=rows[r:r + k])
    np.multiply(rows[n - 1:0:-1], row_sign, out=rows[n + 1:])
    spectrum = rows.reshape((2 * n,) * (grid.dim - 1) + (n + 1,))
    cols = max(1, _BLOCK // n_rows)
    for c in range(0, n + 1, cols):
        for axis in range(grid.dim - 1):  # the first axis in 2D; none in 1D
            spectrum[..., c:c + cols] = np.fft.fft(spectrum[..., c:c + cols], axis=axis)
    spectrum.flags.writeable = False
    return spectrum


def _convolve(values: np.ndarray, spectrum: np.ndarray, grid: Grid, out: np.ndarray) -> np.ndarray:
    """h^dim times the circular product of values with the spectrum, on nodes, into out.

    irfftn(rfftn(values, s) * spectrum, s) in numpy's own axis sequence, by
    blocks: a last-axis rfft, then per block of columns the first axis's
    fft, the product and the ifft, keeping rows 0..n-1, then a last-axis
    irfft in blocks of rows, keeping columns 0..n-1.  values is read before
    out is written, so out may be values.
    """
    n = grid.points_per_axis
    half = np.fft.rfft(values.reshape((n,) * grid.dim), 2 * n)
    cols = max(1, _BLOCK // (2 * n) ** (grid.dim - 1))
    for c in range(0, n + 1, cols):
        block = half[..., c:c + cols]
        for axis in range(grid.dim - 1):  # the first axis in 2D; none in 1D
            block = np.fft.fft(block, 2 * n, axis)
        block *= spectrum[..., c:c + cols]
        for axis in range(grid.dim - 1):
            half[..., c:c + cols] = np.fft.ifft(block, 2 * n, axis)[:n]
    rows, out_rows = half.reshape(-1, n + 1), out.reshape(-1, n)
    per = max(1, _BLOCK // (2 * n))
    for r in range(0, len(rows), per):
        np.multiply(grid.cell_volume, np.fft.irfft(rows[r:r + per], 2 * n)[:, :n],
                    out=out_rows[r:r + per])
    return out


def apply_operator(
    kernel: Kernel,
    f: DiscreteFunction,
    epsilon: float,
    b: Optional[DiscreteFunction] = None,
) -> DiscreteFunction:
    """Truncated singular integral, or its commutator with b when b is given.

    T f(x_i) = h^dim sum over |x_i - x_j| > eps of K(x_i - x_j) f(x_j).
    The truncation keeps the two nearest cells out, eps >= 2h, so the diagonal
    singularity never enters the sum, and a node pair in, eps < (n - 1) h sqrt(dim).
    With b the result is b (T f) - T (b f); f and b f go through the transform
    one after the other, and the difference is formed in place.
    """
    grid = f.grid
    if kernel.dim != grid.dim:
        raise ConfigurationError("kernel and grid dimensions do not match")
    h = grid.spacing
    reach = (grid.points_per_axis - 1) * h * math.sqrt(grid.dim)
    if not (2.0 * h * (1.0 - 1e-12) <= epsilon and reach > epsilon * (1.0 + 1e-12)):
        raise ConfigurationError(f"truncation epsilon must be at least 2h = {2 * h!r} and below "
                                 f"the longest node displacement (n - 1) h sqrt(dim) = {reach!r}")
    if b is not None and b.grid != grid:
        raise ConfigurationError("symbol b lives on a different grid")
    spectrum = _kernel_spectrum(kernel, grid, epsilon)
    out = _convolve(f.values, spectrum, grid, np.empty(grid.n_nodes))
    if b is not None:
        # [b, T] is linear in b: scale b exactly by a power of two to order one
        shift = int(np.frexp(np.max(np.abs(b.values)))[1])
        bs = np.ldexp(b.values, -shift)
        bf = np.multiply(bs, f.values)
        _convolve(bf, spectrum, grid, bf)
        np.multiply(bs, out, out=out)
        np.subtract(out, bf, out=out)
        np.ldexp(out, shift, out=out)
    return DiscreteFunction(grid, out)


def maximal(
    f: DiscreteFunction,
    kind: str,
    families: Iterable[RegionFamily],
    delta: Optional[float] = None,
) -> DiscreteFunction:
    """Maximal function of f restricted to the regions of the families.

    hl           sup of avg |f| over the regions containing the node
    sharp        sup of avg |f - avg f|
    hl_delta     [hl of |f|^delta]^{1/delta}
    sharp_delta  [sharp of |f|^delta]^{1/delta}
    llogl        sup of the averaged LlogL Luxemburg norm

    Every node must be covered by some region; pass the covering cube as
    one more family if needed.
    """
    if kind in ("hl_delta", "sharp_delta"):
        if delta is None or not (0.0 < delta <= 1.0):
            raise ConfigurationError("delta kinds need 0 < delta <= 1")
        powered = DiscreteFunction(f.grid, np.abs(f.values) ** delta)
        inner = maximal(powered, kind[: -len("_delta")], families)
        return DiscreteFunction(f.grid, inner.values ** (1.0 / delta))
    if kind not in ("hl", "sharp", "llogl"):
        raise ConfigurationError(f"unknown maximal kind {kind!r}")

    grid = f.grid
    out = np.full(grid.n_nodes, -math.inf)
    for fam in families:
        if kind == "hl":
            sums, counts = window_sums(fam, grid, [np.abs(f.values)])
            table = sums[0] / np.maximum(counts, 1)
        elif kind == "sharp":
            table = oscillation_table(f.values, fam, grid)[0]
        else:
            table = luxemburg_table(fam, grid, f.values, YoungFunction.llogl(1.0))
        spread_max(fam, grid, table, out)
    if np.any(np.isinf(out)):
        raise PreconditionError("the families leave nodes uncovered; add a covering one")
    return DiscreteFunction(grid, out)
