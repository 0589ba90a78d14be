"""Young functions, Luxemburg norms, and Holder-type pairings.

The Young functions are t^p, e^t - 1 and the L log L family
[t (1 + log+ t)]^s, whose s = 1 is the endpoint estimates' t (1 + log+ t)
and s = p' the two-weight log bump.  YoungFunction._values states each
formula once; a Newton pass takes Y from it and forms only t Y'(t).

Luxemburg norms are taken in averaged form: the infimum over lam > 0 of
the mass-weighted average of Y(|f|/lam) staying at or below one.  With
Y(t) = t^p this reproduces the averaged L^p norm, and the averaged form
is the one that enters the local space estimates.  Without a weight every
node's mass is the cell volume, which the average cancels: the solve then
reads masses None, and its sums run over the values alone.

One solver computes them, for one region or a whole family at once: in
s = 1/lam, G(s) = avg Y(s|f|) is convex and increasing, and Newton from
the Jensen point s0 = Y^{-1}(1) / avg|f|, where G(s0) >= 1, converges
from the right.  On a constant |f| = c, s0 is the root, and the first
pass ends there with lam = c / Y^{-1}(1).  The steps shrink quadratically,
so a step of at most 1e-8 s ends it at that step's trial.  lam is then
stepped up until avg Y(|f|/lam) <= 1 holds.  Where Y(t) = t^q below
t = 1 (all but exp), the nodes with s0 |f| < 1 are summed once, and both
loops read the rest.

A family's solve keeps every intermediate as long as a batch of node
values in one work array of seven rows: |f| scaled to max 1 (a), the
Jensen sum's terms and then the kept nodes' masses (unused when the masses
are None), the kept nodes' a, and four rows for Y(t), t Y'(t), the lift
1 + log+ t and the derivative's factor.  A pass reads only t = s a, and
only its broadcast of s, made by np.repeat, is new.

A sup over the family of a factor times the norm (the bump condition)
needs only the regions that can attain it.  The values fall into geometric
bands of ratio 1.01, at most 128 of them with a band of zeros, whose masses
are counted once per region.  Each norm is bracketed by that of its band
masses placed at the bands' least values and c times that, c the largest
ratio within a band.  Regions whose upper bound reaches the best lower bound
less 1e-9 are bracketed again from the same band masses and each band's mean
(Y is convex), within 1 + 1e-4, and only those left are solved.  The margin
covers summation rounding, about 1e-12, so every region that ties with the
sup is solved, by the same arithmetic as alone, and the sup and its first
argmax are the full table's bit for bit.  On the bump gate's balls the
rounds and the solves read 0.13 Young evaluations per node entry, where the
full table reads 2.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .grid import (
    DiscreteFunction, Grid, Region, RegionFamily, band_masses, batch_table, node_masses,
    region_statistic,
)

__all__ = [
    "YoungFunction",
    "luxemburg_norm",
    "luxemburg_table",
    "HolderResult",
    "holder_check",
]


@dataclass(frozen=True)
class YoungFunction:
    """A convex Young function Y with Y(0) = 0, indexed by tag and parameter.

    power:  Y(t) = t^p, 1 <= p < inf
    llogl:  Y(t) = [t (1 + log+ t)]^s, 1 <= s < inf; s = 1 is the endpoint
            estimates' t (1 + log+ t), s = p' the two-weight log bump
    exp:    Y(t) = e^t - 1
    """

    tag: str
    param: float = 1.0

    def __post_init__(self):
        if self.tag not in ("power", "llogl", "exp"):
            raise ConfigurationError(f"unknown Young function tag {self.tag!r}")
        if self.tag != "exp" and not 1 <= self.param < math.inf:
            raise ConfigurationError(f"{self.tag} Young function needs 1 <= exponent < inf")

    @classmethod
    def power(cls, p: float) -> "YoungFunction":
        return cls("power", float(p))

    @classmethod
    def llogl(cls, s: float) -> "YoungFunction":
        return cls("llogl", float(s))

    @classmethod
    def exponential(cls) -> "YoungFunction":
        return cls("exp", 1.0)

    @classmethod
    def phi(cls) -> "YoungFunction":
        """The function t (1 + log+ t) used by the endpoint estimates."""
        return cls("llogl", 1.0)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            out = self._values(t, np.empty_like(t))
        return out if out.ndim else float(out)

    def _values(self, t, out, lift=None):
        """Y(t) into out, an array of t's shape other than t; t is only read.

        llogl builds its lift 1 + log+ t in lift, or in out when lift is None.
        """
        if self.tag == "power":
            return _power(t, self.param, out)
        if self.tag == "exp":
            return np.expm1(t, out=out)
        lift = out if lift is None else lift
        np.add(np.log(np.maximum(t, 1.0, out=lift), out=lift), 1.0, out=lift)
        return _power(np.multiply(lift, t, out=out), self.param, out)

    @np.errstate(over="ignore", invalid="ignore")
    def _with_slope(self, t, out):
        """Y(t) and t Y'(t), with the right derivative at t = 1, into out[0] and out[1].

        t is only read.  out has four rows: llogl builds the lift 1 + log+ t in
        out[2] and the derivative's factor lift + [t >= 1] in out[3].
        """
        y, ty, lift, factor = out
        self._values(t, y, lift)
        if self.tag == "exp":
            return y, np.multiply(np.add(y, 1.0, out=ty), t, out=ty)
        np.multiply(self.param, y, out=ty)
        if self.tag == "llogl":
            np.greater_equal(t, 1.0, out=factor)
            factor += lift
            ty *= factor
            ty /= lift
        return y, ty

    @property
    def power_below_one(self) -> Optional[float]:
        """q with Y(t) = t^q for every t <= 1, or None (exp has no such part)."""
        return None if self.tag == "exp" else self.param

    @property
    def unit_argument(self) -> float:
        """The argument u with Y(u) = 1."""
        return math.log(2.0) if self.tag == "exp" else 1.0


def _power(x, p, out):
    """x ** p into out.  For p = 2 numpy's power forms x * x: np.square, three times as fast."""
    return np.square(x, out=out) if p == 2.0 else np.power(x, p, out=out)


def luxemburg_norm(
    f: DiscreteFunction,
    Y: YoungFunction,
    region: Optional[Region] = None,
    weight=None,
) -> float:
    """Averaged Luxemburg norm of f over a region, as a batch of one for _solve.

    Returns lam with avg_B Y(|f|/lam) <= 1 while lam (1 - 1e-10) breaks it,
    the average weighted by the optional weight times the cell volume.  So
    Holder-type products built from lam stay valid bounds.  Without a weight
    the solve reads no masses, as in luxemburg_table.
    """
    return region_statistic(f, region, weight, lambda a, m, counts, starts: _solve(
        Y, np.abs(a), None if weight is None else m, counts))


def luxemburg_table(
    family: RegionFamily, grid: Grid, values, Y: YoungFunction, weight=None, factor=None
) -> np.ndarray:
    """luxemburg_norm of node values on every region of a family, as [size, center].

    A region without nodes reads 0.  Without a weight every mass is the cell
    volume, so only the values are gathered and the solve reads masses None.
    Given factor, a [size, center] table, the table holds factor times the
    norm, bit for bit, on every region where that product can attain its max
    over the family, and -inf on the others and where the product is nan:
    _bracket bounds every region's norm from its band masses, _convex_bracket
    those it keeps from the same masses and their means, and only the regions
    whose upper bound reaches the best lower bound in both rounds are solved.
    """
    a = np.abs(np.asarray(values, dtype=np.float64))
    m = None if weight is None else node_masses(grid, weight)
    # one work array serves every batch; only the pages a batch uses are touched
    work = np.empty((_SOLVE_ROWS, grid.n_nodes))

    def solve(a, *rest):
        nonlocal work
        *masses, counts, _ = rest  # the masses if weighted
        if work.shape[1] < a.size:  # a batch of overlapping regions can outnumber the nodes
            work = np.empty((_SOLVE_ROWS, a.size))
        return _solve(Y, a, masses[0] if masses else None, counts, work)

    arrays = [a] if m is None else [a, m]
    if factor is None:
        return batch_table(family, grid, arrays, solve)[0]
    bands = _bands(a)
    # both rounds read m scaled to max 1, which the norm does not see, so no m * place underflows
    scaled = None if m is None else m / m.max()
    table = band_masses(family, grid, bands[0], bands[1].size, scaled)
    low, high = factor * _bracket(table, bands, Y, work)
    bar = np.fmax.reduce(low, axis=None, initial=-np.inf) * (1.0 - _PRUNE_MARGIN)
    keep = ~(high * (1.0 + _PRUNE_MARGIN) < bar)  # a nan bound stays
    low, high = factor[keep] * _convex_bracket(family, grid, a, bands, scaled, table, Y, work, keep)
    bar = max(bar, np.fmax.reduce(low, initial=-np.inf) * (1.0 - _PRUNE_MARGIN))
    keep[keep] = ~(high * (1.0 + _PRUNE_MARGIN) < bar)
    value = factor * batch_table(family, grid, arrays, solve, where=keep)[0]
    return np.where(keep & ~np.isnan(value), value, -np.inf)


# work rows of _solve: |f| / max|f|; the Jensen terms, then the kept masses (unused
# when the masses are None); the kept |f| / max|f|; Y._with_slope's four, the first
# of them also the contract's
_SOLVE_ROWS = 7
# Newton's last step: once a step moves s by at most this share of s, the
# trial is the root to rounding, since the next step would be about its square
_STEP_STOP = 1e-8
# a region is solved unless its upper bound stays this share below the bar; the
# bounds and the solved values carry summation rounding of about 1e-12
_PRUNE_MARGIN = 1e-9
# _bands: geometric, of ratio 1 + _BAND_RATIO, at most _BANDS with the zero band,
# wider where |f| ranges further.  On the two_weight_2d gate (69, 80 and 90 bands
# at 1%) _bracket keeps 44 regions at 64^2, 128^2 and 256^2 (44, 56 and 68 at 64
# bands), and _convex_bracket the 8 symmetric copies of the maximiser.  With
# v = r**3 or r**-2, whose |f| ranges further, 128 to 512 bands take the same time
_BAND_RATIO = 0.01
_BANDS = 128


def _bands(a):
    """Bands of a (zeros in band 0) and each band's least and largest value, inf and 0 if empty."""
    bands = np.zeros(a.size, dtype=np.intp)
    pos = a > 0
    if pos.any():
        logs = np.log(a[pos])
        least = logs.min()
        width = max(math.log1p(_BAND_RATIO), (logs.max() - least) / (_BANDS - 1))
        bands[pos] = 1 + np.minimum((logs - least) / width, _BANDS - 2).astype(np.intp)
    k = int(bands.max()) + 1
    low, high = np.full(k, np.inf), np.zeros(k)
    np.minimum.at(low, bands, a)
    np.maximum.at(high, bands, a)
    return bands, low, high


def _bracket(table, bands, Y, work):
    """Lower and upper bounds on the norm of values a on every region: [2, size, center].

    table is the grid.band_masses table [size, center, k] of the bands of
    _bands(a).  Each region's band masses sit at each band's least value:
    that distribution lies below a, and c times it above, c the largest
    ratio of a band's largest value to its least.  The norm grows with |f|
    and scales with it, so the norm of the band masses, solved by _solve on
    the bands of positive mass alone, and c times it bound the region's norm.
    """
    _, low, high = bands
    held = table > 0
    counts = np.count_nonzero(held, axis=2).ravel()
    lam = _solve(Y, np.broadcast_to(low, held.shape)[held], table[held], counts, work)
    # a band without nodes reads 0 / inf; the zero band, 0 / 0, is left out
    c = np.fmax.reduce(high[1:] / low[1:], initial=1.0)
    return np.array([lam, c * lam]).reshape(2, *table.shape[:2])


def _convex_bracket(family: RegionFamily, grid: Grid, a, bands, m, table, Y, work, where):
    """Lower and upper bounds on the norm of values a, masses m, on the regions of where: [2, kept].

    bands is _bands(a), and table[where] _bracket's band masses M of m.  One
    grid.band_masses pass adds wM, m times the place (a - lo) / (hi - lo) of
    a in its band, 0 where lo = hi.  Y is convex, so the atoms
    (lo + w (hi - lo), M) lie below a in the convex order (Jensen) and
    (lo, (1 - w) M), (hi, w M) above it (the chord); one _solve takes both
    norms, which bound the region's to second order in the band ratio.
    """
    bands, lo, hi = bands
    span = (hi - lo)[bands]
    place = np.divide(a - lo[bands], span, out=np.zeros(a.size), where=span > 0)
    if m is not None:
        place *= m
    mass, moment = table[where], band_masses(family, grid, bands, lo.size, place, where)[where]
    held = mass > 0
    counts, mass, w = np.count_nonzero(held, axis=1), mass[held], moment[held] / mass[held]
    lo, hi, w = *(np.broadcast_to(x, held.shape)[held] for x in (lo, hi)), np.clip(w, 0.0, 1.0)
    atoms = np.concatenate([np.clip(lo + w * (hi - lo), lo, hi), np.column_stack([lo, hi]).ravel()])
    masses = np.concatenate([mass, np.column_stack([(1.0 - w) * mass, w * mass]).ravel()])
    return _solve(Y, atoms, masses, np.concatenate([counts, 2 * counts]), work).reshape(2, -1)


def _shrink(keep, counts, *entries):
    """The segments where keep holds: their counts, and their part of each entry array.

    An entry None (equal masses) stays None.
    """
    if keep.all():
        return (counts,) + entries
    rows = np.repeat(keep, counts)
    return (counts[keep],) + tuple(None if x is None else x[rows] for x in entries)


# inf / inf where exp overflows is part of the solve, and so is a division by
# zero at subnormal |f|
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve(Y: YoungFunction, a, m, counts, work=None) -> np.ndarray:
    """Luxemburg norms of segments of counts[k] consecutive |f| values a and masses m.

    m None means equal masses: every product with m is skipped, and a
    segment's total mass is its node count.  Every full-length intermediate
    goes into the _SOLVE_ROWS rows of work, or of a new array when work is
    not given or is narrower than a.
    """
    lam = np.zeros(counts.size)
    # entries without mass drop out, and so do segments without any
    if m is not None and not (pos := m > 0).all():
        counts = np.diff(np.concatenate(([0], np.cumsum(pos)))[np.cumsum(counts)], prepend=0)
        a, m = a[pos], m[pos]
    if work is None or work.shape[1] < a.size:
        work = np.empty((_SOLVE_ROWS, a.size))
    ids = np.flatnonzero(counts)
    counts = counts[ids]
    starts = np.cumsum(counts) - counts
    total = counts.astype(np.float64) if m is None else np.add.reduceat(m, starts)
    top = np.maximum.reduceat(a, starts)
    # f = 0 reads 0 and drops out
    live = top > 0
    counts, a, m = _shrink(live, counts, a, m)
    ids, total, top = ids[live], total[live], top[live]
    starts = np.cumsum(counts) - counts
    # lam scales with f, so the solve runs on |f| / max|f|, from the Jensen start s0;
    # total over the Jensen sum is 1 exactly on constant |f|, whose s0 is then its root u
    a = np.divide(a, np.repeat(top, counts), out=work[0, :a.size])
    jensen = a if m is None else np.multiply(a, m, out=work[1, :a.size])
    s0 = Y.unit_argument * (total / np.add.reduceat(jensen, starts))
    q, below = Y.power_below_one, np.zeros(counts.size)
    if q is None:  # exp: every node stays in the solve
        q = 1.0
    else:
        # Y(t) = t^q for t <= 1, and no s the solve tries exceeds s0, so a node with
        # s0 a < 1 adds (s a)^q m = (s0 a)^q m (s / s0)^q at every s: these nodes are
        # summed once into below, and the rest are moved into rows 0-2.  A segment
        # keeps its max node, a = 1 with s0 >= 1, so none is left empty.
        t = np.repeat(s0, counts)
        t *= a
        keep = t >= 1.0
        np.copyto(_power(t, q, t), 0.0, where=keep)
        if m is not None:
            t *= m
        below = np.add.reduceat(t, starts)
        kept = np.flatnonzero(keep)
        counts = np.diff(np.searchsorted(kept, np.cumsum(counts)), prepend=0)
        a = np.take(a, kept, out=work[2, :kept.size], mode="clip")  # "clip" writes out unbuffered
        if m is not None:
            m = np.take(m, kept, out=work[1, :kept.size], mode="clip")
    if ids.size:  # _newton reads a live segment
        lam[ids] = top / _newton(Y, a, m, counts, total, s0, below, q, work[3:])
    # the contract, on avg Y(|f| / lam): step lam up where it fails, doubling the step
    step = np.spacing(lam[ids])
    for _ in range(64):
        s = top / lam[ids]
        t = np.repeat(s, counts)
        t *= a
        terms = Y._values(t, work[3, :a.size])
        if m is not None:
            terms *= m
        G = (np.add.reduceat(terms, np.cumsum(counts) - counts) + below * (s / s0) ** q) / total
        fails = ~(G <= 1.0)
        if not fails.any():
            break
        counts, a, m = _shrink(fails, counts, a, m)
        ids, total, top, s0, below, step = (x[fails] for x in (ids, total, top, s0, below, step))
        lam[ids] += step
        step = 2.0 * step
    else:
        raise ConfigurationError("luxemburg norm failed to meet its constraint")
    return lam


def _newton(Y: YoungFunction, a, m, counts, total, s0, below, q, work) -> np.ndarray:
    """The root s of G(s) = (sum Y(s a) m + below (s / s0)^q) / total = 1 on each segment.

    Newton from s0 = u / avg a, u = Y.unit_argument and max a = 1, never
    overshoots the root of the convex G, so a Newton trial at G <= 1 is the
    root up to rounding.  The root lies in [u, s0], and no iterate exceeds
    s0.  A step that is not finite, leaves that bracket or exceeds half the
    move before it (exp, far from the root) gives way to a geometric
    bisection.  The relative steps shrink quadratically (1e-2, 1e-4, 1e-8),
    so a finite-slope step of at most _STEP_STOP times s ends it at its trial.

    a and m are the kept nodes, m None for equal masses; below sums
    (s0 a)^q m over the rest.  Each pass spreads s over the segments with
    np.repeat into t = s a, has Y(t) and t Y'(t) written into the four rows
    of work, and sums them, times m, per segment.  It runs under _solve's
    errstate.
    """
    starts = np.cumsum(counts) - counts
    u, s = Y.unit_argument, s0
    lo, hi, prev = np.full(s.size, u), s.copy(), np.full(s.size, np.inf)
    newton, root, ids = np.ones(s.size, dtype=bool), np.empty(s.size), np.arange(s.size)
    for _ in range(200):
        t = np.repeat(s, counts)
        t *= a
        out = work[:4, :a.size]
        Y._with_slope(t, out)
        if m is not None:
            out[:2] *= m
        mass, slope = np.add.reduceat(out[:2], starts, axis=1)
        rest = below * (s / s0) ** q
        mass, slope = mass + rest, slope + q * rest
        # G'(s) = sum t Y'(t) m / (s sum m) at t = s a; inf / inf where exp overflows
        step = s * (mass - total) / slope
        low = mass <= total
        lo, hi, trial, size = np.where(low, s, lo), np.where(low, hi, s), s - step, np.abs(step)
        # a slope that overflows leaves a zero step, not a root
        at_root = low & newton
        done = at_root | ((size <= _STEP_STOP * s) & (slope < np.inf))
        root[ids[done]] = np.where(at_root, s, trial)[done]
        newton = (trial > lo) & (trial < hi) & (size <= 0.5 * prev)
        nxt = np.where(newton, trial, np.sqrt(lo) * np.sqrt(hi))
        prev, s = np.abs(nxt - s), nxt
        if done.all():
            return root
        if done.any():
            counts, a, m = _shrink(~done, counts, a, m)
            starts = np.cumsum(counts) - counts
            ids, total, s, lo, hi, prev, newton, s0, below = (
                x[~done] for x in (ids, total, s, lo, hi, prev, newton, s0, below)
            )
    raise ConfigurationError("luxemburg norm did not converge")


def _average(a, m, counts, starts) -> np.ndarray:
    """Mass-weighted average of each segment of values a and masses m, 0 where the mass is 0."""
    total = np.add.reduceat(m, starts)
    sums = np.add.reduceat(a * m, starts)
    return np.divide(sums, total, out=np.zeros(total.size), where=total > 0)


def ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs, reading 0 / 0 as 0 and a nonzero lhs over 0 as inf."""
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


@dataclass(frozen=True)
class HolderResult:
    pairing: str
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return ratio(self.lhs, self.rhs)

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-9)


def holder_check(
    f: DiscreteFunction,
    g: DiscreteFunction,
    pairing: str = "llogl_expl",
    region: Optional[Region] = None,
    weight=None,
    p: float = 2.0,
) -> HolderResult:
    """Test a Holder-type product inequality on actual data.

    llogl_expl:  avg|fg| <= 2 ||f||_LlogL ||g||_expL
    conjugate:   avg|fg| <= ||f||_p ||g||_p'   (averaged norms)
    """
    if f.grid != g.grid:
        raise ConfigurationError("grids do not match")
    if pairing == "llogl_expl":
        Y1, Y2, const = YoungFunction.llogl(1.0), YoungFunction.exponential(), 2.0
    elif pairing != "conjugate":
        raise ConfigurationError(f"unknown pairing {pairing!r}")
    elif p <= 1:
        raise ConfigurationError("conjugate pairing needs p > 1")
    else:
        Y1, Y2, const = YoungFunction.power(p), YoungFunction.power(p / (p - 1.0)), 1.0
    fg = DiscreteFunction(f.grid, np.abs(f.values * g.values))
    lhs = region_statistic(fg, region, weight, _average)
    rhs = const * luxemburg_norm(f, Y1, region, weight) * luxemburg_norm(g, Y2, region, weight)
    return HolderResult(pairing, lhs, rhs)
