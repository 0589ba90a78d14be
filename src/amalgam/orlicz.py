"""Young functions, Luxemburg norms, and Holder-type pairings.

Luxemburg norms are taken in averaged form: the infimum over lam > 0 of
the mass-weighted average of Y(|f|/lam) staying at or below one.  With
Y(t) = t^p this reproduces the averaged L^p norm, and the averaged form
is the one that enters the local space estimates.

One solver computes them, for one region or a whole family at once: in
s = 1/lam, G(s) = avg Y(s|f|) is convex and increasing, and Newton from
the Jensen point s0 = Y^{-1}(1) / avg|f|, where G(s0) >= 1, converges
from the right.  lam is then stepped up until avg Y(|f|/lam) <= 1 holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .grid import DiscreteFunction, Grid, Region, RegionFamily, _weight_values, batch_table, gather

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

    power:  Y(t) = t^p, p >= 1
    llogl:  Y(t) = t (1 + log+ t)^kappa
    exp:    Y(t) = e^t - 1
    bump:   Y(t) = [t (1 + log+ t)]^s, s > 1
    """

    tag: str
    param: float = 1.0

    def __post_init__(self):
        if self.tag not in ("power", "llogl", "exp", "bump"):
            raise ConfigurationError(f"unknown Young function tag {self.tag!r}")
        if self.tag == "power" and self.param < 1:
            raise ConfigurationError("power Young function needs p >= 1")
        if self.tag == "llogl" and self.param < 0:
            raise ConfigurationError("llogl Young function needs kappa >= 0")
        if self.tag == "bump" and self.param <= 1:
            raise ConfigurationError("bump Young function needs exponent > 1")

    @classmethod
    def power(cls, p: float) -> "YoungFunction":
        return cls("power", float(p))

    @classmethod
    def llogl(cls, kappa: float = 1.0) -> "YoungFunction":
        return cls("llogl", float(kappa))

    @classmethod
    def exponential(cls) -> "YoungFunction":
        return cls("exp", 1.0)

    @classmethod
    def bump(cls, exponent: float) -> "YoungFunction":
        return cls("bump", float(exponent))

    @classmethod
    def phi(cls) -> "YoungFunction":
        """The function t (1 + log+ t) used by the endpoint estimates."""
        return cls("llogl", 1.0)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            if self.tag == "power":
                out = t**self.param
            elif self.tag == "llogl":
                out = t * (1.0 + np.log(np.maximum(t, 1.0))) ** self.param
            elif self.tag == "exp":
                out = np.expm1(t)
            else:
                out = (t * (1.0 + np.log(np.maximum(t, 1.0)))) ** self.param
        return out if out.ndim else float(out)

    def _with_slope(self, t, log_t, out=None):
        """Y(t) and t Y'(t), with the right derivative at t = 1, into out ([2, n]) or a new array.

        t and log_t are only read, since the Newton pass hands in its work rows.
        """
        y, ty = np.empty((2, t.size)) if out is None else out
        with np.errstate(over="ignore", invalid="ignore"):
            if self.tag in ("power", "exp"):
                y[:] = t**self.param if self.tag == "power" else np.expm1(t)
                ty[:] = self.param * y if self.tag == "power" else t * (y + 1.0)
                return y, ty
            lift = np.maximum(log_t, 0.0)
            lift += 1.0
            if self.tag == "llogl":
                np.multiply(t, lift**self.param, out=y)
                np.multiply(y, lift + self.param * (log_t >= 0.0), out=ty)
            else:
                np.multiply(t, lift, out=y)
                y **= self.param
                np.multiply(self.param, y, out=ty)
                ty *= lift + (log_t >= 0.0)
            ty /= lift
        return y, ty

    @property
    def unit_argument(self) -> float:
        """The argument u with Y(u) = 1."""
        return math.log(2.0) if self.tag == "exp" else 1.0


def luxemburg_norm(
    f: DiscreteFunction,
    Y: YoungFunction,
    region: Optional[Region] = None,
    weight=None,
) -> float:
    """Averaged Luxemburg norm of f over a region, as a batch of one for _solve.

    Returns lam with avg_B Y(|f|/lam) <= 1 while lam (1 - 1e-10) breaks it,
    the average weighted by the optional weight times the cell volume.  So
    Holder-type products built from lam stay valid bounds.
    """
    vals, masses = gather(f, region, weight)
    return float(_solve(Y, np.abs(vals), masses, np.array([vals.size]))[0])


def luxemburg_table(
    family: RegionFamily, grid: Grid, values, Y: YoungFunction, weight=None
) -> np.ndarray:
    """luxemburg_norm of node values on every region of a family, as [size, center].

    A region without nodes reads 0.
    """
    vals = np.abs(np.asarray(values, dtype=np.float64))
    w = _weight_values(weight, grid)
    masses = (np.ones(grid.n_nodes) if w is None else w) * grid.cell_volume
    # one Newton work array serves every batch; only the pages a batch uses are touched
    work = np.empty((4, grid.n_nodes))
    return batch_table(family, grid, lambda idx, counts, starts: _solve(
        Y, vals[idx], masses[idx], counts, work))[0]


def _shrink(keep, counts, *entries):
    """The segments where keep holds: their counts, and their part of each entry array."""
    if keep.all():
        return (counts,) + entries
    rows = np.repeat(keep, counts)
    return (counts[keep],) + tuple(x[rows] for x in entries)


def _solve(Y: YoungFunction, a, m, counts, work=None) -> np.ndarray:
    """Luxemburg norms of segments of counts[k] consecutive |f| values a and masses m."""
    lam = np.zeros(counts.size)
    # entries without mass drop out, and so do segments without any
    pos = m > 0
    if not pos.all():
        counts = np.diff(np.concatenate(([0], np.cumsum(pos)))[np.cumsum(counts)], prepend=0)
        a, m = a[pos], m[pos]
    ids = np.flatnonzero(counts)
    counts = counts[ids]
    starts = np.cumsum(counts) - counts
    total, amax = np.add.reduceat(m, starts), np.maximum.reduceat(a, starts)
    # constant |f| = c solves exactly, lam = c / Y^{-1}(1); c = 0 reads 0
    flat = amax == np.minimum.reduceat(a, starts)
    lam[ids[flat]] = amax[flat] / Y.unit_argument
    if not flat.all():
        # lam scales with f, so the solve runs on |f| / max|f|
        c, a_n, m_n = _shrink(~flat, counts, a, m)
        top = amax[~flat]
        lam[ids[~flat]] = top / _newton(Y, a_n / np.repeat(top, c), m_n, c, total[~flat], work)
    # the contract, on avg Y(|f| / lam): step lam up where it fails, doubling the step
    live = lam[ids] > 0
    counts, a, m = _shrink(live, counts, a, m)
    ids, total = ids[live], total[live]
    step = np.spacing(lam[ids])
    for _ in range(64):
        with np.errstate(over="ignore", invalid="ignore"):
            terms = Y(a / np.repeat(lam[ids], counts)) * m
        G = np.add.reduceat(terms, np.cumsum(counts) - counts) / total
        fails = ~(G <= 1.0)
        if not fails.any():
            return lam
        counts, a, m = _shrink(fails, counts, a, m)
        ids, total, step = ids[fails], total[fails], step[fails]
        lam[ids] += step
        step = 2.0 * step
    raise ConfigurationError("luxemburg norm failed to meet its constraint")


def _newton(Y: YoungFunction, a, m, counts, total, work=None) -> np.ndarray:
    """The root s of G(s) = sum Y(s a) m / sum m = 1 on each segment, where max a = 1.

    Newton from s0 = u / avg a, u = Y.unit_argument, never overshoots the
    root of the convex G, so a Newton trial at G <= 1 is the root up to
    rounding.  The root lies in [u, s0].  A step that is not finite, leaves
    that bracket or exceeds half the move before it (exp, far from the
    root) gives way to a geometric bisection.  A relative step of 1e-14 ends it.
    """
    starts = np.cumsum(counts) - counts
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
    u = Y.unit_argument
    s = u * total / np.add.reduceat(a * m, starts)
    lo, hi, prev = np.full(s.size, u), s.copy(), np.full(s.size, np.inf)
    newton, root, ids = np.ones(s.size, dtype=bool), np.empty(s.size), np.arange(s.size)
    # each pass writes t = s a and log t, then Y(t) m and t Y'(t) m, into a [4, n] work array
    if work is None or work.shape[1] < a.size:
        work = np.empty((4, a.size))
    rows = np.repeat(ids, counts)
    for _ in range(200):
        t, log_t, y, ty = work[:, :a.size]
        np.take(s, rows, out=t, mode="clip")  # "clip" writes out unbuffered
        t *= a
        np.take(np.log(s), rows, out=log_t, mode="clip")
        log_t += log_a
        Y._with_slope(t, log_t, work[2:, :a.size])
        y *= m
        ty *= m
        mass, slope = np.add.reduceat(y, starts), np.add.reduceat(ty, starts)
        # G'(s) = sum t Y'(t) m / (s sum m) at t = s a; inf / inf where exp overflows
        with np.errstate(invalid="ignore"):
            step = s * (mass - total) / slope
        low = mass <= total
        lo, hi, trial = np.where(low, s, lo), np.where(low, hi, s), s - step
        done = (low & newton) | (np.abs(step) <= 1e-14 * s)
        root[ids[done]] = np.where(low & newton, s, trial)[done]
        newton = (trial > lo) & (trial < hi) & (np.abs(step) <= 0.5 * prev)
        nxt = np.where(newton, trial, np.sqrt(lo) * np.sqrt(hi))
        prev, s = np.abs(nxt - s), nxt
        if done.all():
            return root
        if done.any():
            counts, a, log_a, m = _shrink(~done, counts, a, log_a, m)
            starts, rows = np.cumsum(counts) - counts, np.repeat(np.arange(counts.size), counts)
            ids, total, s, lo, hi, prev, newton = (
                x[~done] for x in (ids, total, s, lo, hi, prev, newton)
            )
    raise ConfigurationError("luxemburg norm did not converge")


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
    vals, masses = gather(fg, region, weight)
    lhs = ratio(float(np.sum(vals * masses)), float(np.sum(masses)))
    rhs = const * luxemburg_norm(f, Y1, region, weight) * luxemburg_norm(g, Y2, region, weight)
    return HolderResult(pairing, lhs, rhs)
