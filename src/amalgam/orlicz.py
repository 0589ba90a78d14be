"""Young functions, Luxemburg norms, and Holder-type pairings.

Luxemburg norms are taken in averaged form: the infimum over lam > 0 of
the mass-weighted average of Y(|f|/lam) staying at or below one.  With
Y(t) = t^p this reproduces the averaged L^p norm, and the averaged form
is the one that enters the local space estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .grid import DiscreteFunction, Region, gather

__all__ = [
    "YoungFunction",
    "luxemburg_norm",
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
    """Averaged Luxemburg norm of f over a region.

    Returns the smallest lam (to relative width 1e-10) with
    avg_B Y(|f|/lam) <= 1, where the average is weighted by the optional
    weight times the cell volume.  The returned lam always satisfies the
    constraint, so Holder-type products built from it stay valid bounds.
    """
    vals, masses = gather(f, region, weight)
    vals = np.abs(vals)
    total = float(np.sum(masses))
    carried = vals[masses > 0]
    if total <= 0.0 or carried.size == 0 or not np.any(carried > 0):
        return 0.0

    def G(lam: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(Y(vals / lam) * masses)) / total

    # constant functions solve exactly: lam = c / Y^{-1}(1)
    vmax = float(carried.max())
    if vmax == float(carried.min()):
        lam = vmax / Y.unit_argument
        for _ in range(8):
            if G(lam) <= 1.0:
                return lam
            lam = float(np.nextafter(lam, np.inf))
        # fall through to bisection in pathological rounding cases

    lam_hi = float(np.sum(vals * masses)) / total + vmax * 1e-300
    for _ in range(4000):
        if G(lam_hi) <= 1.0:
            break
        lam_hi *= 2.0
    else:
        raise ConfigurationError("luxemburg norm failed to bracket from above")
    lam_lo = lam_hi
    for _ in range(4000):
        nxt = lam_lo / 2.0
        if nxt <= 0.0 or G(nxt) > 1.0:
            lam_lo = nxt
            break
        lam_lo = nxt
    while lam_hi - lam_lo > 1e-10 * lam_hi:
        mid = 0.5 * (lam_lo + lam_hi)
        if G(mid) <= 1.0:
            lam_hi = mid
        else:
            lam_lo = mid
    return lam_hi


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
