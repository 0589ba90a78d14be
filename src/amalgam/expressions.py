"""A small expression language for defining functions and weights on a grid.

Expressions are Python arithmetic over a fixed set of node arrays and
helpers, evaluated with numpy semantics.  They keep corpora and weights
symbolic so the same object can be re-rendered on refined grids.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ExpressionError

if TYPE_CHECKING:
    from .grid import Grid

__all__ = ["evaluate", "EXPRESSION_LANGUAGE"]

EXPRESSION_LANGUAGE = """\
Expression language
===================

Variables (arrays over the grid nodes):
  x        first coordinate
  y        second coordinate (dim 2 only)
  ax       Euclidean distance to the origin, |x|
  r        |x| clipped below at h/2, so r > 0 everywhere
  logabs   log(r), a bounded stand-in for log|x|
  sgn      sign of x, with sgn(0) = +1

Constants: e, pi

Functions:
  ind(lo, hi)            indicator of lo <= x < hi
  ind2(lo1, hi1, lo2, hi2)   box indicator (dim 2)
  gauss(c, s)            exp(-d^2 / (2 s^2)), d = distance to c on every axis
  bump(c, w)             smooth bump supported on d < w around c
  abspow(a)              |x|^a, clipped at h/2 when a < 0
  exp, log, sqrt, sin, cos, abs, minimum, maximum, where

Examples:
  "ind(-1.0, 1.0)"             unit indicator
  "r**-0.5"                    power weight, integrable singularity
  "logabs * bump(0.0, 1.0)"    log singularity under a smooth cutoff
"""


def _make_namespace(grid: "Grid", names) -> dict:
    """The variables and helpers among names; a variable is rendered only when named."""
    axes = dict(zip("xy", grid.coords.T))
    x = axes["x"]

    def _dist(c):
        return np.sqrt(sum((a - c) ** 2 for a in axes.values()))

    def r():
        return np.maximum(_dist(0.0), grid.spacing / 2.0)

    def ind(lo, hi):
        return np.where((x >= lo) & (x < hi), 1.0, 0.0)

    def ind2(lo1, hi1, lo2, hi2):
        if "y" not in axes:
            raise ExpressionError("ind2 needs a 2d grid")
        y = axes["y"]
        return np.where((x >= lo1) & (x < hi1) & (y >= lo2) & (y < hi2), 1.0, 0.0)

    def gauss(c, s):
        d = _dist(c)
        return np.exp(-(d * d) / (2.0 * s * s))

    def bump(c, w):
        d = _dist(c)
        t2 = np.minimum((d / w) ** 2, 1.0)
        out = np.zeros_like(d)
        inside = t2 < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - t2[inside]))
        return out

    def abspow(a):
        base = r() if a < 0 else _dist(0.0)
        return base**a

    rendered = {"ax": lambda: _dist(0.0), "r": r, "logabs": lambda: np.log(r()),
                "sgn": lambda: np.where(x >= 0, 1.0, -1.0)}
    ns = {**axes, **rendered, "e": math.e, "pi": math.pi, "ind": ind, "ind2": ind2,
          "gauss": gauss, "bump": bump, "abspow": abspow}
    ns.update((f, getattr(np, f)) for f in
              ("exp", "log", "sqrt", "sin", "cos", "abs", "minimum", "maximum", "where"))
    return {k: rendered[k]() if k in rendered else v for k, v in ns.items() if k in names}


def evaluate(expression: str, grid: "Grid") -> np.ndarray:
    """Evaluate an expression to a finite float64 array over the grid nodes.

    Scalars broadcast to the whole grid.  Raises ExpressionError on syntax
    problems, unknown names, or non-finite results.
    """
    if not isinstance(expression, str) or not expression.strip():
        raise ExpressionError("expression must be a non-empty string")
    if "__" in expression:
        raise ExpressionError("double underscores are not allowed in expressions")
    try:
        code = compile(expression, "<expression>", "eval")
    except SyntaxError as exc:
        raise ExpressionError(f"syntax error in {expression!r}: {exc.msg}") from exc
    # names inside a lambda or comprehension resolve as globals, which hold none
    ns = _make_namespace(grid, code.co_names)
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            result = eval(code, {"__builtins__": {}}, ns)
    except (NameError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ExpressionError(f"failed to evaluate {expression!r}: {exc}") from exc
    try:
        arr = np.asarray(result, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ExpressionError(f"expression {expression!r} is not numeric: {exc}") from exc
    if arr.ndim == 0:
        arr = np.full(grid.n_nodes, float(arr))
    if arr.shape != (grid.n_nodes,):
        raise ExpressionError(
            f"expression produced shape {arr.shape}, expected ({grid.n_nodes},)"
        )
    if not np.all(np.isfinite(arr)):
        raise ExpressionError(f"expression {expression!r} produced non-finite values")
    return arr
