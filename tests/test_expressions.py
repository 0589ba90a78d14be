import math

import numpy as np
import pytest

from amalgam import ExpressionError, make_grid
from amalgam import expressions
from amalgam.expressions import EXPRESSION_LANGUAGE, evaluate

EXPRESSION_NAMES = ("x", "ax", "r", "logabs", "sgn", "e", "pi", "ind", "ind2", "gauss", "bump",
                    "abspow", "exp", "log", "sqrt", "sin", "cos", "abs", "minimum", "maximum",
                    "where")


def test_coordinates_and_constants(small_grid):
    assert np.array_equal(evaluate("x", small_grid), small_grid.axis)
    assert np.all(evaluate("pi", small_grid) == math.pi)
    assert np.all(evaluate("e", small_grid) == math.e)
    out = evaluate("2.5", small_grid)
    assert out.shape == (small_grid.n_nodes,)
    assert np.all(out == 2.5)


def test_y_requires_two_dimensions(small_grid, tiny_grid_2d):
    with pytest.raises(ExpressionError):
        evaluate("y", small_grid)
    g = tiny_grid_2d
    assert np.array_equal(evaluate("y", g), g.coords[:, 1])
    assert np.array_equal(evaluate("x", g), g.coords[:, 0])


def test_radial_distance_clipped(small_grid):
    h = small_grid.spacing
    r = evaluate("r", small_grid)
    assert np.all(r >= h / 2)
    i0 = small_grid.node_index((0.0,))
    assert r[i0] == h / 2
    ax = evaluate("ax", small_grid)
    assert ax[i0] == 0.0
    assert np.array_equal(ax, np.abs(small_grid.axis))


def test_logabs_matches_clipped_log(small_grid):
    r = evaluate("r", small_grid)
    assert np.array_equal(evaluate("logabs", small_grid), np.log(r))


def test_sgn_convention(small_grid):
    s = evaluate("sgn", small_grid)
    x = small_grid.axis
    assert np.all(s[x >= 0] == 1.0)
    assert np.all(s[x < 0] == -1.0)
    i0 = small_grid.node_index((0.0,))
    assert s[i0] == 1.0


def test_indicator_half_open(small_grid):
    x = small_grid.axis
    out = evaluate("ind(-1.0, 1.0)", small_grid)
    assert np.array_equal(out, ((x >= -1.0) & (x < 1.0)).astype(float))


def test_indicator_2d(tiny_grid_2d):
    out = evaluate("ind2(-1.0, 1.0, 0.0, 2.0)", tiny_grid_2d)
    c = tiny_grid_2d.coords
    want = ((c[:, 0] >= -1) & (c[:, 0] < 1) & (c[:, 1] >= 0) & (c[:, 1] < 2)).astype(float)
    assert np.array_equal(out, want)


def test_gauss_and_bump(small_grid, tiny_grid_2d):
    x = small_grid.axis
    out = evaluate("gauss(0.5, 0.3)", small_grid)
    assert np.allclose(out, np.exp(-((x - 0.5) ** 2) / (2 * 0.3**2)))
    b = evaluate("bump(0.0, 1.0)", small_grid)
    assert np.all(b[np.abs(x) >= 1.0] == 0.0)
    i0 = small_grid.node_index((0.0,))
    assert b[i0] == pytest.approx(1.0)
    assert np.all(b >= 0.0)
    assert np.all(np.isfinite(b))
    # bit for bit: |x - c| in 1D, sqrt((x - c)^2 + (y - c)^2) in 2D
    c2 = tiny_grid_2d.coords
    for grid, dist in ((small_grid, lambda c: np.abs(x - c)),
                       (tiny_grid_2d, lambda c: np.sqrt((c2[:, 0] - c) ** 2 + (c2[:, 1] - c) ** 2))):
        d = dist(0.5)
        assert np.array_equal(evaluate("gauss(0.5, 0.3)", grid), np.exp(-(d * d) / (2.0 * 0.3 * 0.3)))
        t2 = (dist(0.25) / 1.5) ** 2
        want = np.zeros_like(t2)
        want[t2 < 1.0] = np.exp(1.0 - 1.0 / (1.0 - t2[t2 < 1.0]))
        assert np.array_equal(evaluate("bump(0.25, 1.5)", grid), want)
        assert np.array_equal(evaluate("ax", grid), dist(0.0))


def test_abspow_negative_uses_clip(small_grid):
    h = small_grid.spacing
    out = evaluate("abspow(-0.5)", small_grid)
    i0 = small_grid.node_index((0.0,))
    assert out[i0] == (h / 2) ** -0.5
    assert np.all(np.isfinite(out))
    pos = evaluate("abspow(2.0)", small_grid)
    assert pos[i0] == 0.0


def test_function_calls_compose(small_grid):
    out = evaluate("where(x > 0, exp(-x), cos(x))", small_grid)
    x = small_grid.axis
    want = np.where(x > 0, np.exp(-x), np.cos(x))
    assert np.array_equal(out, want)
    out = evaluate("maximum(x, 0.0) + minimum(x, 0.0)", small_grid)
    assert np.allclose(out, x)


@pytest.mark.parametrize("expr, names", [
    ("1.0", set()),
    ("2 * pi", {"pi"}),
    ("r**-0.5 + 0 * logabs", {"r", "logabs"}),
    ("abspow(-0.5) + gauss(0.5, 0.3) * sgn", {"abspow", "gauss", "sgn"}),
    ("(lambda: 1)() + 0 * x", {"x"}),
])
def test_namespace_renders_only_the_names_read(monkeypatch, small_grid, expr, names):
    built = []
    make = expressions._make_namespace
    monkeypatch.setattr(expressions, "_make_namespace",
                        lambda *args: built.append(make(*args)) or built[-1])
    out = evaluate(expr, small_grid)
    assert set(built[0]) == names
    # each name reads as it does in the namespace of every name
    everything = make(small_grid, set(EXPRESSION_NAMES))
    for name in names & {"ax", "r", "logabs", "sgn"}:
        assert np.array_equal(built[0][name], everything[name])
    monkeypatch.undo()
    want = eval(expr, {"__builtins__": {}}, everything)
    assert np.array_equal(out, np.broadcast_to(want, out.shape))


def test_rejections(small_grid):
    bad = [
        "__import__('os')",
        "x.__class__",
        "open('f')",
        "lambda: 1",
        "x +",
        "unknown_name",
        "log(-1.0) * 0 + x",  # nan result
        "exp(10000.0)",  # inf result
        "",  # empty
        "   ",
        "ind2(-1.0, 1.0, -1.0, 1.0)",  # a 2D indicator on a 1D grid
        "[1.0, 2.0]",  # two values, not one per node
    ]
    for expr in bad:
        with pytest.raises(ExpressionError):
            evaluate(expr, small_grid)


def test_language_doc_mentions_every_symbol():
    for name in ("x", "y", "ax", "r", "logabs", "sgn", "ind", "gauss", "bump", "abspow"):
        assert name in EXPRESSION_LANGUAGE
