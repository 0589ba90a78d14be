"""Static checks on the package source, and one on the tests.

Every name a package module imports is used in that module: a stdlib-only
stand-in for pyflakes' unused-import check, where an imported name must be
read in the module's code or in a quoted annotation, or be listed in the
module's ``__all__``.

Every name a module exports is read by the package: each name in the
``__all__`` of a package module is loaded, as a name or an attribute,
somewhere in ``src/amalgam`` (its own definition and its ``__all__`` string
do not count), so the package keeps no public API that only tests call.

Only grid.py turns regions into nodes: no other module calls
``.node_indices(`` or issues an EmptyRegionWarning, and no other module
names ``node_batches``, so no statistic outside grid.py sees a node index
(``batch_table`` hands its value functions gathered node values, and
``spread_max`` writes region values back onto the nodes).  Inside grid.py
every statistic reads its nodes through the family layer: grid.py calls no
``.node_indices(`` either (``Region.node_indices`` is kept as the tests'
reference), and ``_warn_empty`` is the one site that issues an
EmptyRegionWarning, for ``batch_table`` and ``window_sums`` alike, for single
regions as for families.

The A_p characteristic is made of window sums and a window minimum: weights.py
names no ``batch_table``, so it gathers no node values.

Each Young formula is stated once, in ``YoungFunction._values``:
``_with_slope`` names no ``_power``, ``_lift`` or ``expm1`` and calls
``self._values``, so a Newton pass reads Y from the contract's code.

The bump gate counts each region's band masses once, for both bracket rounds:
``orlicz._bracket`` names no ``band_masses`` (it reads the table that
``luxemburg_table`` makes), and no call in the package passes ``band_masses``
a list, so each call adds one row of masses.

Only spaces.py aggregates over centers and sizes: no other module names
``outer_norm`` or ``outer_weights``.

Only grid.py chunks the node arrays of ``window_sums``: no other module that
names ``window_sums`` names ``islice``, or reads a numeric module constant in
a function that calls ``window_sums``.

Every case side of harness.py is one ``amalgam_norms`` call: harness.py names
no ``local_lp_norm`` or ``local_weak_lp_norm``.

The theorems are plain data in harness.py: only the ``_THEOREMS`` table names
a theorem in a comparison or a literal.  Elsewhere no ``theorem`` is compared
with anything but the table (no ``theorem in (...)`` or ``theorem == "..."``),
no theorem name is compared, and no tuple, list, set or dict holds two theorem
names.  Likewise only ``_passes`` names a key of ``report.stability``.

Only ``harness._Context`` renders a grid in harness.py: no other code there
builds a Grid or a region family, or renders a weight, a symbol or the
corpus (``Corpus.realize`` samples the members for it).

Each family's node runs are laid out once: only ``_family_runs``, which keeps
the layout, and ``Region.node_indices`` (one region) call ``grid._runs``.
Each family is segmented once: ``_family_runs`` makes the one ``_segments``
call, outside its loop over sizes and center chunks, and ``_chunk_sums``
makes its one ``reduceat`` over the cuts outside its loop over layout entries.

One code path serves both dimensions: only ``grid._runs`` (balls slide per
row), ``Kernel.__post_init__`` (the Hilbert kernel is one dimensional) and
``Corpus.generate`` (``ind`` or ``ind2`` in the expression strings) compare
a ``dim`` with 1 or 2.

A run loads no numpy submodule it does not use: after a tiny experiment of
every theorem in 1D and a 2D riesz run, ``numpy.polynomial`` and ``numpy.ma``
are still absent from ``sys.modules`` (each import costs milliseconds and
over a megabyte of resident memory in every process).

No test asserts a conditional comparison: an ``assert`` in ``tests/`` whose
whole test is ``x == y if c else z`` parses as ``(x == y) if c else z``, so
where c is false it asserts only that z is truthy.  The comparand takes the
parentheses instead, ``x == (y if c else z)``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from amalgam.harness import THEOREMS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "amalgam"
TESTS = Path(__file__).resolve().parent


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exports(tree: ast.Module) -> list:
    """The strings of the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)]
    return []


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used | set(_exports(tree))


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = _used_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


def test_unused_import_is_caught():
    tree = ast.parse(
        "from typing import Optional, Sequence, Tuple\n"
        "import numpy as np\n"
        "__all__ = ['Tuple']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return np.sum(x)\n"
    )
    assert _unused_imports(tree) == [(1, "Sequence")]


# exported names that no package module reads, each kept for one reader outside it
_UNREAD_EXPORTS = (
    "amalgam_norm",  # bench/tracer.py wraps it until the trace moves into the package
    "local_lp_norm",  # bench/tracer.py wraps it until the trace moves into the package
    "local_weak_lp_norm",  # bench/tracer.py wraps it until the trace moves into the package
    "sharp_domination_check",  # acceptance criterion 10 runs it
)


def _unread_exports(trees: dict):
    """(module, name) of each name in a module's __all__ that no module loads."""
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    return sorted((module, name) for module, tree in trees.items()
                  for name in _exports(tree) if name not in read)


def test_every_exported_name_is_read_in_the_package():
    # the package __all__ only re-exports the modules' names
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    unread = _unread_exports(trees)
    found = [(module, name) for module, name in unread if name not in _UNREAD_EXPORTS]
    assert not found, ", ".join(f"{module} {name}" for module, name in found)
    assert sorted(name for _, name in unread) == sorted(_UNREAD_EXPORTS)  # no stale exemption


def test_unread_export_is_caught():
    trees = {
        "grid.py": ast.parse(
            "__all__ = ['Grid', 'make_grid', 'sample']\n"
            "class Grid:\n"
            "    refined = None\n"
            "make_grid = Grid\n"
            "def sample(expression, grid: 'Grid'):\n"
            "    return expression\n"
        ),
        "weights.py": ast.parse(
            "from .grid import make_grid\n"
            "__all__ = ['power_weight', 'refined']\n"
            "def power_weight(grid, a):\n"
            "    return grid.sample(f'r**({a})', grid)\n"
        ),
    }
    assert _unread_exports(trees) == [("grid.py", "make_grid"), ("weights.py", "power_weight"),
                                      ("weights.py", "refined")]


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _node_reads(tree: ast.Module):
    """(line, scope, what) of each .node_indices( call and each warn or raise of EmptyRegionWarning."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        issued = []
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "node_indices":
                found.append((node.lineno, scope, "node_indices"))
            if "warn" in _names(node.func):
                issued = [*node.args, *(k.value for k in node.keywords)]
        elif isinstance(node, ast.Raise) and node.exc is not None:
            issued = [node.exc]
        if any("EmptyRegionWarning" in _names(arg) for arg in issued):
            found.append((node.lineno, scope, "EmptyRegionWarning"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "grid.py"), ids=lambda p: p.name
)
def test_only_grid_reads_region_nodes(path):
    found = _node_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not found, ", ".join(f"{path.name}:{line} {what}" for line, _, what in found)


def test_grid_reads_region_nodes_through_the_family_layer():
    found = _node_reads(ast.parse((PACKAGE / "grid.py").read_text()))
    assert [(scope, what) for _, scope, what in found] == [("_warn_empty", "EmptyRegionWarning")]


def test_region_node_read_is_caught():
    tree = ast.parse(
        "import warnings\n"
        "from .errors import EmptyRegionWarning\n"
        "def f(region, grid):\n"
        "    idx = region.node_indices(grid)\n"
        "    if not idx.size:\n"
        "        warnings.warn('empty', EmptyRegionWarning)\n"
        "        raise EmptyRegionWarning('empty')\n"
        "    warnings.simplefilter('ignore', EmptyRegionWarning)\n"
        "    return idx\n"
        "class Region:\n"
        "    def gather(self, f, grid):\n"
        "        return f.values[self.node_indices(grid)]\n"
    )
    assert _node_reads(tree) == [
        (4, "f", "node_indices"), (6, "f", "EmptyRegionWarning"), (7, "f", "EmptyRegionWarning"),
        (12, "Region.gather", "node_indices"),
    ]


_OUTER = ("outer_norm", "outer_weights")


def _refs(tree: ast.Module, names):
    """(line, name) of each name, attribute or import of one of names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "spaces.py"), ids=lambda p: p.name
)
def test_only_spaces_aggregates_outer(path):
    found = _refs(ast.parse(path.read_text(), filename=str(path)), _OUTER)
    assert not found, ", ".join(f"{path.name}:{line} {name}" for line, name in found)


def test_outer_aggregation_ref_is_caught():
    tree = ast.parse(
        "from .spaces import outer_norm\n"
        "from . import spaces\n"
        "def f(table, grid, family):\n"
        "    weights = spaces.outer_weights(grid, family, None)\n"
        "    return outer_norm(table, 8.0, weights)\n"
    )
    assert _refs(tree, _OUTER) == [(1, "outer_norm"), (4, "outer_weights"), (5, "outer_norm")]
    spaces_py = ast.parse((PACKAGE / "spaces.py").read_text())
    assert {name for _, name in _refs(spaces_py, _OUTER)} == set(_OUTER)


def test_weights_gather_no_node_values():
    found = _refs(ast.parse((PACKAGE / "weights.py").read_text()), ("batch_table",))
    assert not found, ", ".join(f"weights.py:{line} {name}" for line, name in found)


def test_batch_table_in_weights_is_caught():
    tree = ast.parse(
        "from .grid import RegionFamily, batch_table\n"
        "from . import grid\n"
        "def characteristic(w, p, family):\n"
        "    return grid.batch_table(family, w.grid, [w.values], min)[0].max()\n"
    )
    assert _refs(tree, ("batch_table",)) == [(1, "batch_table"), (4, "batch_table")]
    grid_py = ast.parse((PACKAGE / "grid.py").read_text())
    assert {name for _, name in _refs(grid_py, ("batch_table",))} == {"batch_table"}


_FORMULAS = ("_power", "_lift", "expm1")


def _young_method(tree: ast.Module, name):
    [method] = [fn for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "YoungFunction"
                for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == name]
    return method


def _restated_formulas(tree: ast.Module):
    """(line, name) of each _power, _lift or expm1 that YoungFunction._with_slope
    names, and of its def as self._values when it does not call self._values."""
    slope = _young_method(tree, "_with_slope")
    found = _refs(slope, _FORMULAS)
    if not any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "_values"
               and getattr(n.func.value, "id", None) == "self" for n in ast.walk(slope)):
        found.append((slope.lineno, "self._values"))
    return sorted(found)


def test_slope_evaluates_young_through_values():
    found = _restated_formulas(ast.parse((PACKAGE / "orlicz.py").read_text()))
    assert not found, ", ".join(f"orlicz.py:{line} {name}" for line, name in found)


def test_restated_young_formula_is_caught():
    # _with_slope as it stood when it stated each formula a second time
    tree = ast.parse(
        "class YoungFunction:\n"
        "    def _values(self, t, out):\n"
        "        return np.expm1(t, out=out)\n"
        "    def _with_slope(self, t, out):\n"
        "        if self.tag == 'exp':\n"
        "            return np.expm1(t, out=out[0]), self.values(t, out[1])\n"
        "        _lift(t, out[2])\n"
        "        return _power(t, self.param, out[0]), Y._values(t, out[1])\n"
    )
    assert _restated_formulas(tree) == [(4, "self._values"), (6, "expm1"), (7, "_lift"), (8, "_power")]
    values = _young_method(ast.parse((PACKAGE / "orlicz.py").read_text()), "_values")
    assert {name for _, name in _refs(values, _FORMULAS)} == {"_power", "expm1"}


_BATCHES = ("node_batches",)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "grid.py"), ids=lambda p: p.name
)
def test_only_grid_hands_out_node_batches(path):
    found = _refs(ast.parse(path.read_text(), filename=str(path)), _BATCHES)
    assert not found, ", ".join(f"{path.name}:{line} {name}" for line, name in found)


def test_node_batches_ref_is_caught():
    tree = ast.parse(
        "from .grid import node_batches\n"
        "from . import grid\n"
        "def maximal(out, table, fam, g):\n"
        "    for s, first, idx, n in grid.node_batches(fam, g):\n"
        "        out[idx] = table[s, first]\n"
        "    return node_batches\n"
    )
    assert _refs(tree, _BATCHES) == [(1, "node_batches"), (4, "node_batches"), (6, "node_batches")]
    grid_py = ast.parse((PACKAGE / "grid.py").read_text())
    assert {name for _, name in _refs(grid_py, _BATCHES)} == set(_BATCHES)


def _is_number(node) -> bool:
    if isinstance(node, ast.BinOp):
        return _is_number(node.left) and _is_number(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_number(node.operand)
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _chunking(tree: ast.Module):
    """(line, name) of each islice in a module that names window_sums, and of each
    module-level numeric constant read in window_sums or a function that calls it."""
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    if "window_sums" not in _names(tree) | {fn.name for fn in functions}:
        return []
    constants = {t.id for node in tree.body if isinstance(node, ast.Assign)
                 and _is_number(node.value) for t in node.targets if isinstance(t, ast.Name)}
    found = set(_refs(tree, ("islice",)))
    for fn in functions:
        if fn.name == "window_sums" or any(
                isinstance(n, ast.Call) and "window_sums" in _names(n.func) for n in ast.walk(fn)):
            found.update((n.lineno, n.id) for n in ast.walk(fn)
                         if isinstance(n, ast.Name) and n.id in constants)
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "grid.py"), ids=lambda p: p.name
)
def test_only_grid_chunks_window_sums(path):
    found = _chunking(ast.parse(path.read_text(), filename=str(path)))
    assert not found, ", ".join(f"{path.name}:{line} {name}" for line, name in found)


def test_chunking_next_to_window_sums_is_caught():
    tree = ast.parse(
        "import itertools\n"
        "from itertools import islice\n"
        "_SUM_NODES = 2**21\n"
        "_VARIANT = 'strong'\n"
        "def norms(fam, grid, arrays):\n"
        "    per = max(1, _SUM_NODES // grid.n_nodes)\n"
        "    return grid_mod.window_sums(fam, grid, list(itertools.islice(arrays, per))), _VARIANT\n"
        "def blocks(grid):\n"
        "    return _SUM_NODES // grid.n_nodes\n"
    )
    assert _chunking(tree) == [(2, "islice"), (6, "_SUM_NODES"), (7, "islice")]
    assert _chunking(ast.parse("from itertools import islice\n_SUM_NODES = 2**21\n")) == []
    grid_py = ast.parse((PACKAGE / "grid.py").read_text())
    assert {name for _, name in _chunking(grid_py)} == {"islice", "_SUM_NODES"}


_BOX_NORMS = ("local_lp_norm", "local_weak_lp_norm")


def test_harness_sides_are_amalgam_norms():
    found = _refs(ast.parse((PACKAGE / "harness.py").read_text()), _BOX_NORMS)
    assert not found, ", ".join(f"harness.py:{line} {name}" for line, name in found)


def test_box_norm_in_harness_is_caught():
    tree = ast.parse(
        "from .spaces import local_lp_norm, amalgam_norms\n"
        "from . import spaces\n"
        "def side(ctx, rows):\n"
        "    return [spaces.local_weak_lp_norm(r, 2.0) for r in rows], local_lp_norm\n"
    )
    assert _refs(tree, _BOX_NORMS) == [(1, "local_lp_norm"), (4, "local_lp_norm"),
                                       (4, "local_weak_lp_norm")]
    from amalgam import spaces  # the guarded names still exist, so the guard is not vacuous

    assert all(callable(getattr(spaces, name, None)) for name in _BOX_NORMS)


def _is_theorem(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "theorem") or (
        isinstance(node, ast.Attribute) and node.attr == "theorem")


def _theorem_names(node) -> int:
    """How many theorem names node is, or its literal tuple, list, set or dict holds."""
    items = getattr(node, "elts", None) or getattr(node, "keys", None) or [node]
    return sum(isinstance(n, ast.Constant) and n.value in THEOREMS for n in items)


def _theorem_forks(tree: ast.Module, owner="_THEOREMS"):
    """(line, scope) of each comparison that reads a theorem, and each literal that
    holds two theorem names, outside the assignment of owner."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == owner
                                                for t in node.targets):
            return
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            others = [s for s in sides if not _is_theorem(s)]
            to_table = all(getattr(s, "id", None) in ("THEOREMS", owner) for s in others)
            if any(map(_theorem_names, sides)) or (len(others) < len(sides) and not to_table):
                found.append((node.lineno, scope))
        elif _theorem_names(node) >= 2:
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


def test_harness_reads_theorems_from_the_table():
    found = _theorem_forks(ast.parse((PACKAGE / "harness.py").read_text()))
    assert not found, ", ".join(f"harness.py:{line} in {scope}" for line, scope in found)


def test_theorem_fork_is_caught():
    tree = ast.parse(
        "_THEOREMS = {'strong': ('strong', 'w'), 'weak': ('weak', 'w')}\n"
        "_P1 = ('weak', 'endpoint')\n"
        "_SIDES = {'strong': 1, 'commutator': 2}\n"
        "class Spec:\n"
        "    def check(self):\n"
        "        if self.theorem not in THEOREMS or theorem in _THEOREMS:\n"
        "            return self.theorem in _P1\n"
        "        return theorem == 'strong' or 'weak' != kind or variant in ('weak', 'x')\n"
    )
    assert _theorem_forks(tree) == [(2, ""), (3, ""), (7, "Spec.check")] + [(8, "Spec.check")] * 3
    harness_py = ast.parse((PACKAGE / "harness.py").read_text())
    assert [scope for _, scope in _theorem_forks(harness_py, owner=None)] == [""]  # the table


_STABILITY_KEY = re.compile(r"(epsilon_halving|grid_refinement)(_\d*)?")


def _stability_keys(tree: ast.Module, owner="_passes"):
    """(line, key) of each string naming a stability key, or the prefix of one,
    outside the function owner."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == owner:
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                _STABILITY_KEY.fullmatch(node.value)):
            found.append((node.lineno, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return sorted(found)


def test_only_the_pass_table_names_stability_keys():
    found = _stability_keys(ast.parse((PACKAGE / "harness.py").read_text()))
    assert not found, ", ".join(f"harness.py:{line} {key}" for line, key in found)


def test_stability_key_outside_the_pass_table_is_caught():
    tree = ast.parse(
        "def _passes(spec):\n"
        "    return [('epsilon_halving', (0, 4), (0, 2))]\n"
        "def theorem_experiment(spec, level):\n"
        "    stability = {'epsilon_halving': 0.0}\n"
        "    key = 'grid_refinement' if level == 1 else f'grid_refinement_{level}'\n"
        "    return stability, key, 'grid refinement drift'\n"
    )
    assert _stability_keys(tree) == [(4, "epsilon_halving"), (5, "grid_refinement"),
                                     (5, "grid_refinement_")]
    harness_py = ast.parse((PACKAGE / "harness.py").read_text())
    assert {key for _, key in _stability_keys(harness_py, owner=None)} == {
        "epsilon_halving", "grid_refinement", "grid_refinement_"}


_RENDERERS = ("Grid", "region_family", "weight_from_expression", "sample", "generate")


def _render_calls(tree: ast.Module, owners=("_Context", "realize")):
    """(line, name) of each call that renders on a grid outside the owner classes and functions."""
    found = []

    def visit(node):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in owners:
            return
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _RENDERERS:
                found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return sorted(found)


def test_only_the_context_renders_in_harness():
    harness_py = ast.parse((PACKAGE / "harness.py").read_text())
    found = _render_calls(harness_py)
    assert not found, ", ".join(f"harness.py:{line} {name}" for line, name in found)
    assert {name for _, name in _render_calls(harness_py, owners=())} == set(_RENDERERS)


def test_render_outside_the_context_is_caught():
    tree = ast.parse(
        "class _Context:\n"
        "    def __init__(self, spec):\n"
        "        self.grid = Grid(1, 4.0, spec.points)\n"
        "def gate(spec, grid):\n"
        "    w = weight_from_expression(spec.w_expr, Grid(1, 4.0, 8))\n"
        "    return region_family(grid, spec.sizes), Corpus.generate(3), sample('x', grid)\n"
    )
    assert _render_calls(tree) == [(5, "Grid"), (5, "weight_from_expression"),
                                   (6, "generate"), (6, "region_family"), (6, "sample")]


_FORK_OWNERS = ("_runs", "Kernel.__post_init__", "Corpus.generate")


def _is_dim(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "dim") or (
        isinstance(node, ast.Attribute) and node.attr == "dim")


def _dim_forks(tree: ast.Module, owners=_FORK_OWNERS):
    """(line, scope) of each ==/!= between a dim and the literal 1 or 2 outside the owners."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if scope in owners:
                return
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            for op, *pair in zip(node.ops, sides, sides[1:]):
                literal = any(isinstance(s, ast.Constant) and s.value in (1, 2) for s in pair)
                if isinstance(op, (ast.Eq, ast.NotEq)) and literal and any(map(_is_dim, pair)):
                    found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_code_path_for_both_dimensions(path):
    found = _dim_forks(ast.parse(path.read_text(), filename=str(path)))
    assert not found, ", ".join(f"{path.name}:{line} in {scope}" for line, scope in found)


def test_dimension_fork_is_caught():
    tree = ast.parse(
        "class Grid:\n"
        "    def coords(self):\n"
        "        if self.dim == 1:\n"
        "            return self.axis\n"
        "        return 2 != dim or self.dim in (1, 2)\n"
        "def _runs(grid):\n"
        "    return grid.dim == 1\n"
    )
    assert _dim_forks(tree) == [(3, "Grid.coords"), (5, "Grid.coords")]
    owners = {scope for path in PACKAGE.glob("*.py")
              for _, scope in _dim_forks(ast.parse(path.read_text()), owners=())}
    assert owners == {"_runs", "Kernel.__post_init__", "Corpus.generate.ind"}


_RUN_OWNERS = ("_family_runs", "Region.node_indices")


def _run_calls(tree: ast.Module, owners=_RUN_OWNERS):
    """(line, scope) of each call to _runs outside the owners."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if scope in owners:
                return
        if isinstance(node, ast.Call) and "_runs" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_runs_are_laid_out_only_by_the_family_layout(path):
    found = _run_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not found, ", ".join(f"{path.name}:{line} in {scope}" for line, scope in found)


def test_runs_call_outside_the_layout_is_caught():
    tree = ast.parse(
        "def _family_runs(family, grid):\n"
        "    return _runs('ball', family.centers, 1.0, grid)\n"
        "def window_sums(family, grid):\n"
        "    return _runs('ball', family.centers, 1.0, grid), grid_mod._runs('cube', c, 2, grid)\n"
        "class Region:\n"
        "    def node_indices(self, grid):\n"
        "        return _runs(self.shape, [self.center], self.size, grid)\n"
        "    def fits_box(self, grid):\n"
        "        return _runs(self.shape, [self.center], self.size, grid)\n"
    )
    assert _run_calls(tree) == [(4, "window_sums"), (4, "window_sums"), (9, "Region.fits_box")]
    grid_py = ast.parse((PACKAGE / "grid.py").read_text())
    assert {scope for _, scope in _run_calls(grid_py, owners=())} == set(_RUN_OWNERS)


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _calls(tree: ast.Module, match):
    """(line, scope, looped) of each call that match accepts; looped when a loop
    of its function holds it (a for loop's iterable is read once, outside it)."""
    found = []

    def visit(node, scope, looped):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope, looped = f"{scope}.{node.name}" if scope else node.name, False
        if isinstance(node, ast.Call) and match(node):
            found.append((node.lineno, scope, looped))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, looped or (
                isinstance(node, _LOOPS) and child is not getattr(node, "iter", None)))

    visit(tree, "", False)
    return sorted(found)


def _segment_calls(tree: ast.Module):
    return _calls(tree, lambda call: "_segments" in (
        getattr(call.func, "id", None), getattr(call.func, "attr", None)))


def test_each_family_is_segmented_once():
    # one _segments call per layout, outside the loop over sizes and chunks
    found = [(path.name, scope, looped) for path in sorted(PACKAGE.glob("*.py"))
             for _, scope, looped in _segment_calls(ast.parse(path.read_text()))]
    assert found == [("grid.py", "_family_runs", False)]


def test_segmentation_per_entry_is_caught():
    # _family_runs as it stood when each layout entry was cut on its own
    tree = ast.parse(
        "def _family_runs(family, grid):\n"
        "    for s, size in enumerate(family.sizes):\n"
        "        for first in range(0, len(centers), _CENTER_CHUNK):\n"
        "            segments = _segments(start, stop, grid.n_nodes, runs)\n"
        "    return [grid_mod._segments(e, n) for e in layout]\n"
        "def _chunk_sums(family, grid, arrays, reduce):\n"
        "    return _segments([], grid.n_nodes)\n"
    )
    assert _segment_calls(tree) == [(4, "_family_runs", True), (5, "_family_runs", True),
                                    (7, "_chunk_sums", False)]


def _segment_reduces(tree: ast.Module):
    """(line, looped) of each reduceat over the cuts in _chunk_sums."""
    [fn] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_chunk_sums"]
    return [(line, looped) for line, _, looped in _calls(fn, lambda call: getattr(
        call.func, "attr", None) == "reduceat" and "cuts" in _names(ast.Tuple(call.args)))]


def test_chunk_sums_reduce_segments_once_per_chunk():
    found = _segment_reduces(ast.parse((PACKAGE / "grid.py").read_text()))
    assert [looped for _, looped in found] == [False]


def test_segment_reduce_per_entry_is_caught():
    # _chunk_sums as it stood when each layout entry reduced its own segments
    tree = ast.parse(
        "def _chunk_sums(family, grid, arrays, reduce):\n"
        "    for s, first, _, _, n, bounds, (_, cuts, edges, place) in _family_runs(family, grid):\n"
        "        segments = reduce.reduceat(padded, cuts, axis=1) if cuts.size else padded\n"
        "        runs = reduce.reduceat(segments, edges, axis=1)[:, ::2][:, place]\n"
        "    return [np.minimum.reduceat(padded, cuts) for _ in arrays], reduce.reduceat(runs, bounds)\n"
    )
    assert _segment_reduces(tree) == [(3, True), (5, True)]


def _is_band_masses(call) -> bool:
    return "band_masses" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))


def _band_recounts(trees: dict):
    """(module, line, what): each band_masses that orlicz._bracket names, and each
    band_masses call that passes a list."""
    found = [("orlicz.py", line, "_bracket") for fn in trees["orlicz.py"].body
             if isinstance(fn, ast.FunctionDef) and fn.name == "_bracket"
             for line, _ in _refs(fn, ("band_masses",))]
    for module, tree in trees.items():
        found += [(module, line, "list") for line, _, _ in _calls(tree, lambda call: _is_band_masses(
            call) and any(isinstance(arg, (ast.List, ast.ListComp))
                          for arg in [*call.args, *(k.value for k in call.keywords)]))]
    return sorted(found)


def test_band_masses_are_counted_once_in_one_row():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    found = _band_recounts(trees)
    assert not found, ", ".join(f"{module}:{line} {what}" for module, line, what in found)


def test_band_recount_is_caught():
    # _bracket and _convex_bracket as they stood when each round counted its own masses
    tree = ast.parse(
        "def _bracket(family, grid, bands, m, Y, work):\n"
        "    masses = band_masses(family, grid, bands, k, m).reshape(-1, k)\n"
        "def _convex_bracket(family, grid, a, bands, m, Y, work, where):\n"
        "    mass, moment = grid.band_masses(family, grid, bands, k, [m, place], where)\n"
        "    return band_masses(family, grid, bands, k, masses=[r for r in (m, None)])\n"
    )
    assert _band_recounts({"orlicz.py": tree}) == [
        ("orlicz.py", 2, "_bracket"), ("orlicz.py", 4, "list"), ("orlicz.py", 5, "list")]
    orlicz_py = ast.parse((PACKAGE / "orlicz.py").read_text())
    assert {scope for _, scope, _ in _calls(orlicz_py, _is_band_masses)} == {
        "luxemburg_table", "_convex_bracket"}


_UNUSED_SUBMODULES = ("numpy.polynomial", "numpy.ma")

_EVERY_THEOREM_RUN = f"""
import sys
import amalgam.cli
from amalgam import ExperimentSpec, theorem_experiment
from amalgam.harness import THEOREMS
for theorem in THEOREMS:
    theorem_experiment(ExperimentSpec(theorem, points=64, corpus_n=2))
theorem_experiment(ExperimentSpec("strong", dim=2, points=32, kernel_tag="riesz",
                                  center_stride=8, corpus_n=2))
print(" ".join(m for m in {_UNUSED_SUBMODULES!r} if m in sys.modules))
"""


def test_runs_leave_unused_numpy_submodules_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _EVERY_THEOREM_RUN], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


def _conditional_asserts(tree: ast.Module):
    """Lines of each assert whose test is a conditional expression with a comparison as its body."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
                  and isinstance(node.test, ast.IfExp) and isinstance(node.test.body, ast.Compare))


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_of_a_conditional_comparison(path):
    found = _conditional_asserts(ast.parse(path.read_text(), filename=str(path)))
    assert not found, ", ".join(f"{path.name}:{line}" for line in found)


def test_conditional_assert_is_caught():
    tree = ast.parse(
        "def test_count(n, dim, total):\n"
        "    assert total == 2 * n if dim == 2 else n\n"
        "    assert total == (2 * n if dim == 2 else n)\n"
        "    assert (n if dim == 2 else total)\n"
        "    assert (total == n) if dim == 2 else total > n\n"
    )
    assert _conditional_asserts(tree) == [2, 5]
