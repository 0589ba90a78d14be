"""Static checks on the package source.

Every name a package module imports is used in that module: a stdlib-only
stand-in for pyflakes' unused-import check, where an imported name must be
read in the module's code or in a quoted annotation, or be listed in the
module's ``__all__``.

Only grid.py turns regions into nodes: no other module calls
``.node_indices(`` or issues an EmptyRegionWarning.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "amalgam"


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
    return used


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


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _node_reads(tree: ast.Module):
    """(line, what) of each .node_indices( call and each warn or raise of EmptyRegionWarning."""
    found = []
    for node in ast.walk(tree):
        issued = []
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "node_indices":
                found.append((node.lineno, "node_indices"))
            if "warn" in _names(node.func):
                issued = [*node.args, *(k.value for k in node.keywords)]
        elif isinstance(node, ast.Raise) and node.exc is not None:
            issued = [node.exc]
        if any("EmptyRegionWarning" in _names(arg) for arg in issued):
            found.append((node.lineno, "EmptyRegionWarning"))
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "grid.py"), ids=lambda p: p.name
)
def test_only_grid_reads_region_nodes(path):
    found = _node_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not found, ", ".join(f"{path.name}:{line} {what}" for line, what in found)


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
    )
    assert _node_reads(tree) == [
        (4, "node_indices"), (6, "EmptyRegionWarning"), (7, "EmptyRegionWarning")
    ]
    grid_py = ast.parse((PACKAGE / "grid.py").read_text())
    assert [what for _, what in _node_reads(grid_py)] == ["node_indices", "EmptyRegionWarning",
                                                         "EmptyRegionWarning"]
