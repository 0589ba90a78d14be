"""Every name a package module imports is used in that module.

A stdlib-only stand-in for pyflakes' unused-import check: an imported name
must be read in the module's code or in a quoted annotation, or be listed
in the module's ``__all__``.
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
