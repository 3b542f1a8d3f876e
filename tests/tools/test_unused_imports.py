"""No program file under ``src/`` imports a name it never uses.

CI installs no linter, so this AST scan is the guard. Package
``__init__.py`` files (whose imports are re-exports) and import lines
marked ``# noqa`` are skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def unused_imports(source):
    """``[(line, name)]`` of the names ``source`` imports but never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = _names(tree)
    for node in ast.walk(tree):
        # A name listed in ``__all__`` or used in a string annotation is
        # used too.
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                e.value for e in getattr(node.value, "elts", ())
                if isinstance(e, ast.Constant)
            )
        for annotation in _annotations(node):
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                used |= _names(ast.parse(annotation.value, mode="eval"))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _annotations(node):
    if isinstance(node, ast.arg):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "import sys  # noqa: F401\n"
        "from typing import Any, Dict\n"
        "__all__ = ['loads']\n"
        "def f(x: 'Dict[str, int]'):\n"
        "    return os.sep + 'Any dumps'\n"
    )
    assert unused_imports(source) == [(3, "osp"), (4, "dumps"), (6, "Any")]


def test_no_unused_imports_in_src():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)
