"""Every function and class defined under ``src/`` is named elsewhere.

A definition nothing calls, subclasses, imports or names in a string is
dead code. CI installs no linter, so this AST scan is the guard. A name
counts as referenced when it appears anywhere in ``src/``, ``tests/``,
``benchmarks/``, ``examples/``, ``perfbench/`` or ``setup.py`` as a
name, an attribute, an imported name, or a word of a string constant
that is not a docstring (``getattr``, ``monkeypatch.setattr`` and entry
points name functions that way). A definition is not a reference to
itself. Dunder names are called by Python and are skipped.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SCANNED = ("src", "tests", "benchmarks", "examples", "perfbench")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_WORD = re.compile(r"[A-Za-z_]\w*")


def definitions(tree):
    """``[(line, name)]`` of every function and class defined in ``tree``."""
    return [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, _DEFS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def references(tree):
    """Every name ``tree`` uses, with repeats."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *_DEFS))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name.rsplit(".", 1)[-1])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.extend(_WORD.findall(node.value))
    return names


def unreferenced(defining, sources):
    """``[(path, line, name)]`` of the definitions in ``defining`` (a
    ``{path: source}`` dict) that no source in ``sources`` names."""
    used = Counter()
    for source in sources:
        used.update(references(ast.parse(source)))
    return [
        (path, line, name)
        for path, source in defining.items()
        for line, name in definitions(ast.parse(source))
        if not used[name]
    ]


def test_scanner_flags_only_unreferenced_names():
    defining = {
        "m.py": (
            '"""Module docstring naming dead."""\n'
            "class Used:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    def method(self):\n"
            '        """Docstring naming dead_method."""\n'
            "def dead():\n"
            "    pass\n"
            "def dead_method():\n"
            "    pass\n"
            "def by_string():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
        ),
    }
    user = (
        "from m import Used\n"
        "Used().method()\n"
        "setattr(Used, 'x', 'by_string')\n"
    )
    sources = [*defining.values(), user]
    assert unreferenced(defining, sources) == [
        ("m.py", 7, "dead"), ("m.py", 9, "dead_method"),
    ]


def test_every_definition_in_src_is_referenced():
    files = [
        path for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
    ] + [ROOT / "setup.py"]
    sources = {path: path.read_text() for path in files}
    defining = {
        path: source for path, source in sources.items()
        if SRC in path.parents
    }
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path, line, name in unreferenced(defining, sources.values())
    ]
    assert found == [], "unreferenced definitions:\n" + "\n".join(found)
