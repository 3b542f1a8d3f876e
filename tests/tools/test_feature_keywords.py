"""Every keyword that builds a ``ScheduleFeatures`` names a current field.

The ablation benches and examples do not run in CI, so a keyword left
behind when a field is removed would only fail when someone runs them.
This AST scan checks ``ScheduleFeatures(...)``, ``default_features(...)``,
the ablations' ``_features(...)`` and ``replace(<features>, ...)`` calls
under ``src/``, ``benchmarks/``, ``examples/`` and ``perfbench/``.
``**mapping`` arguments are not checked.
"""

import ast
import dataclasses
from pathlib import Path

from repro.sched.scheduler import ScheduleFeatures

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks", "examples", "perfbench")
BUILDERS = {"ScheduleFeatures", "default_features", "_features"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _builds_features(call):
    name = _name(call.func)
    if name in BUILDERS:
        return True
    # dataclasses.replace(features, ...), not str.replace or os.replace.
    is_replace = name == "replace" and (
        isinstance(call.func, ast.Name)
        or _name(call.func.value) == "dataclasses"
    )
    return (
        is_replace
        and bool(call.args)
        and "features" in (_name(call.args[0]) or "").lower()
    )


def unknown_keywords(source, fields):
    """``[(line, keyword)]`` of feature keywords in ``source`` that are
    not in ``fields``."""
    return [
        (node.lineno, kw.arg)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _builds_features(node)
        for kw in node.keywords
        if kw.arg is not None and kw.arg not in fields
    ]


def test_scanner_checks_only_feature_builders():
    source = (
        "ScheduleFeatures(time_limit=1, gone=2)\n"
        "scheduler.ScheduleFeatures(old=1)\n"
        "default_features(max_hops=4, stale=1)\n"
        "_features(baseline='greedy')\n"
        "replace(FEATURES, swp=True, dropped=1)\n"
        "dataclasses.replace(self.features, removed=0)\n"
        "replace(result, family_record=None)\n"
        "text.replace('a', 'b')\n"
        "ScheduleFeatures(**overrides)\n"
        "Other(gone=1)\n"
    )
    fields = {"time_limit", "max_hops", "swp"}
    assert unknown_keywords(source, fields) == [
        (1, "gone"), (2, "old"), (3, "stale"), (4, "baseline"),
        (5, "dropped"), (6, "removed"),
    ]


def test_feature_keywords_name_current_fields():
    fields = {f.name for f in dataclasses.fields(ScheduleFeatures)}
    found = [
        f"{path.relative_to(ROOT)}:{line}: {keyword}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, keyword in unknown_keywords(path.read_text(), fields)
    ]
    assert found == [], "unknown ScheduleFeatures keywords:\n" + "\n".join(
        found
    )
