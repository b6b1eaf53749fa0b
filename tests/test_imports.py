"""Every name a module imports is used in that module, and the Catalan
layers reach no whole-group code.

An ``ast`` scan of the package and the tests: a name bound by ``import``
or ``from ... import`` counts as used when it appears as a name anywhere in
the module.  ``from __future__`` imports are directives, and the package's
re-exports are used through ``__all__``.

A second scan pins the structural target that building the Catalan objects
costs in proportion to their number, not to the group order: the modules
in ``CATALAN_LAYERS`` may not name a function that walks the whole group.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "coxcat").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
CATALAN_LAYERS = ("noncrossing", "sortable", "bijmaps", "rootposets", "paths")
WHOLE_GROUP = {"enumerate_group", "length_t_bfs", "_abs_length_table"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source,unused",
    [
        ("import os\n", ["line 1: os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["line 1: c"]),
        ("from __future__ import annotations\n", []),
        ("from .m import f\n__all__ = ['f']\n", []),
        ("def g():\n    import json\n    return 1\n", ["line 2: json"]),
    ],
)
def test_scan(source, unused):
    assert unused_imports(source) == unused


def whole_group_names(source: str) -> list[str]:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname})
    return sorted(found & WHOLE_GROUP)


@pytest.mark.parametrize("layer", CATALAN_LAYERS)
def test_no_whole_group_code(layer):
    assert whole_group_names((ROOT / "src" / "coxcat" / f"{layer}.py").read_text()) == []


@pytest.mark.parametrize(
    "source,names",
    [
        ("from .signedperm import enumerate_group as eg\n", ["enumerate_group"]),
        ("signedperm.length_t_bfs(w, 'D')\n", ["length_t_bfs"]),
        ("table = _abs_length_table\n", ["_abs_length_table"]),
        ('"""Listed in ``enumerate_group`` order."""\n', []),
    ],
)
def test_whole_group_scan(source, names):
    assert whole_group_names(source) == names
