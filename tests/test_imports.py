"""Every name a module imports is used in that module.

An ``ast`` scan of the package and the tests: a name bound by ``import``
or ``from ... import`` counts as used when it appears as a name anywhere in
the module.  ``from __future__`` imports are directives, and the package's
re-exports are used through ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "coxcat").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
