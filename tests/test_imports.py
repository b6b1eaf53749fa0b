"""Every name a module imports is used in that module, and the Catalan
layers reach no whole-group code.

An ``ast`` scan of the package and the tests: a name bound by ``import``
or ``from ... import`` counts as used when it appears as a name anywhere in
the module.  ``from __future__`` imports are directives, and the package's
re-exports are used through ``__all__``.

A second scan pins the structural target that building the Catalan objects
costs in proportion to their number, not to the group order: the modules
in ``CATALAN_LAYERS`` may not name a function that walks the whole group.

A third keeps the generating polynomials of area and maj one pass (over the
lattice points), and both verifiers on row starts: in types A and B the functions
in ``ONE_PASS`` may not name the per-object enumerations, the Dyck check or
the per-word statistics, ``phi`` and its verifier may not name the
frozenset ideals, their statistics and lift, or ``from_cycles``, and the
psi verifier and its row kernel may not name the word enumerations, the
Dyck check, the per-word statistics and split, or the word entries
``psi_a``/``psi_b``.  The verifiers check each image once and then call
the unchecked statistic bodies, so they may not name the checked
statistics, ``c_sorting_word`` or the sorted ``rev_nc``; the walk of the
sortable elements checks its word once, so it may not name
``is_c_sortable`` or ``c_sorting_word``.  phi's row kernel walks each
shell once in left-endpoint order, so it may not name a sort or the span
readers ``_span_cycles``/``_read_block``, and ``psi_a``, ``psi_b`` and
``dyck_to_ideal`` read their word once, so they may not name the Dyck
check ``_check`` or the unchecked ``_north_columns``.

A fourth keeps test-only code out of the package: every top-level function
and class in ``src/coxcat`` must be reached by name from ``cli.main`` or
from a name in ``__all__``.  Reference implementations that only the
tests call live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "coxcat").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
CATALAN_LAYERS = ("noncrossing", "sortable", "bijmaps", "rootposets", "paths")
WHOLE_GROUP = {"enumerate_group", "length_t_bfs", "_abs_length_table"}
PER_OBJECT = {"enumerate_a", "enumerate_b", "_check", "area_a", "maj_a", "ideals"}
ROW_STARTS = {"ideals", "ideal_maj", "ideal_des", "lift_delta", "ideal_to_dyck", "from_cycles"}
PSI_WORDS = {
    "enumerate_a", "enumerate_b", "_check", "area_a", "area_b", "maj_a", "maj_b",
    "neg_b", "split_lower_upper", "psi_a", "psi_b",
}
CHECKED_STATS = {"length_s", "maj", "imaj", "c_sorting_word", "rev_nc"}
CHECKED_SORT = {"is_c_sortable", "c_sorting_word"}
SPAN_SORT = {"sort", "sorted", "_span_cycles", "_read_block"}
DYCK_PASSES = {"_check", "_north_columns"}
# row -> (layer, functions, the names they may not use)
ONE_PASS = {
    "paths": ("paths", ("_stat_counts", "area_polynomial", "maj_polynomial"), PER_OBJECT),
    "rootposets": ("rootposets", ("cat_q",), PER_OBJECT),
    "bijmaps": ("bijmaps", ("verify_phi_theorems", "phi", "_phi_rows"), ROW_STARTS),
    "bijmaps-psi": ("bijmaps", ("verify_psi_theorems", "_psi"), PSI_WORDS),
    "bijmaps-checks": ("bijmaps", ("verify_phi_theorems", "verify_psi_theorems"), CHECKED_STATS),
    "sortable-walk": ("sortable", ("enumerate_sortables",), CHECKED_SORT),
    "phi-walk": ("bijmaps", ("_phi_rows",), SPAN_SORT),
    "psi-reader": ("bijmaps", ("psi_a", "psi_b"), DYCK_PASSES),
    "rootposets-reader": ("rootposets", ("dyck_to_ideal",), DYCK_PASSES),
}


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


def _is_type_d_test(test: ast.expr) -> bool:
    """``x == "D"`` or ``"D" == x``: the test of an ``if`` that opens type D's route."""
    return (
        isinstance(test, ast.Compare)
        and [type(op) for op in test.ops] == [ast.Eq]
        and any(isinstance(side, ast.Constant) and side.value == "D" for side in (test.left, *test.comparators))
    )


def per_object_names(source: str, functions, forbidden=PER_OBJECT) -> tuple[list[str], list[str]]:
    """The ``forbidden`` names on the A/B route of the named functions, and
    the functions found.

    The body of an ``if`` testing for type D is that type's route and is
    skipped; its ``else`` branch is scanned like the rest of the function.
    """
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and _is_type_d_test(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    scanned = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            scanned.append(node.name)
            for statement in node.body:
                visit(statement)
    return sorted(found & forbidden), sorted(scanned)


@pytest.mark.parametrize("row", ONE_PASS)
def test_polynomials_take_one_pass(row):
    layer, functions, forbidden = ONE_PASS[row]
    source = (ROOT / "src" / "coxcat" / f"{layer}.py").read_text()
    assert per_object_names(source, functions, forbidden) == ([], sorted(functions))


@pytest.mark.parametrize(
    "source,names",
    [
        ("def cat_q(t):\n    return gen_poly(map(len, ideals(t)))\n", ["ideals"]),
        ("def area_polynomial(f, n):\n    return gen_poly(map(area_a, paths.enumerate_a(n)))\n", ["area_a", "enumerate_a"]),
        ("def maj_polynomial(f, n):\n    return sum(1 for w in words if _check(w, f))\n", ["_check"]),
        ("def cat_q(t):\n    if t.family == 'D':\n        return ideals(t)\n    return area_polynomial(t)\n", []),
        ("def cat_q(t):\n    if 'D' == t.family:\n        return 0\n    else:\n        return ideals(t)\n", ["ideals"]),
        ("def cat_q(t):\n    if t.family == 'A':\n        return root_poset(t).ideals()\n", ["ideals"]),
        ("def cat_q(t):\n    if t.family != 'D':\n        return ideals(t)\n", ["ideals"]),
        ('def cat_q(t):\n    """Counts without ``ideals``."""\n', []),
        ("def helper(n):\n    return enumerate_a(n)\n", []),
    ],
)
def test_one_pass_scan(source, names):
    assert per_object_names(source, ("cat_q", "area_polynomial", "maj_polynomial"))[0] == names


@pytest.mark.parametrize(
    "source,names",
    [
        ("def phi(t, ideal):\n    return signedperm.from_cycles(cycles, t.n)\n", ["from_cycles"]),
        ("def verify_phi_theorems(t):\n    for i in rootposets.ideals(t):\n        ideal_maj(t, i)\n", ["ideal_maj", "ideals"]),
        ("def verify_phi_theorems(t):\n    return phi(big, rootposets.lift_delta(t, i)), ideal_des(t, i)\n", ["ideal_des", "lift_delta"]),
        ("def verify_phi_theorems(t):\n    return paths._row_stream(t.family, t.n)\n", []),
    ],
)
def test_row_start_scan(source, names):
    assert per_object_names(source, ("phi", "verify_phi_theorems"), ROW_STARTS)[0] == names


@pytest.mark.parametrize(
    "source,names",
    [
        ("def verify_psi_theorems(t):\n    for w in paths.enumerate_b(t.n):\n        psi_b(w)\n", ["enumerate_b", "psi_b"]),
        ("def _psi(word, family):\n    n = paths._check(word, family)\n", ["_check"]),
        ("def verify_psi_theorems(t):\n    lower, _ = paths.split_lower_upper(w)\n    return paths.neg_b(w), area_b(w)\n", ["area_b", "neg_b", "split_lower_upper"]),
        ("def verify_psi_theorems(t):\n    return maj_a(w) if t.family == 'A' else bijmaps.psi_a(lower)\n", ["maj_a", "psi_a"]),
        ("def verify_psi_theorems(t):\n    return _psi(x[:n], n, 'A'), paths._word_of_rows(t.family, t.n, x)\n", []),
        ("def psi_a(word):\n    return _psi(paths._north_columns(word), paths._check(word, 'A'), 'A')\n", []),
    ],
)
def test_psi_row_scan(source, names):
    assert per_object_names(source, ("_psi", "verify_psi_theorems"), PSI_WORDS)[0] == names


@pytest.mark.parametrize(
    "source,names",
    [
        ("def verify_phi_theorems(t):\n    return signedperm.length_s(s, f) + maj(s, f) + imaj(s, f)\n", ["imaj", "length_s", "maj"]),
        ("def verify_phi_theorems(t):\n    target = set(rev_nc(t))\n", ["rev_nc"]),
        ("def verify_psi_theorems(t):\n    if c_sorting_word(s, c, f) != sw:\n        pass\n", ["c_sorting_word"]),
        ("def verify_psi_theorems(t):\n    for x, area, maj, _ in rows:\n        pass\n", ["maj"]),
        ("def verify_psi_theorems(t):\n    check_perm(s, f)\n    return _length_s(s, f), _maj(s, f), _imaj(s, f), _sorting_word(s, c, f)\n", []),
        ("def length_s(p, f):\n    return _length_s(p, f)\n", []),
    ],
)
def test_unchecked_stats_scan(source, names):
    assert per_object_names(source, ("verify_phi_theorems", "verify_psi_theorems"), CHECKED_STATS)[0] == names


@pytest.mark.parametrize(
    "source,names",
    [
        ("def enumerate_sortables(t):\n    return [u for u in found if is_c_sortable(u, c, f)]\n", ["is_c_sortable"]),
        ("def enumerate_sortables(t):\n    return sortable.c_sorting_word(u, c, f).is_sortable_chain()\n", ["c_sorting_word"]),
        ("def enumerate_sortables(t):\n    return _sorting_word(u, c, f).is_sortable_chain()\n", []),
    ],
)
def test_sortable_walk_scan(source, names):
    assert per_object_names(source, ("enumerate_sortables",), CHECKED_SORT)[0] == names


@pytest.mark.parametrize(
    "source,names",
    [
        ("def _phi_rows(t, x):\n    for spans in shells:\n        spans.sort()\n", ["sort"]),
        ("def _phi_rows(t, x):\n    return _span_cycles(sorted(spans))\n", ["_span_cycles", "sorted"]),
        ("def _phi_rows(t, x):\n    bijmaps._read_block(seq, cycles)\n", ["_read_block"]),
        ("def _phi_rows(t, x):\n    starts.reverse()\n    return max([m - a for m, a in starts])\n", []),
        ('def _phi_rows(t, x):\n    """Not ``sorted``: merged."""\n', []),
    ],
)
def test_phi_walk_scan(source, names):
    assert per_object_names(source, ("_phi_rows",), SPAN_SORT)[0] == names


@pytest.mark.parametrize(
    "source,names",
    [
        ("def psi_a(word):\n    n = paths._check(word, 'A')\n    return _psi(paths._north_columns(word), n, 'A')\n", ["_check", "_north_columns"]),
        ("def dyck_to_ideal(t, word):\n    return _ideal_of_rows(t, _north_columns(word))\n", ["_north_columns"]),
        ("def psi_b(word):\n    return _psi(paths._dyck_columns(word, 'B'), len(word) // 2, 'B')\n", []),
    ],
)
def test_dyck_reader_scan(source, names):
    assert per_object_names(source, ("psi_a", "psi_b", "dyck_to_ideal"), DYCK_PASSES)[0] == names


def _mentioned(node: ast.AST) -> set[str]:
    """Every name and attribute name in ``node``; strings and docstrings do not count."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def unreached_names(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes, as ``module.name``, that no code
    reached from ``cli.main`` or from a name in an ``__all__`` mentions.

    Reaching is by name: a definition is reached once reached code mentions
    its name, and then everything in its body is reached code, a class's
    methods included.  Module-level statements run on import, so they are
    reached code too; imports and ``__all__`` only bind names.
    """
    defs: dict[str, tuple[str, ast.AST]] = {}
    names: set[str] = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = (node.name, node)
                if (module, node.name) == ("cli", "main"):
                    names.add("main")
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                names.update(ast.literal_eval(node.value))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= _mentioned(node)
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qualified, (name, node) in defs.items():
            if qualified not in reached and name in names:
                reached.add(qualified)
                names |= _mentioned(node)
                grew = True
    return sorted(set(defs) - reached)


def test_every_definition_is_reached():
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "coxcat").glob("*.py")}
    assert unreached_names(sources) == []


@pytest.mark.parametrize(
    "sources,unreached",
    [
        ({"cli": "def main():\n    return helper()\n\ndef helper():\n    pass\n"}, []),
        ({"cli": "def main():\n    pass\n\ndef helper():\n    pass\n"}, ["cli.helper"]),
        ({"cli": 'def main():\n    """Calls ``helper``."""\n\ndef helper():\n    pass\n'}, ["cli.helper"]),
        ({"m": "def main():\n    return f()\n\ndef f():\n    pass\n"}, ["m.f", "m.main"]),
        (
            {"__init__": "from .m import f\n__all__ = ['f']\n", "m": "def f():\n    return m2.g\n", "m2": "def g():\n    pass\n"},
            [],
        ),
        ({"__init__": "from .m import f, g\n__all__ = ['f']\n", "m": "def f():\n    pass\n\ndef g():\n    pass\n"}, ["m.g"]),
        (
            {"cli": "def main():\n    return Q.one()\n", "m": "class Q:\n    def one(self):\n        return h()\n\ndef h():\n    pass\n"},
            [],
        ),
        (
            {"cli": "def main():\n    return x.f()\n", "m": "def f():\n    pass\n\nclass C:\n    def f(self):\n        return h()\n\ndef h():\n    pass\n"},
            ["m.C", "m.h"],
        ),
        ({"cli": "def main():\n    return TABLE\n", "m": "TABLE = {'a': f}\n\ndef f():\n    pass\n"}, []),
    ],
)
def test_reach_scan(sources, unreached):
    assert unreached_names(sources) == unreached
