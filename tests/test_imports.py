"""Every name a module imports is used in that module, and the Catalan
layers reach no whole-group code.

An ``ast`` scan of the package and the tests: a name bound by ``import``
or ``from ... import`` counts as used when it appears as a name anywhere in
the module.  ``from __future__`` imports are directives, and the package's
re-exports are used through ``__all__``.

A second scan pins the structural target that building the Catalan objects
costs in proportion to their number, not to the group order: no module in
``src/coxcat`` may name a function that walks the whole group or counts
it per family.  The group walk and order are the tests' oracles, and the
package reads |W| off the degrees.

A third keeps the generating polynomials of area and maj one pass (a fold up
the paths' prefix tree), and both verifiers on row starts: in types A and B the functions
in ``ONE_PASS`` may not name the per-object enumerations, the Dyck check or
the per-word statistics, ``phi`` and its verifier may not name the
frozenset ideals, their statistics and lift, or ``from_cycles``, and the
psi verifier and its row kernels may not name the word enumerations, the
Dyck check, the per-word statistics and split, or the word entries
``psi_a``/``psi_b``.  The verifiers read every image's statistics at
once, in lanes (``bijmaps._lane_stats``), so they may not
name the checked statistics, ``c_sorting_word`` or ``rev_nc``,
nor a single statistic, a descent set, ``neg`` or ``inverse``; the sortable
elements come from the prefix tree, whose child test reads the parent
alone, so ``enumerate_sortables``, ``_sortable_tree`` and
``_sortable_nodes`` may not name a sorting scan (``is_c_sortable``,
``c_sorting_word``, ``_is_sortable``) or build a sorting word; type D's
default [1, c] is nc_c read off the tree's nodes, so ``_nc_tree`` may not
name ``length_t``, a group product, the reflection list or
``enumerate_sortables``; the interval below any other c is the default
one conjugated, so ``nc_elements`` and ``_conjugator`` may not name
``length_t`` or the reflection list; and ``is_c_sortable`` tests its element with the
early-exit scan, so it may not build a sorting word either.  The D4 report
and the psi verifier take the sortable elements from the tree, so neither
may name ``enumerate_sortables``.
The rev images of types A and B come from the scan, so ``rev_nc`` (off its
type-D route) and the phi verifier may not name ``rev``, and the D4 report
reads every length off lanes, so it may not name ``rev`` or a per-element
length.  phi's row kernel walks each
shell once in left-endpoint order, and its lane kernel reads each shell's
points off masks, so neither may name a sort or the span readers
``_span_cycles``/``_read_block``, and ``psi_a``, ``psi_b`` and
``dyck_to_ideal`` read their word once, so they may not name the Dyck
tests ``is_dyck_a``/``is_dyck_b``, a second read.  phi's inverse table
is one pass over the row starts, so it may not name the ideal or word
enumerations, the per-object maps or the Dyck check; the lanes' row starts
come from the prefix tree's byte columns, so ``_rank`` and the
verifiers may not name the per-path stream ``row_stream``; and
the per-word area and maj read the north columns, so they may not name
the cell sets or the descent set, which are the tests' oracles.

A fourth keeps test-only code out of the package: every top-level function
and class in ``src/coxcat`` must be reached by name from ``cli.main`` or
from a name in ``__all__``.  Reference implementations that only the
tests call live in ``tests/oracles.py``.

A fifth keeps the size guards at the command-line edge: no module but
``cli`` calls ``check_guard``, and no function but ``check_guard`` itself
takes an ``unsafe`` parameter, so the library sets no limit of its own.

A sixth keeps README.md's private names current: every backticked name
that starts with an underscore is defined in ``src/coxcat`` or ``tests``.

A seventh pins the names the benchmark calls: every attribute that
``perfbench/run.py`` takes from a package module it loads as
``lib["<module>"]`` exists, so moving such a name (``QPoly.from_json``,
which parses every ``poly`` answer) out of the package fails here.

An eighth keeps every ban above naming something: each name in
``WHOLE_GROUP`` and in the ``ONE_PASS`` rows is defined in ``src/coxcat``
or ``tests``, or is a builtin or a ``list`` method, so a rename cannot
leave a row that checks nothing.

A ninth keeps the size rule in one place: no function in ``src/coxcat``
but ``qseries._size`` raises a message containing ``must be >= 0 and an
int``, so every entry that takes a size reads it through ``_size``.
"""

import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "coxcat").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
WHOLE_GROUP = {"enumerate_group", "group_order", "length_t_bfs", "_abs_length_table"}
PER_OBJECT = {"enumerate_a", "enumerate_b", "_dyck_columns", "area_a", "maj_a", "ideals"}
ROW_STARTS = {"ideals", "ideal_maj", "ideal_des", "lift_delta", "ideal_to_dyck", "from_cycles"}
PSI_WORDS = {
    "enumerate_a", "enumerate_b", "_dyck_columns", "area_a", "area_b", "maj_a", "maj_b",
    "neg_b", "split_lower_upper", "psi_a", "psi_b",
}
CHECKED_STATS = {"length_s", "maj", "imaj", "c_sorting_word", "rev_nc"}
CHECKED_SORT = {"is_c_sortable", "c_sorting_word"}
SORTING_WORDS = {"_sorting_word", "c_sorting_word", "SortingWord"}
SPAN_SORT = {"sort", "sorted", "_span_cycles", "_read_block"}
DYCK_PASSES = {"is_dyck_a", "is_dyck_b"}
SINGLE_STATS = {"_maj", "des", "ides", "des_set", "ides_set", "neg", "inverse"}
INVERSE_WORDS = {"ideals", "enumerate_a", "enumerate_b", "phi", "psi_a", "psi_b", "_dyck_columns"}
CELL_SETS = {"_cells", "cells_a", "cells_b", "descent_set"}
# row -> (layer, functions, the names they may not use)
ONE_PASS = {
    "paths": ("paths", ("_stat_counts", "area_polynomial", "maj_polynomial"), PER_OBJECT),
    "rootposets": ("rootposets", ("cat_q",), PER_OBJECT),
    "bijmaps": ("bijmaps", ("verify_phi_theorems", "phi", "_phi_rows", "_phi_lanes"), ROW_STARTS),
    "bijmaps-psi": ("bijmaps", ("verify_psi_theorems", "_psi", "_psi_lanes"), PSI_WORDS),
    "bijmaps-checks": ("bijmaps", ("verify_phi_theorems", "verify_psi_theorems"), CHECKED_STATS),
    "bijmaps-one-stats-pass": ("bijmaps", ("verify_phi_theorems", "verify_psi_theorems"), SINGLE_STATS),
    "sortable-walk": ("sortable", ("enumerate_sortables", "_sortable_tree", "_sortable_nodes"), CHECKED_SORT | SORTING_WORDS | {"_is_sortable"}),
    "sortable-early-exit": ("sortable", ("is_c_sortable",), SORTING_WORDS),
    "d4-sortable-tree": ("noncrossing", ("d4_counterexample",), {"enumerate_sortables"}),
    "psi-sortable-tree": ("bijmaps", ("verify_psi_theorems",), {"enumerate_sortables"}),
    "nc-tree": ("noncrossing", ("_nc_tree",), {"length_t", "mul", "reflections", "enumerate_sortables"}),
    "nc-conjugation": ("noncrossing", ("nc_elements", "_conjugator"), {"length_t", "reflections"}),
    "rev-scan": ("noncrossing", ("rev_nc",), {"rev"}),
    "bijmaps-rev-scan": ("bijmaps", ("verify_phi_theorems",), {"rev"}),
    "d4-lanes": ("noncrossing", ("d4_counterexample",), {"rev", "length_s", "mul"}),
    "phi-walk": ("bijmaps", ("_phi_rows", "_phi_lanes"), SPAN_SORT),
    "psi-reader": ("bijmaps", ("psi_a", "psi_b"), DYCK_PASSES),
    "rootposets-reader": ("rootposets", ("dyck_to_ideal",), DYCK_PASSES),
    "inverse-rows": ("bijmaps", ("_inverse_rows",), INVERSE_WORDS),
    "lane-columns": ("bijmaps", ("_rank", "verify_phi_theorems", "verify_psi_theorems"), {"row_stream"}),
    "north-column-stats": ("paths", ("area_a", "area_b", "maj_a", "maj_b"), CELL_SETS),
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
    """The ``WHOLE_GROUP`` names that ``source`` defines, names, imports or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname})
    return sorted(found & WHOLE_GROUP)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_no_whole_group_code(path):
    assert whole_group_names(path.read_text()) == []


@pytest.mark.parametrize(
    "source,names",
    [
        ("from .signedperm import enumerate_group as eg\n", ["enumerate_group"]),
        ("signedperm.length_t_bfs(w, 'D')\n", ["length_t_bfs"]),
        ("table = _abs_length_table\n", ["_abs_length_table"]),
        ('"""Listed in ``enumerate_group`` order."""\n', []),
        ("def group_order(family, n):\n    return math.factorial(n)\n", ["group_order"]),
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
        ("def maj_polynomial(f, n):\n    return sum(1 for w in words if _dyck_columns(w, f))\n", ["_dyck_columns"]),
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
        ("def verify_phi_theorems(t):\n    return paths._row_columns(t.family, t.n)\n", []),
    ],
)
def test_row_start_scan(source, names):
    assert per_object_names(source, ("phi", "verify_phi_theorems"), ROW_STARTS)[0] == names


@pytest.mark.parametrize(
    "source,names",
    [
        ("def verify_psi_theorems(t):\n    for w in paths.enumerate_b(t.n):\n        psi_b(w)\n", ["enumerate_b", "psi_b"]),
        ("def _psi(word, family):\n    x = paths._dyck_columns(word, family)\n", ["_dyck_columns"]),
        ("def verify_psi_theorems(t):\n    lower, _ = paths.split_lower_upper(w)\n    return paths.neg_b(w), area_b(w)\n", ["area_b", "neg_b", "split_lower_upper"]),
        ("def verify_psi_theorems(t):\n    return maj_a(w) if t.family == 'A' else bijmaps.psi_a(lower)\n", ["maj_a", "psi_a"]),
        ("def verify_psi_theorems(t):\n    return _psi(x[:n], n, 'A'), paths._word_of_rows(t.family, t.n, x)\n", []),
        ("def psi_a(word):\n    return _psi(paths._row_columns('A', n), paths._caps('A', n), 'A')\n", []),
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
        ("def verify_psi_theorems(t):\n    check_perm(s, f)\n    return length_t(s), _maj(s, f), maj_word(w), _sorting_word(s, c, f)\n", []),
        ("def length_s(p, f):\n    return length_t(p), maj_word(p)\n", []),
    ],
)
def test_unchecked_stats_scan(source, names):
    assert per_object_names(source, ("verify_phi_theorems", "verify_psi_theorems"), CHECKED_STATS)[0] == names


@pytest.mark.parametrize(
    "source,names",
    [
        ("def verify_phi_theorems(t):\n    return length_t(s), _maj(s, f) + maj_word(w)\n", ["_maj"]),
        ("def verify_phi_theorems(t):\n    return signedperm.des(s) == signedperm.ides(s)\n", ["des", "ides"]),
        ("def verify_psi_theorems(t):\n    return des_set(s), ides_set(s1), neg(s), inverse(s)\n", ["des_set", "ides_set", "inverse", "neg"]),
        ("def verify_psi_theorems(t):\n    length, s_maj, s_imaj, dmask, imask, negs = _lane_stats(lanes, cols, f)\n", []),
    ],
)
def test_one_stats_pass_scan(source, names):
    assert per_object_names(source, ("verify_phi_theorems", "verify_psi_theorems"), SINGLE_STATS)[0] == names


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
        ("def psi_a(word):\n    assert oracles.is_dyck_a(word)\n    return _psi(paths._dyck_columns(word, 'A'), len(word) // 2, 'A')\n", ["is_dyck_a"]),
        ("def dyck_to_ideal(t, word):\n    return _ideal_of_rows(t, _dyck_columns(word, t.family)) if is_dyck_b(word) else None\n", ["is_dyck_b"]),
        ("def psi_b(word):\n    return _psi(paths._dyck_columns(word, 'B'), len(word) // 2, 'B')\n", []),
    ],
)
def test_dyck_reader_scan(source, names):
    assert per_object_names(source, ("psi_a", "psi_b", "dyck_to_ideal"), DYCK_PASSES)[0] == names


@pytest.mark.parametrize(
    "source,names",
    [
        ("def _inverse_rows(t, via):\n    return {phi(t, i): i for i in rootposets.ideals(t)}\n", ["ideals", "phi"]),
        ("def _inverse_rows(t, via):\n    return {psi_b(w)[0]: paths._dyck_columns(w, 'B') for w in enumerate_b(t.n)}\n", ["_dyck_columns", "enumerate_b", "psi_b"]),
        ("def _inverse_rows(t, via):\n    if via == 'phi':\n        return {_phi_rows(t, x): x for x in rows}\n", []),
    ],
)
def test_inverse_rows_scan(source, names):
    assert per_object_names(source, ("_inverse_rows",), INVERSE_WORDS)[0] == names


@pytest.mark.parametrize(
    "source,names",
    [
        ("def area_a(word):\n    return len(cells_a(word))\n", ["cells_a"]),
        ("def maj_b(word):\n    return 2 * sum(len(word) - i for i in descent_set(word))\n", ["descent_set"]),
        ("def area_b(word):\n    return len(_cells(word, 'B'))\n", ["_cells"]),
        ("def maj_a(word):\n    return _descent_weight(_dyck_columns(word, 'A'), len(word))\n", []),
    ],
)
def test_north_column_scan(source, names):
    assert per_object_names(source, ("area_a", "area_b", "maj_a", "maj_b"), CELL_SETS)[0] == names


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


def guard_sites(sources: dict[str, str]) -> list[str]:
    """The ``check_guard`` calls outside ``cli``, as ``module: check_guard``, and
    the functions but ``qseries.check_guard`` that take ``unsafe``, as ``module.name``."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and module != "cli":
                func = node.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "check_guard":
                    found.append(f"{module}: check_guard")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (module, node.name) != ("qseries", "check_guard"):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(arg.arg == "unsafe" for arg in params):
                    found.append(f"{module}.{node.name}")
    return sorted(found)


def test_guards_only_at_the_cli():
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "coxcat").glob("*.py")}
    assert guard_sites(sources) == []


@pytest.mark.parametrize(
    "sources,found",
    [
        ({"cli": "def f(args):\n    check_guard('path', 'A', 3, args.unsafe)\n"}, []),
        ({"qseries": "def check_guard(kind, family, size, unsafe=False):\n    pass\n"}, []),
        ({"paths": "def area_polynomial(f, n):\n    qseries.check_guard('path', f, n)\n"}, ["paths: check_guard"]),
        ({"rootposets": "class P:\n    def ideals(self, *, unsafe=False):\n        pass\n"}, ["rootposets.ideals"]),
        ({"cli": "def cmd(args, unsafe):\n    pass\n"}, ["cli.cmd"]),
        ({"sortable": '"""Guarded by ``check_guard`` in the CLI."""\n'}, []),
    ],
)
def test_guard_site_scan(sources, found):
    assert guard_sites(sources) == found


def defined_names(sources: list[str]) -> set[str]:
    """The names that a function, class or assignment in ``sources`` defines, methods included."""
    defined = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    return defined


def undefined_private_names(readme: str, sources: list[str]) -> list[str]:
    """The backticked ``_name``s of ``readme`` that no function, class or assignment in ``sources`` defines."""
    return sorted(set(re.findall(r"`(?:[\w.]+\.)?(_\w+)`", readme)) - defined_names(sources))


def test_readme_names_only_defined_private_names():
    readme = (ROOT / "README.md").read_text()
    assert undefined_private_names(readme, [path.read_text() for path in MODULES]) == []


@pytest.mark.parametrize(
    "readme,sources,undefined",
    [
        ("the kernel `_qcat` and `qcat_a`", ["def _qcat():\n    pass\n"], []),
        ("the private `_stats` reads", ["def stats():\n    pass\n"], ["_stats"]),
        ("`bijmaps._rank` and `_TABLE`", ["_TABLE = {}\n\nclass C:\n    def _rank(self):\n        pass\n"], []),
        ("`paths._gone`, ``_x`` and `_a.b`", ["x = 1\n"], ["_gone", "_x"]),
    ],
)
def test_private_name_scan(readme, sources, undefined):
    assert undefined_private_names(readme, sources) == undefined


def undefined_banned_names(bans, sources: list[str]) -> list[str]:
    """The names in the sets ``bans`` that ``sources`` do not define and
    that are neither builtins nor ``list`` methods: bans that check nothing."""
    return sorted(set().union(*bans) - defined_names(sources) - set(dir(builtins)) - set(dir(list)))


def test_every_banned_name_is_defined():
    bans = [WHOLE_GROUP, *(forbidden for _, _, forbidden in ONE_PASS.values())]
    assert undefined_banned_names(bans, [path.read_text() for path in MODULES]) == []


@pytest.mark.parametrize(
    "bans,sources,undefined",
    [
        ([{"f", "_gone"}, {"sorted", "sort"}], ["def f():\n    pass\n"], ["_gone"]),
        ([{"X", "m", "C"}], ["X = 1\n\nclass C:\n    def m(self):\n        pass\n"], []),
        ([{"g"}], ['"""Names ``g``."""\n\ng()\n'], ["g"]),
    ],
)
def test_banned_name_scan(bans, sources, undefined):
    assert undefined_banned_names(bans, sources) == undefined


SIZE_RULE = "must be >= 0 and an int"


def size_rule_sites(sources: dict[str, str]) -> list[str]:
    """The functions but ``qseries._size``, as ``module.name``, with a ``raise`` whose text holds ``SIZE_RULE``."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (module, node.name) != ("qseries", "_size"):
                for child in ast.walk(node):
                    if isinstance(child, ast.Raise) and any(
                        isinstance(part, ast.Constant) and SIZE_RULE in str(part.value) for part in ast.walk(child)
                    ):
                        found.add(f"{module}.{node.name}")
    return sorted(found)


def test_size_rule_has_one_owner():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert size_rule_sites(sources) == []


@pytest.mark.parametrize(
    "sources,found",
    [
        (
            {"qseries": "def _size(value, name='n'):\n    if type(value) is int and value >= 0:\n        return value\n"
             "    raise ValueError(f'{name} must be >= 0 and an int, got {value!r}')\n"},
            [],
        ),
        (
            {"paths": "def _enumerate(n, scale):\n    if type(n) is not int or n < 0:\n"
             "        raise ValueError(f'n must be >= 0 and an int, got {n!r}')\n"},
            ["paths._enumerate"],
        ),
        ({"signedperm": "def _size(n):\n    raise ValueError('n must be >= 0 and an int')\n"}, ["signedperm._size"]),
        ({"qseries": "def gen_poly(values):\n    raise ValueError('values must be >= 0')\n"}, []),
        ({"qseries": '"""Sizes must be >= 0 and an int."""\n\ndef q_integer(k):\n    return _size(k, "k")\n'}, []),
    ],
)
def test_size_rule_scan(sources, found):
    assert size_rule_sites(sources) == found


def library_attributes(source: str) -> list[tuple[str, ...]]:
    """Each attribute chain that ``source`` takes from ``lib["<module>"]``, directly or
    through a name a function binds to it, as (module, name, ...): a chain's prefixes too."""

    def module_of(node):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "lib":
            return node.slice.value if isinstance(node.slice, ast.Constant) else None
        return None

    chains = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    tuples = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    for name, value in zip(target.elts, node.value.elts) if tuples else [(target, node.value)]:
                        if isinstance(name, ast.Name) and module_of(value):
                            aliases[name.id] = module_of(value)
        for node in ast.walk(func):
            names, base = [], node
            while isinstance(base, ast.Attribute):
                names.append(base.attr)
                base = base.value
            module = module_of(base) or (aliases.get(base.id) if isinstance(base, ast.Name) else None)
            if names and module:
                chains.add((module, *reversed(names)))
    return sorted(chains)


def test_benchmark_calls_only_package_names():
    chains = library_attributes((ROOT / "perfbench" / "run.py").read_text())
    assert ("qseries", "QPoly", "from_json") in chains and ("cli", "main") in chains
    missing = []
    for module, *names in chains:
        obj = importlib.import_module("coxcat" if module == "coxcat" else f"coxcat.{module}")
        for name in names:
            obj = getattr(obj, name, missing)
        if obj is missing:
            missing.append(".".join([module, *names]))
    assert missing == []


@pytest.mark.parametrize(
    "source,chains",
    [
        ("def f(lib):\n    return lib['cli'].main(argv)\n", [("cli", "main")]),
        (
            "def f(lib):\n    q, p = lib['qseries'], lib['paths']\n    return q.QPoly.from_json(x), p.area_a\n",
            [("paths", "area_a"), ("qseries", "QPoly"), ("qseries", "QPoly", "from_json")],
        ),
        ("def f(lib):\n    q = lib['qseries']\n    return q.qcat_a(3).coeffs\n", [("qseries", "qcat_a")]),
        ("def f(lib):\n    return lib[name].x\n\ndef g(q):\n    return q.y\n", []),
    ],
)
def test_library_attribute_scan(source, chains):
    assert library_attributes(source) == chains
