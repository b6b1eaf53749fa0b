"""The checks past the guards that take seconds each: psi at A12, the path
polynomials at the A12 and B8 path guards against the per-word
statistics, and the sortable tree past its guards.

The file's name does not match ``test_*.py``, so the default collection
leaves it out of the tier-1 suite; run it by path:

    python -m pytest -q tests/heavy_checks.py
"""

import json
from collections import Counter

import pytest

from coxcat import bijmaps
from coxcat.qseries import GroupType
from test_past_guards import run


def test_psi_at_a12_past_the_verify_guard():
    report = bijmaps.verify_psi_theorems(GroupType("A", 12))
    assert report["checked"] == 742900 and report["failures"] == [], report


@pytest.mark.parametrize("family,n", [("A", "12"), ("B", "8")])
def test_path_polynomials_match_the_per_word_statistics(capsys, family, n):
    # the csv columns are word, area, maj; the polynomials come from the prefix-tree fold
    rows = [line.split(",") for line in run(capsys, ["enumerate", "--object", "dyck", "--format", "csv", "--type", family, "--n", n])]
    assert rows
    for column, stat in ((1, "area"), (2, "maj")):
        (line,) = run(capsys, ["poly", "--object", "dyck", "--stat", stat, "--type", family, "--n", n, "--format", "json"])
        coeffs = json.loads(line)["coeffs"]
        assert Counter(int(row[column]) for row in rows) == {d: c for d, c in enumerate(coeffs) if c}


@pytest.mark.parametrize("family,n,count", [("A", "11", 58786), ("B", "8", 12870), ("D", "7", 2508)])
def test_sortable_tree_past_the_guards(capsys, family, n, count):
    argv = ["enumerate", "--object", "sortable", "--format", "csv", "--type", family, "--n", n, "--unsafe"]
    assert len(run(capsys, argv)) == count
