"""The CLI at its size guards: the verifiers at the verify guard with the
scans a clean run must not reach refused, the deepest guarded sweep, the
enumerations at their guards and type D's [1, c] past them, and phi's
inverse at the ideal guard; and ``oracles.refuse`` itself.

The checks past the guards that take seconds each are in
``heavy_checks.py``, which the default ``test_*.py`` collection leaves out.
"""

import io
import json

import pytest

from coxcat.cli import main
from oracles import refuse


def run(capsys, argv) -> list[str]:
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "which,n,refused,checked",
    [
        ("phiA", "11", "_nc_scan", 58786),
        ("phiB", "8", "_nc_scan", 12870),
        ("psiA", "11", "_sortable_tree", 58786),
        ("psiB", "8", "_sortable_tree", 12870),
    ],
)
def test_verifiers_at_the_guard_reach_no_target(capsys, monkeypatch, which, n, refused, checked):
    # distinct images in [1, c] (phi) or with sorting words (psi) that number Cat(W)
    # are all of the target, so a clean run neither scans [1, c] nor walks Sort(W, c)
    refuse(monkeypatch, refused)
    (report,) = map(json.loads, run(capsys, ["verify", "--which", which, "--n", n]))
    assert report["checked"] == checked and report["failures"] == []


def test_deepest_guarded_sweep(capsys):
    reports = [json.loads(line) for line in run(capsys, ["verify", "--all", "--max-n", "8"])]
    assert ("phiB", 8) in [(r["identity"], r["rank"]) for r in reports]
    assert all(r["failures"] == [] for r in reports)


@pytest.mark.parametrize(
    "argv,count",
    [
        ("partition --type A --n 10", 16796),
        ("partition --type B --n 6", 924),
        ("sortable --format csv --type A --n 9", 4862),
        ("sortable --format csv --type B --n 5", 252),
        ("sortable --format csv --type D --n 4", 50),
        ("nc --type D --n 7 --unsafe", 2508),
    ],
)
def test_enumeration_at_the_guard(capsys, argv, count):
    lines = run(capsys, ["enumerate", "--object", *argv.split()])
    assert len(set(lines)) == len(lines) == count


def test_phi_round_trip_at_the_ideal_guard(capsys, monkeypatch):
    ideal = '{"roots":["e1","e1+e2","e2","e2-e1","e3","e3-e1","e3-e2","e5-e4","e6-e4","e6-e5"]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(ideal + "\n"))
    (line,) = run(capsys, ["map", "--via", "phiB", "--n", "6"])
    monkeypatch.setattr("sys.stdin", io.StringIO(line.split()[0] + "\n"))
    (line,) = run(capsys, ["map", "--via", "phiB", "--n", "6", "--inverse"])
    assert line.split()[0] == ideal


def test_refuse_needs_a_binding(monkeypatch):
    with pytest.raises(AssertionError, match="no coxcat module binds no_such_function"):
        refuse(monkeypatch, "no_such_function")


def test_refuse_reaches_a_from_import_binding(capsys, monkeypatch):
    # the D4 report walks the sortable tree through noncrossing's own
    # ``from .sortable import`` binding, which patching sortable alone would miss
    refuse(monkeypatch, "_sortable_tree")
    with pytest.raises(AssertionError, match="refused call to _sortable_tree"):
        main(["verify", "--which", "d4"])
