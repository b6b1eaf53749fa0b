"""Every row of the size-guard table, one step past its limit: the CLI
refuses it and the library, which sets no limit, answers it.  The verify
row is answered by the verifiers' pass over the paths, which would take
seconds to verify one step past the limit."""

import pytest

from coxcat import noncrossing, paths, rootposets, sortable
from coxcat.cli import main
from coxcat.qseries import SIZE_GUARDS, GroupType, cat_number, check_guard
from oracles import row_stream

ROWS = [(kind, family) for kind, limits in SIZE_GUARDS.items() for family in limits]


def test_limits_are_pinned():
    assert SIZE_GUARDS == {
        "path": {"A": 12, "B": 8},
        "ideal": {"A": 9, "B": 6, "D": 5},
        "ideal mask": {"D": 9},
        "non-crossing": {"A": 9, "B": 6, "D": 5},
        "sortable": {"A": 8, "B": 5, "D": 4},
        "verify": {"A": 10, "B": 8},
    }


def library_count(kind, family, size):
    """How many objects of ``kind`` at ``size`` the library finds: paths by
    their area polynomial, type-A ideals and ideal masks by ``cat_q``
    (enumerating A10's ideals takes seconds), the verifiers' paths by the
    oracle's depth-first pass over the paths, the rest by enumeration."""
    if kind == "path":
        return paths.area_polynomial(family, size)(1)
    t = GroupType(family, size)
    if kind == "verify":
        return len(row_stream(family, t.n))
    if kind == "ideal mask":
        return rootposets.cat_q(t)(1)
    if kind == "ideal":
        return rootposets.cat_q(t)(1) if family == "A" else len(rootposets.ideals(t))
    if kind == "sortable":
        return len(sortable.enumerate_sortables(t))
    return len(noncrossing.nc_elements(t))


def cli_argv(kind, family, size):
    """The command the row guards at the given n (paths) or rank (the others):
    ``coxcat verify``, ``poly`` of the ideal area, or ``enumerate``."""
    n = size if kind == "path" or family != "A" else size + 1
    if kind == "verify":
        return ["verify", "--which", f"psi{family}", "--n", str(n)]
    if kind == "ideal mask":
        return ["poly", "--object", "ideal", "--stat", "area", "--type", family, "--n", str(n)]
    obj = {"path": "dyck", "ideal": "ideal", "non-crossing": "nc", "sortable": "sortable"}[kind]
    return ["enumerate", "--object", obj, "--type", family, "--n", str(n)]


@pytest.mark.parametrize("kind,family", ROWS)
def test_library_answers_past_limit(kind, family):
    size = SIZE_GUARDS[kind][family] + 1
    rank = size - 1 if kind == "path" and family == "A" else size
    assert library_count(kind, family, size) == cat_number(GroupType(family, rank))


@pytest.mark.parametrize("kind,family", ROWS)
def test_cli_exits_2_past_limit(capsys, kind, family):
    limit = SIZE_GUARDS[kind][family]
    assert main(cli_argv(kind, family, limit + 1)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{kind} enumeration guarded" in captured.err


def test_unsafe_overrides(capsys):
    assert main(["poly", "--object", "sortable", "--type", "D", "--n", "5", "--stat", "ls", "--unsafe"]) == 0
    assert capsys.readouterr().out.strip().startswith("1 + 5q + ")


def test_family_without_row():
    with pytest.raises(ValueError, match="no paths of type 'D'"):
        check_guard("path", "D", 3)
