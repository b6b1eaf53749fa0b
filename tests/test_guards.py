"""Every row of the size-guard table, past its limit, from the library and the CLI."""

import pytest

from coxcat import paths, rootposets, sortable
from coxcat.cli import main
from coxcat.qseries import SIZE_GUARDS, GroupType, SizeGuardError, cat_number, check_guard

ROWS = [(kind, family) for kind, limits in SIZE_GUARDS.items() for family in limits]


def test_limits_are_pinned():
    assert SIZE_GUARDS == {
        "path": {"A": 12, "B": 8},
        "ideal": {"A": 9, "B": 6, "D": 5},
        "non-crossing": {"A": 9, "B": 6, "D": 5},
        "sortable": {"A": 8, "B": 5, "D": 4},
    }


def library_call(kind, family, size):
    """The library entry point that enumerates objects of ``kind`` at ``size``."""
    if kind == "path":
        return lambda: paths.area_polynomial(family, size)
    t = GroupType(family, size)
    if kind == "ideal":
        return lambda: rootposets.ideals(t)
    if kind == "sortable":
        return lambda: sortable.enumerate_sortables(t)
    # nc_elements has no guard of its own; its CLI call site checks the table
    return lambda: check_guard(kind, family, size)


def cli_argv(kind, family, size):
    """``coxcat enumerate`` at the given n (paths) or rank (the others)."""
    obj = {"path": "dyck", "ideal": "ideal", "non-crossing": "nc", "sortable": "sortable"}[kind]
    n = size if kind == "path" or family != "A" else size + 1
    return ["enumerate", "--object", obj, "--type", family, "--n", str(n)]


@pytest.mark.parametrize("kind,family", ROWS)
def test_library_refuses_past_limit(kind, family):
    limit = SIZE_GUARDS[kind][family]
    with pytest.raises(SizeGuardError, match=f"{kind} enumeration guarded at .*{limit} for type {family}"):
        library_call(kind, family, limit + 1)()


@pytest.mark.parametrize("kind,family", ROWS)
def test_cli_exits_2_past_limit(capsys, kind, family):
    limit = SIZE_GUARDS[kind][family]
    assert main(cli_argv(kind, family, limit + 1)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{kind} enumeration guarded" in captured.err


def test_unsafe_overrides(capsys):
    t = GroupType("D", 5)
    assert len(sortable.enumerate_sortables(t, unsafe=True)) == cat_number(t)
    assert main(["poly", "--object", "sortable", "--type", "D", "--n", "5", "--stat", "ls", "--unsafe"]) == 0
    assert capsys.readouterr().out.strip().startswith("1 + 5q + ")


def test_family_without_row():
    with pytest.raises(ValueError, match="no paths of type 'D'"):
        check_guard("path", "D", 3)
