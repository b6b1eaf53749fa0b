"""Pinned stdout of ``coxcat enumerate --format csv`` and ``coxcat poly``.

Every object, type and statistic at n = 3 and 4 is run in-process and its
exit code and stdout are compared with ``data/cli_golden.json``.  Run this
file as a script to record that file afresh from the current code:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from coxcat.cli import _OBJECTS, _STATS, main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def commands():
    for n in (3, 4):
        for family in ("A", "B", "D"):
            for obj in _OBJECTS:
                base = ["--object", obj, "--type", family, "--n", str(n)]
                yield ["enumerate", *base, "--format", "csv"]
                for stat in _STATS:
                    yield ["poly", *base, "--stat", stat]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue()}


def key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(key(argv) for argv in commands())


@pytest.mark.parametrize("argv", list(commands()), ids=key)
def test_output_matches_golden(golden, argv):
    assert run(argv) == golden[key(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key(argv): run(argv) for argv in commands()}, indent=1, sort_keys=True) + "\n")
