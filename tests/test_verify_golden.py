"""Pinned stdout of ``coxcat verify`` and ``coxcat selftest``.

``verify --all``, ``verify --all --max-n 8``, ``verify --which d4`` and
``selftest`` are run in-process, as ``test_cli_golden.py`` runs its
commands, and their exit code and stdout are compared with
``data/verify_golden.json``.  The reports hold no timings,
so the output is deterministic; a report that gains one must drop it
here before comparing.  Run this file as a script to record that file
afresh from the current code:

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import json
from pathlib import Path

import pytest

from test_cli_golden import key, run

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"

COMMANDS = (
    ["verify", "--all"],
    ["verify", "--all", "--max-n", "8"],
    ["verify", "--which", "d4"],
    ["selftest"],
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(map(key, COMMANDS))


@pytest.mark.parametrize("argv", COMMANDS, ids=key)
def test_output_matches_golden(golden, argv):
    assert run(argv) == golden[key(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key(argv): run(argv) for argv in COMMANDS}, indent=1, sort_keys=True) + "\n")
