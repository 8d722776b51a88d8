"""The golden stdout corpus: a fast subset of goldens/commands.txt, run as
CLI processes under the settings columns, prints the pinned bytes.  The full
corpus runs with `python3 goldens/check.py`."""

import importlib.util
from pathlib import Path

import pytest

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"

# a few seconds in all: the smaller jobs of the corpus, one per subcommand
# form that the benchmark runs, plus the obstructed and JSON estimates
FAST = [
    "count --n 8000000 --q 3 --a 1",
    "compare --n 3000000 --q-max 12",
    "estimate --n 20000 --q1 12 --q2 3",
    "estimate --n 1001 --qprime 4 --aprime 1",
    "estimate --n 100000 --n 200000 --qprime 7 --aprime 3 --format json",
]


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location("golden_check", GOLDENS / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_is_pinned(check):
    commands = check.load_commands()
    assert len(commands) == len(set(commands))
    assert set(check.load_golden()) == set(commands)
    assert set(FAST) <= set(commands)


def test_fast_subset_prints_the_pinned_bytes(check):
    cells = [
        (command, column)
        for command in FAST
        for column in check.columns_for(command)
        if column != "x86-v4-off" or command == FAST[0]
    ]
    assert check.check(check.load_golden(), cells) == []
