"""The golden stdout corpus: a fast subset of goldens/commands.txt, run as
CLI processes under the settings columns, prints the pinned bytes.  The full
corpus runs with `python3 goldens/check.py`."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "goldens"

# a few seconds in all: the smaller jobs of the corpus, one per subcommand
# form that the benchmark runs, plus the obstructed and JSON estimates
FAST = [
    "count --n 8000000 --q 3 --a 1",
    "compare --n 3000000 --q-max 12",
    "estimate --n 20000 --q1 12 --q2 3",
    "estimate --n 1001 --qprime 4 --aprime 1",
    "estimate --n 100000 --n 200000 --qprime 7 --aprime 3 --format json",
]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check():
    return _load("golden_check", GOLDENS / "check.py")


def test_every_command_is_pinned(check):
    commands = check.load_commands()
    assert len(commands) == len(set(commands))
    assert set(check.load_golden()) == set(commands)
    assert set(FAST) <= set(commands)


def test_corpus_covers_every_benchmark_job(check):
    # as the corpus's header promises: each job without --threads (a column
    # of the matrix, as the window cap of count-capped is) and with --seed 0
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    wanted = set()
    for job in workloads.all_jobs("counting") + workloads.all_jobs("exact"):
        argv = list(job.argv)
        if "--threads" in argv:
            del argv[argv.index("--threads") : argv.index("--threads") + 2]
        if "--seed" in argv:
            argv[argv.index("--seed") + 1] = "0"
        wanted.add(" ".join(argv))
    assert wanted - set(check.load_commands()) == set()


def test_fast_subset_prints_the_pinned_bytes(check):
    cells = [
        (command, column)
        for command in FAST
        for column in check.columns_for(command)
        if column != "x86-v4-off" or command == FAST[0]
    ]
    assert check.check(check.load_golden(), cells) == []
