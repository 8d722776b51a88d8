"""Golden stdout corpus: every command in commands.txt must print the bytes
pinned in sha256.txt, under every column of a settings matrix.

    python3 goldens/check.py            # check every cell
    python3 goldens/check.py --update   # re-pin sha256.txt, then check

Each command runs as `python -W error -m sqfrep.cli <command>` from the
source tree next to this directory, so a warning (a numpy RuntimeWarning
among them) fails its cell, as it fails the tests.  The columns are the
default settings, the 8 KiB window cap, `--threads 2` (count and compare
only) and numpy with its AVX-512 group masked
(NPY_DISABLE_CPU_FEATURES=X86_V4).  A cell passes when its stdout SHA-256
and exit code equal the pinned ones.  --update pins the default column and
then checks the others against it.  A change that alters output on purpose
re-pins with --update and says so in CHANGES.md.

Stdlib only.  Exit code 0 when every cell passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMANDS = HERE / "commands.txt"
GOLDEN = HERE / "sha256.txt"

# column name -> (extra environment, extra arguments)
COLUMNS = {
    "default": ({}, ()),
    "cap-8KiB": ({"SQFREP_MAX_WINDOW_BYTES": "8192"}, ()),
    "threads-2": ({}, ("--threads", "2")),
    "x86-v4-off": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4"}, ()),
}
# the subcommands that take --threads
THREADED = ("count", "compare")
# two cells at a time: each is one single-threaded process, or two threads
WORKERS = 2
# the slowest cell, `verify all`, takes 3-5 s; a hung one fails the check
CELL_TIMEOUT_S = 300


def load_commands() -> list[str]:
    lines = COMMANDS.read_text().splitlines()
    return [line.strip() for line in lines if line.strip() and not line.startswith("#")]


def load_golden() -> dict[str, tuple[str, int]]:
    """command -> (stdout SHA-256, exit code)."""
    golden = {}
    for line in GOLDEN.read_text().splitlines():
        digest, code, command = line.split(" ", 2)
        golden[command] = (digest, int(code))
    return golden


def columns_for(command: str) -> list[str]:
    return [c for c in COLUMNS if c != "threads-2" or command.split()[0] in THREADED]


def run_cell(command: str, column: str) -> tuple[str, int]:
    """(stdout SHA-256, exit code) of one command under one column."""
    extra_env, extra_args = COLUMNS[column]
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("SQFREP_MAX_WINDOW_BYTES", "NPY_DISABLE_CPU_FEATURES")
    }
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sqfrep.cli", *command.split(),
         *extra_args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=CELL_TIMEOUT_S,
    )
    return hashlib.sha256(proc.stdout).hexdigest(), proc.returncode


def check(golden: dict, cells: list[tuple[str, str]]) -> list[str]:
    """The cells whose output differs from the golden one, as report lines."""
    with ThreadPoolExecutor(max_workers=WORKERS) as ex:
        results = list(ex.map(lambda cell: run_cell(*cell), cells))
    return [
        f"{column}: {command}: got {got[0][:12]} exit {got[1]}, "
        f"want {golden[command][0][:12]} exit {golden[command][1]}"
        for (command, column), got in zip(cells, results)
        if got != golden[command]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="re-pin sha256.txt from the default column first")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    commands = load_commands()
    if args.update:
        with ThreadPoolExecutor(max_workers=WORKERS) as ex:
            pinned = list(ex.map(lambda c: run_cell(c, "default"), commands))
        GOLDEN.write_text(
            "".join(f"{d} {code} {c}\n" for c, (d, code) in zip(commands, pinned))
        )
    golden = load_golden()
    missing = [c for c in commands if c not in golden]
    if missing:
        print("not pinned (run --update):", *missing, sep="\n  ")
        return 1
    cells = [
        (c, col)
        for c in commands
        for col in columns_for(c)
        if not (args.update and col == "default")
    ]
    bad = check(golden, cells)
    for line in bad:
        print(line)
    print(
        f"{len(cells) - len(bad)} of {len(cells)} cells match "
        f"({time.perf_counter() - started:.1f} s)"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
