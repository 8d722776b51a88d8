"""Start-up: `import sqfrep` is lazy, the CLI defaults OpenBLAS to one
thread before numpy loads, and the program entry, not main, freezes the
start-up heap.  Each check of a fresh start runs in a fresh interpreter."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqfrep

SRC = str(Path(sqfrep.__file__).resolve().parent.parent)


def _fresh(code: str, **env_overrides) -> dict:
    """Run code in a fresh interpreter that imports sqfrep from this tree;
    the code prints one JSON value, which is returned."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    env.update(env_overrides)
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


class TestLazyPackage:
    def test_import_loads_no_submodule_and_no_numpy(self):
        loaded = _fresh(
            "import sys, json, sqfrep; print(json.dumps(sorted("
            "m for m in sys.modules if m == 'numpy' or m.startswith('sqfrep'))))"
        )
        assert loaded == ["sqfrep"]

    def test_every_public_name_resolves_to_its_home(self):
        assert set(sqfrep.__all__) == {*sqfrep._HOMES, "__version__"}
        strays = _fresh(
            "import importlib, json, sqfrep; print(json.dumps([n for n, m in "
            "sqfrep._HOMES.items() if getattr(sqfrep, n) is not "
            "getattr(importlib.import_module('sqfrep.' + m), n)]))"
        )
        assert strays == []

    def test_from_import_of_names_and_submodules(self):
        from sqfrep import cli, count_representations
        from sqfrep.counting import count_representations as home

        assert count_representations is home
        assert cli.main is sys.modules["sqfrep.cli"].main

    def test_dir_lists_every_public_name(self):
        assert set(sqfrep.__all__) <= set(dir(sqfrep))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            sqfrep.no_such_name  # noqa: B018


# every subcommand, at small bounds
SUBCOMMAND_ARGVS = [
    ["verify", "all", "--q-max", "5", "--qprime", "2", "--q1", "2", "--q2", "1",
     "--n", "100"],
    ["sieve-selftest"],
    ["estimate", "--n", "1000"],
    ["count", "--n", "1000"],
    ["compare", "--n", "1000"],
    ["series", "--n", "1000"],
]


class TestLazyVerify:
    def test_cli_import_loads_no_suite(self):
        # importing statistics costs every subcommand about 3.4 ms
        loaded = _fresh(
            "import sys, json, sqfrep.cli; print(json.dumps(sorted(m for m in "
            "('sqfrep.verify', 'sqfrep.oracle', 'statistics') if m in sys.modules)))"
        )
        assert loaded == []

    def test_no_subcommand_loads_numpy_random(self):
        # seeds drive arith.Draws: numpy.random would add about 6 MB of peak
        # RSS and 9 ms to every process that loads it
        loaded = _fresh(
            "import contextlib, io, json, sys; from sqfrep.cli import main\n"
            "codes = []\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    for argv in {SUBCOMMAND_ARGVS!r}:\n"
            "        codes.append(main(argv))\n"
            "print(json.dumps([codes, 'numpy.random' in sys.modules]))"
        )
        assert loaded == [[0] * len(SUBCOMMAND_ARGVS), False]

    def test_suites_and_seed_match_verify(self):
        from sqfrep import cli, verify

        assert list(cli.SUITES) == list(verify.SUITES)
        assert cli.DEFAULT_SEED == verify.DEFAULT_SEED


BLAS_PROBE = (
    "import json, os; {before}import sqfrep.cli; "
    "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
)


class TestBlasDefault:
    def test_cli_sets_one_thread(self):
        assert _fresh(BLAS_PROBE.format(before="")) == "1"

    def test_user_value_wins(self):
        assert _fresh(BLAS_PROBE.format(before=""), OPENBLAS_NUM_THREADS="3") == "3"

    def test_untouched_when_numpy_came_first(self):
        assert _fresh(BLAS_PROBE.format(before="import numpy; ")) is None

    def test_package_import_leaves_it_unset(self):
        assert _fresh(BLAS_PROBE.replace("sqfrep.cli", "sqfrep").format(before="")) is None


COUNT_ARGV = ["count", "--n", "100000", "--q", "7", "--a", "3"]


class TestFrozenStartup:
    def test_entry_freezes_before_main(self):
        frozen = _fresh(
            "import gc, json, sqfrep.cli as cli; "
            "cli.main = gc.get_freeze_count; print(json.dumps(cli.entry()))"
        )
        assert frozen > 0

    def test_main_never_freezes(self, capsys):
        from sqfrep import cli

        before = gc.get_freeze_count()
        assert cli.main(COUNT_ARGV) == 0
        assert gc.get_freeze_count() == before

    def test_module_run_prints_the_in_process_bytes(self, capsys):
        from sqfrep import cli

        assert cli.main(COUNT_ARGV) == 0
        want = capsys.readouterr().out
        env = {k: v for k, v in os.environ.items() if k != "SQFREP_MAX_WINDOW_BYTES"}
        env["PYTHONPATH"] = SRC
        res = subprocess.run(
            [sys.executable, "-m", "sqfrep.cli", *COUNT_ARGV],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == want
