"""Runtime census: while the CLI runs every subcommand at small sizes,
package code reads every field of every sqfrep dataclass, and every `def`
of the package source runs.

The static guard in test_dead_code.py matches attribute names across the
whole package, so a field passes it unread whenever another class has a
field or property of the same name (a result's `target` against
`ctx.target`).  Here each dataclass's `__getattribute__` is wrapped, and a
read counts for its own class only, and only from a frame of package code.
Reads made by `__post_init__` (a field checked but never used) and by the
methods that `dataclass` generates (`__eq__`, `__hash__`, `__repr__`) do
not count.

In the same runs a profile hook, on the main thread and on every scan
worker, records each code object that starts.  A `def` (a function, method
or nested function; lambdas and comprehensions are not counted) that none
of the runs starts must be listed in FUNCTION_ALLOWED with its reason.  The
package's functools caches are emptied first, so a `def` that runs only on
a cache miss is seen too."""

import ast
import contextlib
import dataclasses
import importlib
import io
import os
import pkgutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sqfrep
from sqfrep import oracle
from sqfrep.cli import EXIT_OK, EXIT_VERIFY, main

PACKAGE = os.path.dirname(sqfrep.__file__) + os.sep

# Fields that the runs below leave unread, with the reason.
CENSUS_ALLOWED: dict[str, str] = {}

# Defs that the runs below never start, with the reason.
FUNCTION_ALLOWED = {
    "sqfrep.__getattr__": "PEP 562 lazy name; the test modules resolve every "
    "name at import, before the runs",
    "sqfrep.__dir__": "PEP 562 lazy names, for dir(sqfrep)",
    "cli.entry": "the process entry of `python -m sqfrep.cli`; the runs call main",
    "cli._suite": "runs only at import, to build SUITES",
    "cli.parse_csv": "the CSV reader that README documents; the tests read "
    "every CSV schema back with it",
}

RUNS = [
    ["count", "--n", "1000", "--n", "1001", "--q", "4", "--a", "3"],
    ["compare", "--n", "3000", "--q-max", "4"],
    ["estimate", "--n", "3001"],
    ["estimate", "--n", "3001", "--per-q"],
    ["estimate", "--n", "3001", "--weights", "paper", "--tolerance", "1000"],
    ["series", "--n", "1000", "--q", "3", "--a", "1"],
    ["sieve-selftest"],
    ["verify", "arith", "--q-max", "12"],
    ["verify", "local", "--q-max", "12", "--qprime", "4"],
    ["verify", "estimator", "--q1", "3", "--q2", "1", "--n", "300"],
    # a lane of 1.5 M entries: two 2**20 windows on two workers
    ["count", "--n", "3000000", "--q", "1", "--threads", "2"],
    ["estimate", "--n", "3001", "--format", "json"],
    ["estimate", "--n", "3001", "--weights", "paper", "--padding-exponent", "0.1",
     "--tolerance", "1000"],
]

# Run with a fault planted (below), so that checks fail and print their
# counterexamples: the FAIL path of `verify`.
FAILING_RUNS = [["verify", "local", "--q-max", "12", "--qprime", "4"]]


def _shifted_star_rows(contexts, q, periods=1):
    """The fault of TestMutations in test_verify_cli.py: every star row
    shifted by one class."""
    num, den = oracle.scaled_star_rows(contexts, q, periods)
    return np.roll(num, 1, axis=1), den


def _modules() -> list:
    return [
        importlib.import_module(f"sqfrep.{info.name}")
        for info in pkgutil.iter_modules(sqfrep.__path__)
    ]


def _dataclasses() -> list:
    """Every dataclass defined in a module of the package."""
    return [
        obj
        for module in _modules()
        for obj in vars(module).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    ]


def _clear_caches() -> None:
    """Empty every functools cache of the package."""
    for module in _modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                obj.cache_clear()


def _module_name(path: str) -> str:
    stem = Path(path).stem
    return "sqfrep" if stem == "__init__" else stem


def _defs(trees: dict) -> dict:
    """(module, first line, name) -> 'module.Outer.name' for every def of
    the trees (module -> ast.Module); the first line is that of a def's
    first decorator, as in its code object."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    lines = [child.lineno, *(d.lineno for d in child.decorator_list)]
                    found[module, min(lines), child.name] = name
                walk(child, module, name)
            else:
                walk(child, module, prefix)

    for module, tree in trees.items():
        walk(tree, module, module)
    return found


def _source_trees() -> dict:
    return {
        _module_name(str(path)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(PACKAGE).glob("*.py"))
    }


def _census(runs, failing_runs=()) -> tuple[set, set, str]:
    """During runs, and then during failing_runs with the fault planted:
    'Class.field' for every field that package code read, the (module,
    first line, name) of every package code object that started, and the
    runs' stdout."""
    read = set()
    started = set()

    def hook(frame, event, _arg):
        if event == "call":
            started.add(frame.f_code)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        for cls in _dataclasses():
            names = {f.name for f in dataclasses.fields(cls)}

            def spy(self, name, cls=cls, names=names, original=cls.__getattribute__):
                if name in names:
                    code = sys._getframe(1).f_code
                    in_package = code.co_filename.startswith(PACKAGE)
                    if in_package and code.co_name != "__post_init__":
                        read.add(f"{cls.__name__}.{name}")
                return original(self, name)

            mp.setattr(cls, "__getattribute__", spy)
        _clear_caches()
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            for argv in runs:
                assert main(argv) == EXIT_OK, argv
            mp.setattr("sqfrep.verify.scaled_star_rows", _shifted_star_rows)
            for argv in failing_runs:
                assert main(argv) == EXIT_VERIFY, argv
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    ran = {
        (_module_name(code.co_filename), code.co_firstlineno, code.co_name)
        for code in started
        if code.co_filename.startswith(PACKAGE)
    }
    return read, ran, out.getvalue()


@pytest.fixture(scope="module")
def census():
    return _census(RUNS, FAILING_RUNS)


def _fields() -> set:
    return {
        f"{cls.__name__}.{field.name}"
        for cls in _dataclasses()
        for field in dataclasses.fields(cls)
    }


def _unstarted(trees: dict, ran: set) -> set:
    return {name for key, name in _defs(trees).items() if key not in ran}


class TestFieldCensus:
    def test_every_field_is_read_at_run_time(self, census):
        read, _, _ = census
        assert _fields() - read == set(CENSUS_ALLOWED)

    def test_every_def_runs(self, census):
        _, ran, out = census
        # the planted fault reached the FAIL path
        assert "FAIL prime-model-twist-closed-form" in out
        assert _unstarted(_source_trees(), ran) == set(FUNCTION_ALLOWED)
        assert all(FUNCTION_ALLOWED.values())

    def test_census_sees_an_unread_field(self):
        # `series` builds no count, so no count field is read
        read, _, _ = _census([RUNS[5]])
        unread = _fields() - read
        assert {"CountResult.unweighted", "CheckResult.cases"} <= unread
        assert "SeriesValue.value" not in unread

    def test_census_sees_a_def_that_never_runs(self):
        trees = _source_trees()
        trees["series"].body += ast.parse(
            "class _Injected:\n"
            "    @staticmethod\n"
            "    def method():\n"
            "        def nested(): pass\n"
        ).body
        _, ran, _ = _census([RUNS[5]])
        unstarted = _unstarted(trees, ran)
        injected = {"series._Injected.method", "series._Injected.method.nested"}
        assert injected <= unstarted
        # `series` counts nothing; its cached bulk sum is built afresh
        assert "counting.count_representations" in unstarted
        assert not {"series.singular_series", "series._bulk_sum"} & unstarted
