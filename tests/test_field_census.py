"""Runtime field census: while the CLI runs every subcommand at small sizes,
package code reads every field of every sqfrep dataclass.

The static guard in test_dead_code.py matches attribute names across the
whole package, so a field passes it unread whenever another class has a
field or property of the same name (a result's `target` against
`ctx.target`).  Here each dataclass's `__getattribute__` is wrapped, and a
read counts for its own class only, and only from a frame of package code.
Reads made by `__post_init__` (a field checked but never used) and by the
methods that `dataclass` generates (`__eq__`, `__hash__`, `__repr__`) do
not count."""

import dataclasses
import importlib
import os
import pkgutil
import sys

import pytest

import sqfrep
from sqfrep.cli import EXIT_OK, main

PACKAGE = os.path.dirname(sqfrep.__file__) + os.sep

# Fields that the runs below leave unread, with the reason.
CENSUS_ALLOWED = {
    "CheckResult.counterexample": "printed only on a FAIL line, and every run passes",
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
]


def _dataclasses() -> list:
    """Every dataclass defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(sqfrep.__path__):
        module = importlib.import_module(f"sqfrep.{info.name}")
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
        ]
    return found


def _census(monkeypatch, runs) -> set:
    """'Class.field' for every field that package code read during runs."""
    read = set()
    for cls in _dataclasses():
        names = {f.name for f in dataclasses.fields(cls)}

        def spy(self, name, cls=cls, names=names, original=cls.__getattribute__):
            if name in names:
                code = sys._getframe(1).f_code
                in_package = code.co_filename.startswith(PACKAGE)
                if in_package and code.co_name != "__post_init__":
                    read.add(f"{cls.__name__}.{name}")
            return original(self, name)

        monkeypatch.setattr(cls, "__getattribute__", spy)
    for argv in runs:
        assert main(argv) == EXIT_OK, argv
    return read


def _fields() -> set:
    return {
        f"{cls.__name__}.{field.name}"
        for cls in _dataclasses()
        for field in dataclasses.fields(cls)
    }


class TestFieldCensus:
    def test_every_field_is_read_at_run_time(self, monkeypatch, capsys):
        unread = _fields() - _census(monkeypatch, RUNS)
        capsys.readouterr()
        assert unread == set(CENSUS_ALLOWED)

    def test_census_sees_an_unread_field(self, monkeypatch, capsys):
        # `series` builds no count, so no count field is read
        unread = _fields() - _census(monkeypatch, [RUNS[5]])
        capsys.readouterr()
        assert {"CountResult.unweighted", "CheckResult.cases"} <= unread
        assert "SeriesValue.value" not in unread
