"""The benchmark's traced harness, perfbench/spans.py, still binds to the
package.  Only `perfbench/run.py --trace 1` runs it, so a renamed function,
parameter or field would otherwise show first in a traced benchmark run.
The harness is loaded by path and run in-process; perfbench/ is only read."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from sqfrep import cli
from sqfrep.verify import CheckResult

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"

# Parameters the firing hooks read by name off the CLI's calls.  A hook
# reads threads and prime_cutoff with a default, so a rename there would
# not raise: it would count silently wrong.
HOOK_PARAMETERS = {
    "count_representations": ("target", "tables", "threads"),
    "singular_series": ("n", "q", "prime_cutoff"),
    "build_moduli_set": ("ctx",),
    "bessel_defect": ("h",),
}
# Positional arity of the calls the probes make.
PROBE_ARITY = {
    "model_sum": 3,
    "model_diff": 3,
    "segmented_prime_sieve": 3,
    "segmented_squarefree_sieve": 3,
    "singular_series_eulerform": 3,
    "factorize": 2,
}


def _load(name: str, path: Path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def spans(monkeypatch):
    # spans.py imports workloads as a top-level module, as run.py's path has it
    _load("workloads", PERFBENCH / "workloads.py", monkeypatch)
    return _load("perfbench_spans", SPANS, monkeypatch)


def test_every_package_name_it_reads_resolves(spans):
    tree = ast.parse(SPANS.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("sqfrep"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "cli":
            assert hasattr(cli, node.attr), f"cli.{node.attr}"


def test_hook_and_probe_calls_bind(spans):
    for name, params in HOOK_PARAMETERS.items():
        # the hooks see the CLI's own names, wrapped in place
        inspect.signature(getattr(cli, name)).bind_partial(**dict.fromkeys(params))
    for name, arity in PROBE_ARITY.items():
        inspect.signature(getattr(spans, name)).bind(*range(arity))
    assert "elapsed" in CheckResult.__dataclass_fields__


def test_traced_jobs_fire_hooks_and_probes(spans):
    tracer = spans.Tracer()
    traced = spans.TracedCli(tracer)
    job = sys.modules["workloads"].Job
    for argv in (
        ("count", "--n", "1000", "--q", "3", "--a", "1", "--threads", "2"),
        ("estimate", "--n", "1000"),
        ("verify", "local", "--q-max", "12", "--qprime", "4"),
    ):
        code, out, _ = traced.run(job(argv[0], argv))
        assert (code, bool(out)) == (cli.EXIT_OK, True), argv
    traced.probes()
    seen: dict[str, list[dict]] = {}
    for s in tracer.spans:
        seen.setdefault(s["name"], []).append(s)
    # each firing hook leaves its counters on its span
    counts = seen["counting.count_representations"]
    assert {(s["n"], s["threads"]) for s in counts} == {(1000, 2), (1000, 1)}
    assert all("primes_kept" in s for s in seen["series.singular_series"])
    assert seen["estimator.build_moduli_set"][0]["family_size"] > 0
    assert seen["estimator.compute_weights"][0]["cross_pairs"] > 0
    # the defect hook renames each of its spans
    defects = {n for n in seen if "bessel_defect" in n}
    assert defects and defects <= {
        "estimator.bessel_defect_f",
        "estimator.bessel_defect_g",
    }
    (suite,) = seen["verify.local"]
    assert all(elapsed >= 0 for _, elapsed in suite["checks"].values())
    for probe in (
        "counting.prime_window",
        "counting.squarefree_window_capped",
        "series.singular_series_probe",
        "series.eulerform_probe",
        "localmodel.model_vectors",
    ):
        assert probe in seen, probe
