"""Exact toolkit for representations N = p + n with p prime in a progression
and n square-free: local densities, singular series, direct counts, and a
dispersion-style estimator, plus identity-verification suites over ranges.

`import sqfrep` loads nothing else, not even numpy: each name in `__all__`
is imported from its home module on first access (PEP 562), so that
`python -m sqfrep.cli` can act before numpy loads.  Submodules import as
usual (`from sqfrep import cli`).
"""

import importlib

__version__ = "0.1.0"

# public name -> home module
_HOMES = {
    "CapacityError": "arith",
    "FactoredInt": "arith",
    "SieveTables": "arith",
    "build_sieve": "arith",
    "factorize": "arith",
    "CountResult": "counting",
    "count_classes": "counting",
    "count_representations": "counting",
    "log_class_sums": "counting",
    "squarefree_class_counts": "counting",
    "squarefree_count_in_ap": "counting",
    "ModuliSet": "estimator",
    "Summary": "estimator",
    "Weights": "estimator",
    "bessel_defect": "estimator",
    "build_moduli_set": "estimator",
    "compute_weights": "estimator",
    "estimate_inner": "estimator",
    "log_summary": "estimator",
    "mirror_summary": "estimator",
    "paper_weights": "estimator",
    "LocalVector": "localmodel",
    "ProgressionContext": "localmodel",
    "local_product": "localmodel",
    "model_diff": "localmodel",
    "model_sum": "localmodel",
    "SeriesValue": "series",
    "singular_series": "series",
    "singular_series_eulerform": "series",
    "CheckResult": "verify",
}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        # lets `from sqfrep import <submodule>` fall back to importing it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
