"""Exact toolkit for representations N = p + n with p prime in a progression
and n square-free: local densities, singular series, direct counts, and a
dispersion-style estimator, plus identity-verification suites over ranges.
"""

from sqfrep.arith import (
    CapacityError,
    FactoredInt,
    Rational,
    SieveTables,
    build_sieve,
    factorize,
)
from sqfrep.counting import (
    CountResult,
    count_classes,
    count_representations,
    psi_in_ap,
    squarefree_count_in_ap,
)
from sqfrep.estimator import (
    ModuliSet,
    Weights,
    bessel_defect,
    build_moduli_set,
    compute_weights,
    estimate_inner,
    global_inner,
    lambda_progression_function,
    squarefree_mirror_function,
)
from sqfrep.localmodel import (
    LocalVector,
    ProgressionContext,
    ScaledValue,
    local_product,
    model_diff,
    model_sum,
)
from sqfrep.series import (
    SeriesValue,
    series_lower_bound,
    singular_series,
    singular_series_eulerform,
)
from sqfrep.verify import CheckResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CheckResult",
    "CountResult",
    "FactoredInt",
    "LocalVector",
    "ModuliSet",
    "ProgressionContext",
    "Rational",
    "ScaledValue",
    "SeriesValue",
    "SieveTables",
    "Weights",
    "bessel_defect",
    "build_moduli_set",
    "build_sieve",
    "compute_weights",
    "count_classes",
    "count_representations",
    "estimate_inner",
    "factorize",
    "global_inner",
    "lambda_progression_function",
    "local_product",
    "model_diff",
    "model_sum",
    "psi_in_ap",
    "run_suites",
    "series_lower_bound",
    "singular_series",
    "singular_series_eulerform",
    "squarefree_count_in_ap",
    "squarefree_mirror_function",
    "__version__",
]
