"""The closed-form local model on Z/qZ and its exact Hermitian products.

A local value is an exact rational, a plain Fraction.  A LocalVector holds
int64 numerators over one positive denominator, so local products are
integer dot products, and a local product is a Fraction.  The model
vectors are built in closed form from Ramanujan-sum tables,
(c_q(N - a) +/- c_{g1}(a) c_{m2}(a - a'))/2, where q = g1 m2 is the split of
cubefree q against the progression modulus.

The densities these vectors stand for (the square-free family, plain,
sharpened and mirrored through N - a, and the prime-progression family,
plain, sharpened and ungated) are computed from their defining sums, as
rows in `sqfrep.oracle`, which only `verify` imports, and one residue at a
time in `tests/oracles.py`; `verify` (the model-norm-identities check)
compares every model-vector entry with the defining combination of the
sharpened densities.  The alignment term
c_{g1}(N) c_{m2}(N - a'), +-phi(q) exactly when a model vector vanishes,
is an oracle there too: the estimator reads which vectors vanish off the
vectors, and `verify` compares the two.  The square-free
densities carry the factor 6/pi^2, and the oracle gives them in units of it;
the model vectors are built with that factor divided out, so only
`estimator.predicted_main_terms` applies it, dividing by PI_SQ_OVER_6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sqfrep.arith import (
    NUMERATOR_BOUND,
    FactoredInt,
    SieveTables,
    ramanujan_table,
    require_cubefree,
    require_int64,
    require_unit,
)

PI_SQ_OVER_6 = math.pi * math.pi / 6


@dataclass(frozen=True)
class ProgressionContext:
    """The fixed triple behind every prime-side density: count n <= target
    with n in the progression residue mod modulus.

    residue is canonicalized into [0, modulus) and must be a unit.
    """

    target: int
    residue: int
    modulus: int

    def __post_init__(self) -> None:
        if self.target < 1 or self.modulus < 1:
            raise ValueError("target and modulus must be positive")
        object.__setattr__(self, "residue", require_unit(self.residue, self.modulus))


@dataclass(frozen=True, eq=False)
class LocalVector:
    """A function on Z/qZ: entry a is numerators[a] / denominator.

    numerators is kept as a read-only int64 array below NUMERATOR_BOUND in
    magnitude and denominator as one positive int, so products of vectors
    are integer reductions.  The numerators may be given as any integer
    sequence; the constructor raises ValueError when their count is not
    the modulus, the denominator is not positive or a numerator would reach
    NUMERATOR_BOUND.
    """

    modulus: int
    numerators: np.ndarray
    denominator: int

    def __post_init__(self) -> None:
        # Python ints beyond int64 give an object array, still comparable
        values = np.asarray(self.numerators)
        if values.shape != (self.modulus,):
            raise ValueError("entry count must equal the modulus")
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        if not np.all(np.abs(values) < NUMERATOR_BOUND):
            raise ValueError("entry numerators must stay below 2**62")
        array = values.astype(np.int64)
        array.flags.writeable = False
        object.__setattr__(self, "numerators", array)
        object.__setattr__(self, "denominator", int(self.denominator))

    @property
    def max_abs(self) -> int:
        """The largest numerator magnitude."""
        return int(np.abs(self.numerators).max(initial=0))


def local_product(f: LocalVector, g: LocalVector) -> Fraction:
    """(1/q) sum of f*g over residues; real entries, so no conjugation."""
    if f.modulus != g.modulus:
        raise ValueError(f"modulus mismatch: {f.modulus} vs {g.modulus}")
    q = f.modulus
    require_int64(q * f.max_abs * g.max_abs)
    total = int(np.dot(f.numerators, g.numerators))
    return Fraction(total, q * f.denominator * g.denominator)


def progression_split(
    ctx: ProgressionContext, q: FactoredInt
) -> tuple[FactoredInt, FactoredInt]:
    """Split cubefree q against the context modulus q' as q = g1 * m2.

    g1 takes each prime p with p || q and p not dividing q', and m2 the rest
    of q's prime powers, so g1 is square-free, the parts are coprime, and
    both factor tuples ascend as q's do.  Rejects q with a cubic prime
    factor (ValueError).
    """
    require_cubefree(q)
    g1, m2 = [], []
    for p, e in q.factors:
        (g1 if e == 1 and ctx.modulus % p else m2).append((p, e))
    return (
        FactoredInt(math.prod(p for p, _ in g1), tuple(g1)),
        FactoredInt(math.prod(p**e for p, e in m2), tuple(m2)),
    )


def _model_vector(ctx: ProgressionContext, q: FactoredInt, sign: int) -> LocalVector:
    """Entries (c_q(N - a) + sign c_{g1}(a) c_{m2}(a - a'))/2, the closed
    form of (mirror_density_star / t(q) + sign rho_weight
    prime_density_star_ungated)/2 with rho_weight = phi(q') phi(g1) / mu(g1)
    (the per-entry forms in tests/oracles.py).
    |numerator| <= 2 phi(q), since |c_r(n)| <= phi(r)."""
    g1, m2 = progression_split(ctx, q)
    a = np.arange(q.value, dtype=np.int64)
    # target and residue may pass int64: reduce them in Python ints first
    twice = ramanujan_table(q)[(ctx.target % q.value - a) % q.value] + sign * (
        ramanujan_table(g1)[a % g1.value]
        * ramanujan_table(m2)[(a - ctx.residue % m2.value) % m2.value]
    )
    return LocalVector(q.value, twice, 2)


def model_sum(
    ctx: ProgressionContext, q: FactoredInt, tables: SieveTables
) -> LocalVector:
    """The averaged local model: half the mirrored square-free density
    (rescaled to drop its prefactor) plus half the rescaled ungated prime
    density.  Entries are half-integers.  tables is not read: model_sum and
    model_diff keep the (ctx, q, tables) form that perfbench's probes call."""
    return _model_vector(ctx, q, +1)


def model_diff(
    ctx: ProgressionContext, q: FactoredInt, tables: SieveTables
) -> LocalVector:
    """The difference of the two rescaled densities; identically zero
    exactly when c_{g1}(N) c_{m2}(N - a') = phi(q), the exceptional case."""
    return _model_vector(ctx, q, -1)
