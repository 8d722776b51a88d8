"""The closed-form local model on Z/qZ and its exact Hermitian products.

A LocalVector holds int64 numerators over one positive denominator, times
(6/pi^2)**pi_power, so local products are integer dot products.  The model
vectors are built in closed form from Ramanujan-sum tables,
(c_q(N - a) +/- c_{g1}(a) c_{m2}(a - a'))/2, where q = g1 m2 is the split of
cubefree q against the progression modulus.

The densities these vectors stand for (the square-free family, plain,
sharpened and mirrored through N - a, and the prime-progression family,
plain, sharpened and ungated) are computed from their defining sums in
`sqfrep.oracle`, which only `verify` and the tests import; `verify` (the
model-norm-identities check) compares every model-vector entry with the
defining combination of the sharpened densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from sqfrep.arith import (
    NUMERATOR_BOUND,
    FactoredInt,
    SieveTables,
    cubefree_split,
    ramanujan_sum,
    ramanujan_table,
    require_cubefree,
    require_int64,
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
        object.__setattr__(self, "residue", self.residue % self.modulus)
        if math.gcd(self.residue, self.modulus) != 1:
            raise ValueError(
                f"residue {self.residue} is not a unit mod {self.modulus}"
            )


@dataclass(frozen=True)
class ScaledValue:
    """coeff * (6/pi^2)**pi_power, exactly."""

    coeff: Fraction
    pi_power: int

    def __post_init__(self) -> None:
        if self.pi_power < 0:
            raise ValueError("pi_power must be non-negative")
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))

    def __add__(self, other: "ScaledValue") -> "ScaledValue":
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add pi_power {self.pi_power} to {other.pi_power}"
            )
        return ScaledValue(self.coeff + other.coeff, self.pi_power)

    def __sub__(self, other: "ScaledValue") -> "ScaledValue":
        return self + (-other)

    def __neg__(self) -> "ScaledValue":
        return ScaledValue(-self.coeff, self.pi_power)

    def __mul__(self, other: "ScaledValue") -> "ScaledValue":
        return ScaledValue(self.coeff * other.coeff, self.pi_power + other.pi_power)

    def scale(self, factor, pi_shift: int = 0) -> "ScaledValue":
        """Multiply by an exact rational and shift the formal exponent."""
        return ScaledValue(self.coeff * Fraction(factor), self.pi_power + pi_shift)

    def to_float(self) -> float:
        return float(self.coeff) / PI_SQ_OVER_6**self.pi_power


@dataclass(frozen=True, eq=False, init=False)
class LocalVector:
    """A function on Z/qZ: entry a is numerators[a] / denominator, times
    (6/pi^2)**pi_power.

    numerators is a read-only int64 array below NUMERATOR_BOUND in
    magnitude and denominator one positive int, so products of vectors are
    integer reductions.  LocalVector(modulus, entries, pi_power) takes
    rational entries and stores them over their least common denominator;
    it raises ValueError when the entry count is not the modulus or a
    numerator would reach NUMERATOR_BOUND.
    """

    modulus: int
    numerators: np.ndarray
    denominator: int
    pi_power: int

    def __init__(self, modulus: int, entries: Sequence, pi_power: int) -> None:
        values = [Fraction(e) for e in entries]
        denominator = math.lcm(*(v.denominator for v in values))
        numerators = [v.numerator * (denominator // v.denominator) for v in values]
        self._store(modulus, numerators, denominator, pi_power)

    @classmethod
    def from_numerators(
        cls, modulus: int, numerators, denominator: int, pi_power: int
    ) -> "LocalVector":
        """Entries numerators[a] / denominator, with the constructor's checks."""
        vec = cls.__new__(cls)
        vec._store(modulus, numerators, denominator, pi_power)
        return vec

    def _store(self, modulus, numerators, denominator, pi_power) -> None:
        # Python ints beyond int64 give an object array, still comparable
        values = np.asarray(numerators)
        if values.shape != (modulus,):
            raise ValueError("entry count must equal the modulus")
        if denominator < 1:
            raise ValueError("denominator must be positive")
        if not np.all(np.abs(values) < NUMERATOR_BOUND):
            raise ValueError("entry numerators must stay below 2**62")
        array = values.astype(np.int64)
        array.flags.writeable = False
        for name, value in (
            ("modulus", modulus),
            ("numerators", array),
            ("denominator", int(denominator)),
            ("pi_power", pi_power),
        ):
            object.__setattr__(self, name, value)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as exact rationals, derived from the numerators."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators.tolist())

    @property
    def max_abs(self) -> int:
        """The largest numerator magnitude."""
        return int(np.abs(self.numerators).max(initial=0))

    def value_at(self, a: int) -> Fraction:
        return Fraction(int(self.numerators[a % self.modulus]), self.denominator)

    def entry(self, a: int) -> ScaledValue:
        return ScaledValue(self.value_at(a), self.pi_power)


def local_product(f: LocalVector, g: LocalVector) -> ScaledValue:
    """(1/q) sum of f*g over residues; real entries, so no conjugation."""
    if f.modulus != g.modulus:
        raise ValueError(f"modulus mismatch: {f.modulus} vs {g.modulus}")
    q = f.modulus
    require_int64(q * f.max_abs * g.max_abs)
    total = int(np.dot(f.numerators, g.numerators))
    return ScaledValue(
        Fraction(total, q * f.denominator * g.denominator), f.pi_power + g.pi_power
    )


def progression_split(
    ctx: ProgressionContext, q: FactoredInt
) -> tuple[FactoredInt, FactoredInt]:
    """Split cubefree q against the context modulus.

    Writes q = g1 * m2 with g1 the square-free primes of q away from the
    context modulus and m2 the rest: g1 = q1/(q1, q'), m2 = (q1, q') q2^2
    in terms of the cubefree split q = q1 q2^2.  The parts are coprime.
    """
    q1, q2 = cubefree_split(q)
    g1_factors = []
    shared_factors = []
    for p, _ in q1.factors:
        if ctx.modulus % p == 0:
            shared_factors.append((p, 1))
        else:
            g1_factors.append((p, 1))
    m2_factors = sorted(shared_factors + [(p, 2) for p, _ in q2.factors])
    g1 = FactoredInt(math.prod(p for p, _ in g1_factors), tuple(g1_factors))
    m2 = FactoredInt(
        math.prod(p**e for p, e in m2_factors), tuple(m2_factors)
    )
    return g1, m2


def alignment_term(ctx: ProgressionContext, q: FactoredInt) -> int:
    """c_{g1}(target) * c_{m2}(target - residue): the integer that measures
    how the two density families correlate at q.

    Equals +phi(q) exactly when g1 | target and m2 | (target - residue)
    (difference vector vanishes) and -phi(q) in the rarer anti-aligned case
    (sum vector vanishes); strictly between otherwise.
    """
    g1, m2 = progression_split(ctx, q)
    return ramanujan_sum(g1, ctx.target) * ramanujan_sum(
        m2, ctx.target - ctx.residue
    )


def _model_vector(ctx: ProgressionContext, q: FactoredInt, sign: int) -> LocalVector:
    """Entries (c_q(N - a) + sign c_{g1}(a) c_{m2}(a - a'))/2, the closed
    form of (mirror_density_star / t(q) + sign rho_weight
    prime_density_star_ungated)/2 with rho_weight = phi(q') phi(g1) / mu(g1).
    |numerator| <= 2 phi(q), since |c_r(n)| <= phi(r)."""
    require_cubefree(q)
    g1, m2 = progression_split(ctx, q)
    a = np.arange(q.value, dtype=np.int64)
    twice = ramanujan_table(q)[(ctx.target - a) % q.value] + sign * (
        ramanujan_table(g1)[a % g1.value]
        * ramanujan_table(m2)[(a - ctx.residue) % m2.value]
    )
    return LocalVector.from_numerators(q.value, twice, 2, 0)


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
    exactly when alignment_term(q) = phi(q)."""
    return _model_vector(ctx, q, -1)
