"""The singular series for N = p + square-free with p in a progression.

Two evaluation routes to the same constant: a rudimentary form whose local
corrections are spelled out per divisibility class, and the Euler-product
form driven by Ramanujan sums.  Both truncate one infinite product over
primes and report a rigorous relative tail bound, so agreement between them
is a meaningful cross-check rather than a tautology.

Both forms share one bulk: the log of the factor 1 - 1/((p^2-1)(p-1)) for
every prime up to the cutoff.  Its float64 terms and their exact sum (an
integer in units of 2**-bits) are built once per cutoff and cached.  A call
subtracts the terms of the primes it excludes, adds the Euler form's patched
terms for p | target, and rounds once, so the log of the truncated product is
the correctly rounded sum of its terms: the value math.fsum gives, without
rebuilding and summing ~1e5 terms per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from sqfrep.arith import (
    FactoredInt,
    euler_phi,
    primes_up_to,
    ramanujan_sum,
    require_unit,
)

_SIX_OVER_PI_SQ = 6.0 / (math.pi * math.pi)

DEFAULT_PRIME_CUTOFF = 10**6


@dataclass(frozen=True)
class SeriesValue:
    """One evaluation: value, relative tail bound, vanishing flag, cutoff."""

    value: float
    tail_bound: float
    vanished: bool
    prime_cutoff: int

    def __post_init__(self) -> None:
        if self.vanished != (self.value == 0.0):
            raise ValueError("vanished flag must track a zero value")
        if self.tail_bound < 0:
            raise ValueError("tail bound must be non-negative")

    def interval(self) -> tuple[float, float]:
        spread = abs(self.value) * self.tail_bound
        return (self.value - spread, self.value + spread)


def _validate(a: int, q: FactoredInt, prime_cutoff: int) -> int:
    a = require_unit(a, q.value)
    if prime_cutoff < 2:
        raise ValueError("prime cutoff must be at least 2")
    return a


def _shared_square(q: FactoredInt, diff: int) -> bool:
    return any(e >= 2 and diff % (p * p) == 0 for p, e in q.factors)


# Limbs of 26 bits: a chunk of 2**12 limbs below 2**27 in magnitude sums to
# less than 2**39 in float64, far inside the 2**53 of exact integers.  The
# short chunks also keep the build's transient arrays small.
_LIMB_BITS = 26
_CHUNK = 1 << 12


@dataclass(frozen=True)
class _BulkSum:
    """The bulk of the log product up to one cutoff: the float64 term
    log1p(-1/((p^2-1)(p-1))) of every prime p <= cutoff, a scale 2**-bits
    of which every term is an integer multiple, and their exact sum in
    units of that scale."""

    primes: np.ndarray
    terms: np.ndarray
    bits: int
    total: int

    def term(self, p: int) -> float:
        return float(self.terms[int(np.searchsorted(self.primes, p))])


@lru_cache(maxsize=4)
def _bulk_sum(prime_cutoff: int) -> _BulkSum:
    """Build the cutoff's bulk sum once.

    Each term is m * 2**(e - 53) with m an integer below 2**53 in magnitude
    (np.frexp); m splits into a high and a low 26-bit limb, and per chunk
    np.bincount sums each limb per exponent e exactly in float64.  The
    per-exponent sums are then combined as Python integers.
    """
    primes = primes_up_to(prime_cutoff)
    terms = np.empty(primes.size)
    limbs: dict[int, int] = {}
    for start in range(0, primes.size, _CHUNK):
        pf = primes[start : start + _CHUNK].astype(np.float64)
        chunk = terms[start : start + _CHUNK]
        np.log1p(-1.0 / ((pf * pf - 1.0) * (pf - 1.0)), out=chunk)
        mant, exps = np.frexp(chunk)
        whole = np.ldexp(mant, 53)
        high = np.floor(np.ldexp(whole, -_LIMB_BITS))
        low = whole - np.ldexp(high, _LIMB_BITS)
        base = int(exps.min())
        shifted = exps - base
        for e, h, lo in zip(
            range(base, base + int(shifted.max()) + 1),
            np.bincount(shifted, weights=high).tolist(),
            np.bincount(shifted, weights=low).tolist(),
        ):
            limbs[e] = limbs.get(e, 0) + (int(h) << _LIMB_BITS) + int(lo)
    terms.flags.writeable = False
    low_exp = min(limbs, default=53)
    total = sum(v << (e - low_exp) for e, v in limbs.items())
    return _BulkSum(primes, terms, 53 - low_exp, total)


def _log_product(
    prime_cutoff: int, dropped: Iterable[int], added: Iterable[float] = ()
) -> float:
    """The correctly rounded sum of the bulk terms of every prime up to the
    cutoff except those in dropped, plus the added terms.

    Dropped terms are subtracted from the cached exact total, added ones
    joined to it exactly, and the result is divided once (int / int rounds
    correctly).  math.fsum also rounds the exact sum correctly, so this is
    bit-identical to fsum over the explicit term list.  A plain running
    sum of the ~1e5 factors near 1 would drown the tail bound in roundoff.
    """
    bulk = _bulk_sum(prime_cutoff)
    total, bits = bulk.total, bulk.bits
    for p in dropped:
        if p <= prime_cutoff:
            total -= int(math.ldexp(bulk.term(p), bits))
    for t in added:
        num, den = t.as_integer_ratio()
        shift = den.bit_length() - 1
        if shift > bits:
            total <<= shift - bits
            bits = shift
        total += num << (bits - shift)
    return total / (1 << bits)


def singular_series(
    n: FactoredInt, a: int, q: FactoredInt, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> SeriesValue:
    """Rudimentary form: explicit local correction per divisibility class.

    The prefactor is 6/(phi(q) pi^2).  Primes dividing the target get an
    exact (1 + 1/(p^2-1)); primes dividing q get (1 - 1/(p+1)) when p
    exactly divides q and also divides target - a, and (1 + 1/(p^2-1)) in
    the remaining classes; every other prime up to the cutoff contributes
    (1 - 1/((p^2-1)(p-1))).  The whole thing is zero exactly when some p^2
    divides both q and target - a.

    Tail: sum_{p > P} 1/((p^2-1)(p-1)) < sum_{n > P} 2/n^3 < 1/P^2, and the
    reported bound doubles that for safety, so tail_bound = 2/P^2.
    """
    a = _validate(a, q, prime_cutoff)
    diff = n.value - a
    if _shared_square(q, diff):
        return SeriesValue(0.0, 0.0, True, prime_cutoff)

    rational = Fraction(1, euler_phi(q))
    q_primes = frozenset(p for p, _ in q.factors)
    for p, _ in n.factors:
        if p not in q_primes:
            rational *= 1 + Fraction(1, p * p - 1)
    for p, e in q.factors:
        if e == 1 and diff % p == 0:
            rational *= 1 - Fraction(1, p + 1)
        else:
            rational *= 1 + Fraction(1, p * p - 1)

    log_rest = _log_product(prime_cutoff, q_primes | {p for p, _ in n.factors})
    value = float(rational) * _SIX_OVER_PI_SQ * math.exp(log_rest)
    return SeriesValue(value, 2.0 / prime_cutoff**2, False, prime_cutoff)


def singular_series_eulerform(
    n: FactoredInt, a: int, q: FactoredInt, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> SeriesValue:
    """Euler-product form: every factor comes from Ramanujan sums.

    For p exactly dividing q the factor is 1 - c_p(target - a)/(p^2 - 1);
    for p^2 | q it is 1 - (c_p + c_{p^2})(target - a)/(p^2 - 1); for p not
    dividing q it is 1 + c_p(target)/((p^2-1)(p-1)).  The vanishing
    indicator is applied first, which keeps the p^2 | q factor consistent
    (it would hit zero by itself exactly on the indicator's support).

    Tail: the generic prime beyond the cutoff contributes at most 2/p^3,
    but a prime dividing the target contributes up to 1/(p^2-1), so the
    bound adds a doubled term per such prime: 2/P^2 + sum 2/(p^2-1) over
    p | target with p > P.
    """
    a = _validate(a, q, prime_cutoff)
    diff = n.value - a
    if _shared_square(q, diff):
        return SeriesValue(0.0, 0.0, True, prime_cutoff)

    rational = Fraction(1, euler_phi(q))
    for p, e in q.factors:
        c1 = ramanujan_sum(FactoredInt(p, ((p, 1),)), diff)
        if e == 1:
            rational *= 1 - Fraction(c1, p * p - 1)
        else:
            c2 = ramanujan_sum(FactoredInt(p * p, ((p, 2),)), diff)
            rational *= 1 - Fraction(c1 + c2, p * p - 1)
    assert rational != 0  # indicator already excluded the vanishing class

    q_primes = frozenset(p for p, _ in q.factors)
    # c_p(target) = -1 for the bulk; patch the finitely many p | target.
    patched = []
    tail = 2.0 / prime_cutoff**2
    for p, _ in n.factors:
        if p in q_primes:
            continue
        if p <= prime_cutoff:
            patched.append(p)
        else:
            tail += 2.0 / (p * p - 1.0)
    log_rest = _log_product(
        prime_cutoff,
        q_primes | set(patched),
        [math.log1p(1.0 / (p * p - 1.0)) for p in patched],
    )
    value = float(rational) * _SIX_OVER_PI_SQ * math.exp(log_rest)
    return SeriesValue(value, tail, False, prime_cutoff)


def series_lower_bound(modulus: int) -> Fraction:
    """Crude positive floor for any nonvanishing series value at this
    progression modulus: (1/phi(modulus)) * prod_{p <= modulus} (1 - 1/(p+1)).
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    floor = Fraction(1)
    phi = Fraction(modulus)
    if modulus >= 2:
        for p in primes_up_to(modulus).tolist():
            floor *= Fraction(p, p + 1)
            if modulus % p == 0:
                phi *= Fraction(p - 1, p)
    return floor / phi
