"""Sieves, factorization, and exact multiplicative-function arithmetic.

Everything downstream (local densities, singular series, counting) consumes
these primitives.  Identity-grade computation is exact throughout: Python
integers and ``fractions.Fraction``, never floats.  ``SieveTables`` is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian

import numpy as np

_CHUNK = 1 << 22

# Seed of every seeded check (verify suites, sieve-selftest) unless given.
DEFAULT_SEED = 20260819

# Caps on the verify suites' sweep bounds: the suites are exhaustive
# small-range sweeps, not scans.  The suites check them, and the CLI's
# parser checks them on the flags that set them.
MAX_R_BOUND = 1000
MAX_Q_BOUND = 1000
MAX_QPRIME_BOUND = 100
MAX_Q1_BOUND = 20
MAX_Q2_BOUND = 5

# Every int64 numerator array in the package (log weights, local vectors)
# stays below this in magnitude, so two of them add without overflow.
NUMERATOR_BOUND = 1 << 62


def require_int64(bound: int) -> None:
    """Guard for an int64 computation: bound must cap every value it forms.

    Raises OverflowError instead of asserting, so the check survives -O.
    """
    if bound >= 1 << 63:
        raise OverflowError(f"int64 reduction bound {bound} reaches 2**63")


class CapacityError(RuntimeError):
    """An input exceeds what the current sieve tables can cover."""


@dataclass(frozen=True)
class SieveTables:
    """Sieve arrays on [0, limit], built once and never mutated.

    Attributes
    ----------
    limit : int
        Inclusive upper end of every table.
    smallest_prime_factor : np.ndarray (int32)
        spf[n] is the least prime dividing n; spf[0] = 0, spf[1] = 1 and
        spf[p] = p for primes.
    mobius : np.ndarray (int8)
        mobius[n] is the Moebius function, with mobius[0] = 0.
    is_squarefree : np.ndarray (bool)
        is_squarefree[n] == (mobius[n] != 0); index 0 is False.
    primes : np.ndarray (int64)
        All primes <= limit, ascending.
    """

    limit: int
    smallest_prime_factor: np.ndarray
    mobius: np.ndarray
    is_squarefree: np.ndarray
    primes: np.ndarray


def build_sieve(limit: int) -> SieveTables:
    """Build ``SieveTables`` up to ``limit``.

    Runs in O(limit log log limit) with vectorized striking.  int32 internals
    cap ``limit`` below 2**31; in practice limits up to 10**8 build in a few
    seconds within ~1.5 GB transient memory.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit >= 2**31:
        raise CapacityError("sieve limit must fit in int32")

    spf = np.zeros(limit + 1, dtype=np.int32)
    root = math.isqrt(limit)
    for p in range(2, root + 1):
        if spf[p] == 0:
            sl = spf[p::p]
            sl[sl == 0] = p
    # Entries still unset above 1 are primes larger than sqrt(limit).
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    spf[1] = 1

    mu = np.ones(limit + 1, dtype=np.int8)
    rad = np.ones(limit + 1, dtype=np.int32)
    for p in range(2, root + 1):
        if spf[p] == p:
            mu[p::p] *= -1
            rad[p::p] *= p
            mu[p * p :: p * p] = 0
    # rad[n] is the product of the distinct primes <= sqrt(limit) dividing n.
    # Where it falls short of n (and n is square-free so far), exactly one
    # prime factor above sqrt(limit) remains: one more sign flip.
    for lo in range(0, limit + 1, _CHUNK):
        hi = min(lo + _CHUNK, limit + 1)
        idx = np.arange(lo, hi, dtype=np.int32)
        part = mu[lo:hi]
        flip = (rad[lo:hi] != idx) & (part != 0)
        part[flip] *= -1
    mu[0] = 0

    parts = []
    for lo in range(2, limit + 1, _CHUNK):
        hi = min(lo + _CHUNK, limit + 1)
        idx = np.arange(lo, hi, dtype=np.int64)
        parts.append(idx[spf[lo:hi] == idx])
    primes = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    tables = SieveTables(limit, spf, mu, mu != 0, primes)
    for arr in (spf, mu, tables.is_squarefree, primes):
        arr.flags.writeable = False
    return tables


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (simple cached sieve)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    out = np.flatnonzero(flags).astype(np.int64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer with its full prime factorization attached.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes whose product reconstructs ``value``.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError("FactoredInt must be positive")
        prod, last = 1, 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError(f"bad factorization for {self.value}")
            prod *= p**e
            last = p
        if prod != self.value:
            raise ValueError(f"factors do not multiply to {self.value}")

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def is_cubefree(self) -> bool:
        return all(e <= 2 for _, e in self.factors)


def factorize(n: int, tables: SieveTables) -> FactoredInt:
    """Factor ``n`` completely using the sieve tables.

    Inside the table range this is an spf-chain walk; beyond it, trial
    division by the sieved primes.  A leftover cofactor is prime whenever it
    is <= limit**2 (all factors up to limit have been removed); anything
    larger raises ``CapacityError``.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}; need a positive integer")
    if n == 1:
        return FactoredInt(1, ())

    fs: list[tuple[int, int]] = []
    if n <= tables.limit:
        spf = tables.smallest_prime_factor
        m = n
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fs.append((p, e))
        return FactoredInt(n, tuple(fs))

    m = n
    pos = int(np.searchsorted(tables.primes, math.isqrt(n), side="right"))
    table_short = pos == len(tables.primes)
    for p in tables.primes[:pos].tolist():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fs.append((p, e))
    if m > 1:
        # With every sieved prime <= sqrt(m) removed, a cofactor is prime
        # once it is <= limit**2; larger cofactors cannot be certified.
        if table_short and m > tables.limit * tables.limit:
            raise CapacityError(
                f"cofactor {m} of {n} exceeds limit^2 = {tables.limit**2}; "
                "rebuild tables with a larger limit"
            )
        fs.append((m, 1))
    return FactoredInt(n, tuple(fs))


def euler_phi(f: FactoredInt) -> int:
    """Euler totient from a factorization."""
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def mobius(f: FactoredInt) -> int:
    """Moebius function: 0 on a square factor, else (-1)^(number of primes)."""
    if not f.is_squarefree:
        return 0
    return -1 if len(f.factors) % 2 else 1


def divisors(f: FactoredInt) -> list[int]:
    """All divisors, ascending."""
    out = [1]
    for p, e in f.factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def divisor_factored(f: FactoredInt, exps: tuple[int, ...]) -> FactoredInt:
    """The divisor of ``f`` with the given exponent vector, factored."""
    val = 1
    fs = []
    for (p, e), k in zip(f.factors, exps):
        if k < 0 or k > e:
            raise ValueError("exponent vector out of range")
        if k:
            val *= p**k
            fs.append((p, k))
    return FactoredInt(val, tuple(fs))


def divisors_with_cofactor_mobius(f: FactoredInt):
    """Yield (divisor d of f, mu(f/d), d as FactoredInt).

    Pairs with mu(f/d) = 0 are skipped; order is deterministic.
    """
    ranges = [range(e, -1, -1) for _, e in f.factors]
    for exps in _cartesian(*ranges):
        mu = 1
        for (_, e), k in zip(f.factors, exps):
            gap = e - k
            if gap == 1:
                mu = -mu
            elif gap > 1:
                mu = 0
                break
        if mu:
            yield divisor_factored(f, exps), mu


def require_unit(residue: int, modulus: int) -> int:
    """residue reduced into [0, modulus); ValueError unless it is a unit."""
    residue %= modulus
    if math.gcd(residue, modulus) != 1:
        raise ValueError(f"class {residue} is not a unit mod {modulus}")
    return residue


def require_cubefree(q: FactoredInt) -> None:
    """Reject q with a cubic prime factor (ValueError)."""
    if not q.is_cubefree:
        raise ValueError(f"{q.value} has a cubic prime factor")


def cubefree_split(q: FactoredInt) -> tuple[FactoredInt, FactoredInt]:
    """Split cubefree q as q1 * q2**2 with q1*q2 square-free.

    Returns (q1, q2) factored.  Rejects q with a cubic prime factor.
    """
    f1, f2 = [], []
    for p, e in q.factors:
        if e == 1:
            f1.append((p, 1))
        elif e == 2:
            f2.append((p, 1))
        else:
            raise ValueError(f"{q.value} has cubic factor {p}**{e}")
    v1 = math.prod(p for p, _ in f1)
    v2 = math.prod(p for p, _ in f2)
    return FactoredInt(v1, tuple(f1)), FactoredInt(v2, tuple(f2))


def ramanujan_sum(r: FactoredInt, n: int) -> int:
    """Ramanujan sum c_r(n): sum of e(a n / r) over a coprime to r.

    Evaluated exactly through the prime-power classification of v_p(n):
    phi(p^e) when p^e | n, -p^(e-1) when p^(e-1) exactly divides n, else 0.
    Conventions: c_r(0) = phi(r); negative n behaves as |n| (the sum is even
    in n).  Note |c_r(n)| = phi((r, n)) only for square-free r; in general
    |c_r(n)| <= (r, n) (already |c_4(2)| = 2 > phi(2)).
    """
    n = abs(n)
    out = 1
    for p, e in r.factors:
        if n == 0:
            v = e
        else:
            v = 0
            m = n
            while v < e and m % p == 0:
                m //= p
                v += 1
        if v >= e:
            out *= p ** (e - 1) * (p - 1)
        elif v == e - 1:
            out *= -(p ** (e - 1))
        else:
            return 0
    return out


def ramanujan_row(r: FactoredInt, ns: np.ndarray) -> np.ndarray:
    """Vectorized c_r(n) over an integer array ``ns`` (entries >= 0)."""
    out = np.ones(len(ns), dtype=np.int64)
    ns = np.asarray(ns, dtype=np.int64)
    for p, e in r.factors:
        pe = p**e
        top = ns % pe == 0
        nxt = ns % (pe // p) == 0
        loc = np.zeros(len(ns), dtype=np.int64)
        loc[nxt] = -(pe // p)
        loc[top] = pe // p * (p - 1)
        out *= loc
    return out


@lru_cache(maxsize=4096)
def ramanujan_table(r: FactoredInt) -> np.ndarray:
    """c_r(n) for n = 0..r-1 as a read-only int64 array."""
    row = ramanujan_row(r, np.arange(r.value, dtype=np.int64))
    row.flags.writeable = False
    return row


def star_scale(q: FactoredInt) -> Fraction:
    """Product of -1/(p^2 - 1) over primes p | q.

    The multiplicative constant tying the sharpened square-free density to
    Ramanujan sums.
    """
    out = Fraction(1)
    for p, _ in q.factors:
        out *= Fraction(-1, p * p - 1)
    return out


def mobius_divisor_indicator(a: FactoredInt, d: int) -> int:
    """Sum of mu(k/d) over divisors k of a that are multiples of d.

    Computed as the literal double-condition sum (not the collapsed
    indicator); equals 1 exactly when d = a.  Rejects d not dividing a.
    """
    vd = []
    m = d
    for p, e in a.factors:
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        if v > e:
            raise ValueError(f"{d} does not divide {a.value}")
        vd.append(v)
    if m != 1:
        raise ValueError(f"{d} does not divide {a.value}")

    total = 0
    ranges = [range(v, e + 1) for (_, e), v in zip(a.factors, vd)]
    for exps in _cartesian(*ranges):
        mu = 1
        for k, v in zip(exps, vd):
            gap = k - v
            if gap == 1:
                mu = -mu
            elif gap > 1:
                mu = 0
                break
        total += mu
    return total
