"""Defining-sum oracles for the local model.

`localmodel` builds the model vectors in closed form from Ramanujan-sum
tables.  This module computes the densities behind them from their
definitions instead, so that `verify` and the tests can compare the two.
Nothing in the library or the CLI imports it.

Every value is an exact rational, a plain Fraction.  The square-free
densities are in units of 6/pi^2 (the factor every one of them carries);
the prime densities have no such factor.

Two shapes of the same definitions live here:

- per-entry forms, one residue at a time:
  `squarefree_density[_star]`, `mirror_density_star`,
  `prime_density[_star][_ungated]`, `prime_model_twist`, plus
  `alignment_term`, the Ramanujan-sum product that is +-phi(q) exactly on
  the members the estimator reads as exceptional or degenerate;
- row forms, every residue at once as int64 numerators over one
  denominator: `squarefree_density_row`, `squarefree_star_row`,
  `scaled_prime_density_rows` and `scaled_star_rows`.  The prime-side rows
  are stacked over contexts, one row per context.  A row form takes its
  modulus factored and no sieve tables: every totient it needs is read off
  the modulus's primes, while the per-entry `prime_density` keeps its
  phi(lcm) definition, so the tests hold two routes to each other.

`dense_summary` builds the estimator's Summary of a global function given
value by value, from the definitions of its sums.

Each row form evaluates the same defining sum as its per-entry form (the
tests hold them equal), and checks its int64 bound with `require_int64`
before summing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from sqfrep.arith import (
    FactoredInt,
    SieveTables,
    divisors_with_cofactor_mobius,
    euler_phi,
    factorize,
    mobius,
    ramanujan_sum,
    require_cubefree,
    require_int64,
)
from sqfrep.estimator import Summary
from sqfrep.localmodel import ProgressionContext, progression_split


def totient(n: int, tables: SieveTables) -> int:
    """Euler's phi of a plain integer n."""
    return euler_phi(factorize(n, tables))


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


# ---------------------------------------------------------------------------
# per-entry forms


def squarefree_density(q: FactoredInt, a: int) -> Fraction:
    """Density of square-free integers in the class a mod q, as a multiple
    of 6/pi^2.

    Zero exactly when some p^2 divides both a and q; otherwise the local
    correction for each p | q depends on whether p divides a.  Any modulus
    is fine here (square-freeness only sees a mod p^2); the cube-free
    restriction belongs to the sharpened vectors, not the plain density.
    """
    a %= q.value
    density = Fraction(1)
    for p, e in q.factors:
        if e >= 2 and a % (p * p) == 0:
            return Fraction(0)
        density *= Fraction(p * p, p * p - 1)
        if e == 1 and a % p == 0:
            density *= Fraction(p - 1, p)
    return density


def squarefree_density_star(q: FactoredInt, a: int) -> Fraction:
    """Moebius sharpening of the square-free density over divisors of q.

    Computed from the defining sum, in units of 6/pi^2; equals t(q) c_q(a)
    for cubefree q (the closed form is exercised in the tests).  Vanishes
    when q has a cubic factor.
    """
    if not q.is_cubefree:
        return Fraction(0)
    total = Fraction(0)
    for d, mu in divisors_with_cofactor_mobius(q):
        total += mu * squarefree_density(d, a)
    return total


def mirror_density_star(ctx: ProgressionContext, q: FactoredInt, a: int) -> Fraction:
    """The sharpened square-free density reflected through the target:
    evaluated at target - a."""
    return squarefree_density_star(q, (ctx.target - a) % q.value)


def prime_density(
    ctx: ProgressionContext, q: FactoredInt, a: int, tables: SieveTables
) -> Fraction:
    """Expected density (times q) of prime-power mass on the class a mod q
    inside the fixed progression.

    Nonzero only when the pair of congruences mod q and mod the context
    modulus is consistent and a is a unit mod q; the value q/phi(lcm) is
    what the Chinese remainder theorem predicts.
    """
    require_cubefree(q)
    a %= q.value
    if math.gcd(a, q.value) != 1:
        return Fraction(0)
    shared = math.gcd(q.value, ctx.modulus)
    if (a - ctx.residue) % shared != 0:
        return Fraction(0)
    lcm = q.value // shared * ctx.modulus
    return Fraction(q.value, totient(lcm, tables))


def prime_density_star(
    ctx: ProgressionContext, q: FactoredInt, a: int, tables: SieveTables
) -> Fraction:
    """Moebius sharpening of prime_density over divisors of q (defining sum;
    the closed form is a tested identity)."""
    require_cubefree(q)
    total = Fraction(0)
    for d, mu in divisors_with_cofactor_mobius(q):
        total += mu * prime_density(ctx, d, a, tables)
    return total


def prime_density_star_ungated(
    ctx: ProgressionContext, q: FactoredInt, a: int, tables: SieveTables
) -> Fraction:
    """The sharpened prime density with the square-part divisibility gate
    removed: defined directly by its Ramanujan-sum product."""
    g1, m2 = progression_split(ctx, q)
    mu_g1 = mobius(g1)
    assert mu_g1 != 0  # g1 divides a square-free number
    num = mu_g1 * ramanujan_sum(g1, a) * ramanujan_sum(m2, a - ctx.residue)
    den = totient(ctx.modulus, tables) * euler_phi(g1)
    return Fraction(num, den)


def prime_model_twist(
    ctx: ProgressionContext, q: FactoredInt, tables: SieveTables
) -> Fraction:
    """Twisted sum of the sharpened prime density against the Ramanujan sum
    at target - a; multiplicative in q.

    The defining double sum over roots of unity collapses: the inner sum
    over r coprime to q of e_q(r (target - a)) is the Ramanujan sum itself.
    Not an integer in general (already q = 3 with a target not divisible
    by 3 and coprime context gives 3/2).
    """
    require_cubefree(q)
    phi_ctx = totient(ctx.modulus, tables)
    total = Fraction(0)
    for a in range(q.value):
        rho_s = prime_density_star(ctx, q, a, tables)
        if rho_s:
            total += phi_ctx * rho_s * ramanujan_sum(q, ctx.target - a)
    return total


def dense_summary(
    numerators: Sequence[int], denominator: int, moduli: Sequence[int]
) -> Summary:
    """The Summary of h(n) = numerators[n - 1] / denominator on
    [1, len(numerators)], with class sums for each q in moduli: every sum
    taken term by term in Python ints."""
    values = [int(x) for x in numerators]
    return Summary(
        length=len(values),
        denominator=denominator,
        norm=sum(x * x for x in values),
        # index i holds n = i + 1, so n ≡ r (mod q) starts at index r - 1
        class_sums={
            q: [sum(values[(r - 1) % q :: q]) for r in range(q)] for q in moduli
        },
    )


# ---------------------------------------------------------------------------
# row forms


def squarefree_density_row(d: FactoredInt) -> tuple[np.ndarray, int]:
    """squarefree_density(d, a) over all residues a mod d, as
    int64 numerators over prod (p^2 - 1) for p | d.  Each numerator is at
    most prod p^2 over p | d."""
    a = np.arange(d.value, dtype=np.int64)
    num = np.ones(d.value, dtype=np.int64)
    for p, e in d.factors:
        if e == 1:
            num *= np.where(a % p == 0, p * (p - 1), p * p)
        else:
            num *= np.where(a % (p * p) == 0, 0, p * p)
    return num, math.prod(p * p - 1 for p, _ in d.factors)


def squarefree_star_row(q: FactoredInt, periods: int = 1) -> tuple[np.ndarray, int]:
    """squarefree_density_star(q, a) at every a in
    [0, periods * q), from its defining Moebius sum over divisors, as int64
    numerators over prod (p^2 - 1) for p | q.

    Each of the at most 2^omega(q) terms is below prod p^2 over p | q, and
    that bound is checked before any array is built."""
    require_int64(2 ** len(q.factors) * math.prod(p * p for p, _ in q.factors))
    shared = math.prod(p * p - 1 for p, _ in q.factors)
    total = np.zeros(periods * q.value, dtype=np.int64)
    for d, cof_mu in divisors_with_cofactor_mobius(q):
        num, den = squarefree_density_row(d)
        # a row mod d repeats along each block of d columns
        total.reshape(-1, d.value)[:] += cof_mu * (shared // den) * num
    return total, shared


def scaled_prime_density_rows(
    contexts: Sequence[ProgressionContext], d: FactoredInt
) -> tuple[np.ndarray, np.ndarray]:
    """phi(q') * prime_density(ctx, d, a) for each context (rows) and each
    residue a mod d (columns), as int64 numerators over one denominator
    per context.

    The entry is d phi(q') / phi(lcm(d, q')) = d phi(g) / phi(d), with
    g = gcd(d, q'), on the units a mod d that agree with the context
    residue mod g, and 0 elsewhere; phi(g) is read off d's primes.  In
    lowest terms the numerator is at most d phi(d) (checked).
    """
    moduli = np.array([ctx.modulus for ctx in contexts], dtype=np.int64)
    residues = np.array([ctx.residue for ctx in contexts], dtype=np.int64)
    phi_d = euler_phi(d)
    require_int64(d.value * phi_d)
    phi_g = np.ones(len(contexts), dtype=np.int64)
    for p, e in d.factors:
        part = np.gcd(moduli, p**e)  # the p-part of g, 1 when p does not divide q'
        phi_g *= np.maximum(part // p * (p - 1), 1)
    nums = d.value * phi_g
    common = np.gcd(nums, phi_d)
    share = np.gcd(moduli, d.value)[:, None]
    a = np.arange(d.value, dtype=np.int64)
    mask = (np.gcd(a, d.value) == 1) & ((a - residues[:, None]) % share == 0)
    return mask * (nums // common)[:, None], phi_d // common


def scaled_star_rows(
    contexts: Sequence[ProgressionContext], q: FactoredInt, periods: int = 1
) -> tuple[np.ndarray, int]:
    """phi(q') * prime_density_star(ctx, q, a) for each context (rows) and
    every a in [0, periods * q) (columns), from the defining Moebius sum
    over divisors d of q, as int64 numerators over one denominator shared
    by the whole stack.

    A row depends on its context only through q' and the residue mod
    gcd(d, q'), so one stack per q replaces one row per (context, q).  Each
    term is below max numerator * (shared / least denominator) of its
    divisor's rows; the sum of those bounds is checked before summing.
    """
    require_cubefree(q)
    terms = [
        (cof_mu, d.value, *scaled_prime_density_rows(contexts, d))
        for d, cof_mu in divisors_with_cofactor_mobius(q)
    ]
    shared = math.lcm(*{int(x) for *_, dens in terms for x in dens.tolist()})
    require_int64(
        sum(
            int(np.abs(nums).max(initial=0)) * (shared // int(dens.min()))
            for *_, nums, dens in terms
        )
    )
    total = np.zeros((len(contexts), periods * q.value), dtype=np.int64)
    for cof_mu, dv, nums, dens in terms:
        # a row mod d repeats along each block of d columns
        total.reshape(len(contexts), -1, dv)[:] += (
            (cof_mu * (shared // dens))[:, None] * nums
        )[:, None, :]
    return total, shared
