"""Per-entry references for the tests, one residue at a time.

The local densities from their defining sums, as exact Fractions: the
square-free densities in units of 6/pi^2, the prime densities without such
a factor.  `sqfrep.oracle` computes the same sums as int64 rows for
`verify`, and `localmodel` the model vectors in closed form; the tests
hold both to these.  The per-entry `prime_density` keeps its phi(lcm)
definition, while the rows read every totient off the modulus's primes.

`squarefree_count_in_ap` counts square-free values along a class with one
step-1 window sieve, a route that shares no code with the Moebius counter
it is held to.
"""

import math
from fractions import Fraction

import numpy as np

from sqfrep.arith import (
    FactoredInt,
    SieveTables,
    divisors_with_cofactor_mobius,
    euler_phi,
    mobius,
    ramanujan_sum,
    require_cubefree,
)
from sqfrep.counting import segmented_squarefree_sieve
from sqfrep.localmodel import ProgressionContext, progression_split
from sqfrep.oracle import totient


def squarefree_count_in_ap(target, residue, modulus, tables):
    """The n in [1, target] with n ≡ residue (mod modulus) and target - n
    square-free, counted over m = target - n in [0, target)."""
    flags = segmented_squarefree_sieve(0, target, tables)
    return int(np.count_nonzero(flags[(target - residue) % modulus :: modulus]))


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
