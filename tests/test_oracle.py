"""Row forms of the defining-sum oracles against their per-entry forms,
and the int64 guards of the oracles."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqfrep.arith import FactoredInt, euler_phi, factorize
from sqfrep.localmodel import ProgressionContext
from sqfrep.oracle import (
    scaled_prime_density_rows,
    scaled_star_rows,
    squarefree_density_row,
    squarefree_star_row,
)
from oracles import (
    prime_density,
    prime_density_star,
    squarefree_density,
    squarefree_density_star,
)

# both target parities, trivial, prime, prime-power and composite moduli
CONTEXTS = [
    ProgressionContext(10_007, 0, 1),
    ProgressionContext(10_008, 1, 2),
    ProgressionContext(97, 5, 6),
    ProgressionContext(10_007, 2, 9),
    ProgressionContext(101, 7, 12),
    ProgressionContext(10_008, 23, 30),
]


def cubefree_upto(top, tables):
    return [f for q in range(1, top + 1) if (f := factorize(q, tables)).is_cubefree]


# the verify caps: q <= MAX_Q_BOUND and q' <= MAX_QPRIME_BOUND
CUBEFREE_1000 = [q for q in range(1, 1001) if all(q % p**3 for p in (2, 3, 5, 7))]


def _unit_context(data, d):
    """A unit context with q' <= 100, drawn half the time as a multiple of
    a p^2 that divides d, when d has one that fits."""
    squares = [p * p for p, e in d.factors if e == 2 and p * p <= 100]
    if squares and data.draw(st.booleans()):
        square = data.draw(st.sampled_from(squares))
        modulus = square * data.draw(st.integers(1, 100 // square))
    else:
        modulus = data.draw(st.integers(1, 100))
    units = [a for a in range(modulus) if math.gcd(a, modulus) == 1]
    return ProgressionContext(10_007, data.draw(st.sampled_from(units)), modulus)


class TestRowForms:
    def test_squarefree_rows_match_entries(self, tables):
        for q in cubefree_upto(60, tables):
            num, den = squarefree_density_row(q)
            star, star_den = squarefree_star_row(q)
            for a in range(q.value):
                assert F(int(num[a]), den) == squarefree_density(q, a)
                assert F(int(star[a]), star_den) == squarefree_density_star(q, a)

    def test_squarefree_star_row_periods(self, tables):
        q = factorize(12, tables)
        twice, den = squarefree_star_row(q, periods=2)
        assert len(twice) == 24
        for a in range(24):
            assert F(int(twice[a]), den) == squarefree_density_star(q, a)

    def test_prime_rows_match_entries(self, tables):
        for q in cubefree_upto(60, tables):
            nums, dens = scaled_prime_density_rows(CONTEXTS, q)
            star, star_den = scaled_star_rows(CONTEXTS, q)
            assert nums.shape == star.shape == (len(CONTEXTS), q.value)
            for c, ctx in enumerate(CONTEXTS):
                phi_m = euler_phi(factorize(ctx.modulus, tables))
                for a in range(q.value):
                    assert F(int(nums[c, a]), int(dens[c])) == phi_m * prime_density(
                        ctx, q, a, tables
                    ), (ctx, q.value, a)
                    assert F(int(star[c, a]), star_den) == phi_m * prime_density_star(
                        ctx, q, a, tables
                    ), (ctx, q.value, a)

    def test_stack_rows_equal_single_context_rows(self, tables):
        for q in cubefree_upto(36, tables):
            star, den = scaled_star_rows(CONTEXTS, q, periods=2)
            for c, ctx in enumerate(CONTEXTS):
                lone, lone_den = scaled_star_rows([ctx], q, periods=2)
                assert np.array_equal(star[c] * lone_den, lone[0] * den)

    @settings(max_examples=40)
    @given(d=st.sampled_from(CUBEFREE_1000), data=st.data())
    def test_prime_rows_match_entries_at_the_verify_caps(self, tables, d, data):
        d = factorize(d, tables)
        contexts = [_unit_context(data, d) for _ in range(data.draw(st.integers(1, 3)))]
        nums, dens = scaled_prime_density_rows(contexts, d)
        star, star_den = scaled_star_rows(contexts, d)
        for c, ctx in enumerate(contexts):
            phi_m = euler_phi(factorize(ctx.modulus, tables))
            for a in range(d.value):
                want = phi_m * prime_density(ctx, d, a, tables)
                assert F(int(nums[c, a]), int(dens[c])) == want, (ctx, d.value, a)
                want = phi_m * prime_density_star(ctx, d, a, tables)
                assert F(int(star[c, a]), star_den) == want, (ctx, d.value, a)

    def test_star_rows_reject_cubic_modulus(self, tables):
        with pytest.raises(ValueError):
            scaled_star_rows(CONTEXTS, factorize(8, tables))


class TestGuards:
    def test_squarefree_star_row_overflow_raises(self):
        # prod p^2 over two primes near 2^31 and 2^32 passes 2^63 long
        # before any array of q entries is built
        p1, p2 = 2_147_483_647, 4_294_967_291
        q = FactoredInt(p1 * p2, ((p1, 1), (p2, 1)))
        with pytest.raises(OverflowError):
            squarefree_star_row(q)
