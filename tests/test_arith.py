"""Sieve tables, factorization, and Ramanujan sums against brute force."""

import hashlib
import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqfrep.arith import (
    _CHUNK,
    MAX_SEED,
    CapacityError,
    Draws,
    FactoredInt,
    build_sieve,
    cubefree_split,
    divisors,
    divisors_with_cofactor_mobius,
    euler_phi,
    factorize,
    mobius,
    primes_up_to,
    ramanujan_row,
    ramanujan_sum,
    ramanujan_table,
    star_scale,
)


def mu_brute(n: int) -> int:
    if n == 1:
        return 1
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


@lru_cache(maxsize=1)
def brute_tables(limit: int) -> tuple[list[int], list[int]]:
    """Least prime factors and Moebius values of 2..limit by trial division."""
    ns = range(2, limit + 1)
    spf = [next(p for p in range(2, n + 1) if n % p == 0) for n in ns]
    return spf, [mu_brute(n) for n in ns]


class TestBuildSieve:
    @settings(max_examples=30)
    @given(limit=st.integers(2, 5000))
    def test_every_entry_matches_trial_division(self, limit):
        t = build_sieve(limit)
        spf, mu = (row[: limit - 1] for row in brute_tables(5000))
        assert t.smallest_prime_factor[:2].tolist() == [0, 1]
        assert t.smallest_prime_factor[2:].tolist() == spf
        assert t.mobius[:2].tolist() == [0, 1]
        assert t.mobius[2:].tolist() == mu
        assert t.primes.tolist() == [n for n, p in enumerate(spf, start=2) if n == p]
        # the tables share the cached sieve's read-only array
        assert t.primes is primes_up_to(limit)

    # SHA-256 of spf, mu and primes, little-endian, in that order: a build
    # must give these tables bit for bit, across a _CHUNK boundary too
    @pytest.mark.parametrize(
        "limit, digest",
        [
            (20_000, "459a9ee8e947fabfb409388f25c2c2e8a23189f61b29a93c7b4949ca64376aac"),
            (_CHUNK + 1, "a869712b1786d428c8f29c8327d40011f5a4128a4f1afb5c55243566cc4661f4"),
        ],
    )
    def test_tables_are_pinned(self, limit, digest):
        t = build_sieve(limit)
        h = hashlib.sha256()
        for table in (t.smallest_prime_factor, t.mobius, t.primes):
            h.update(table.astype(table.dtype.newbyteorder("<")).tobytes())
        assert h.hexdigest() == digest

    def test_primes_exact_to_1000(self, tables):
        flags = np.ones(1001, dtype=bool)
        flags[:2] = False
        for p in range(2, 32):
            if flags[p]:
                flags[p * p :: p] = False
        expect = np.flatnonzero(flags)
        got = tables.primes[tables.primes <= 1000]
        assert got.tolist() == expect.tolist()

    def test_prime_count_at_limit(self, tables):
        assert len(tables.primes) == 2262  # pi(20000)

    def test_mobius_matches_brute_force(self, tables):
        for n in range(1, 3000):
            assert tables.mobius[n] == mu_brute(n), n

    def test_mobius_large_entries(self, tables):
        # Entries with a prime factor above sqrt(limit), both parities.
        assert tables.mobius[19997] == -1  # prime
        assert tables.mobius[2 * 9973] == 1
        assert tables.mobius[4 * 4999] == 0

    def test_zero_conventions(self, tables):
        assert tables.mobius[0] == 0
        assert tables.smallest_prime_factor[0] == 0
        assert tables.smallest_prime_factor[1] == 1

    def test_tables_are_read_only(self, tables):
        with pytest.raises(ValueError):
            tables.mobius[10] = 5

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            build_sieve(1)

    def test_small_limit_edge(self):
        t = build_sieve(2)
        assert t.primes.tolist() == [2]
        assert t.mobius[:3].tolist() == [0, 1, -1]


class TestFactorize:
    def test_known_factorizations(self, tables):
        assert factorize(1, tables).factors == ()
        assert factorize(2, tables).factors == ((2, 1),)
        assert factorize(360, tables).factors == ((2, 3), (3, 2), (5, 1))
        assert factorize(19997, tables).factors == ((19997, 1),)

    def test_reconstructs_value_over_range(self, tables):
        for n in range(1, 2000):
            f = factorize(n, tables)
            assert math.prod(p**e for p, e in f.factors) == n

    def test_beyond_table_trial_division(self, tables):
        n = 19997 * 19993 * 4
        f = factorize(n, tables)
        assert f.factors == ((2, 2), (19993, 1), (19997, 1))

    def test_large_prime_cofactor_certified(self, tables):
        # 99999989 is prime and below limit**2.
        f = factorize(99999989, tables)
        assert f.factors == ((99999989, 1),)

    def test_uncertifiable_cofactor_raises(self):
        t = build_sieve(100)
        with pytest.raises(CapacityError):
            factorize(10007 * 10009, t)

    def test_rejects_nonpositive(self, tables):
        with pytest.raises(ValueError):
            factorize(0, tables)

    def test_validation_of_factored_int(self):
        with pytest.raises(ValueError):
            FactoredInt(6, ((3, 1), (2, 1)))  # primes out of order
        with pytest.raises(ValueError):
            FactoredInt(6, ((2, 1),))  # wrong product


class TestMultiplicativeFunctions:
    def test_euler_phi(self, tables):
        expect = {1: 1, 2: 1, 10: 4, 12: 4, 360: 96, 997: 996}
        for n, v in expect.items():
            assert euler_phi(factorize(n, tables)) == v

    def test_phi_by_direct_count(self, tables):
        for n in range(1, 200):
            direct = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
            assert euler_phi(factorize(n, tables)) == direct

    def test_mobius_agrees_with_table(self, tables):
        for n in range(1, 500):
            assert mobius(factorize(n, tables)) == tables.mobius[n]

    def test_divisors(self, tables):
        assert divisors(factorize(12, tables)) == [1, 2, 3, 4, 6, 12]
        assert divisors(factorize(1, tables)) == [1]
        assert divisors(factorize(16, tables)) == [1, 2, 4, 8, 16]

    def test_cubefree_split(self, tables):
        for q, parts in {12: (3, 2), 1: (1, 1), 30: (30, 1), 36: (1, 6), 50: (2, 5)}.items():
            q1, q2 = cubefree_split(factorize(q, tables))
            assert (q1.value, q2.value) == parts
        with pytest.raises(ValueError):
            cubefree_split(factorize(8, tables))


def ramanujan_brute(r: int, n: int) -> int:
    total = 0.0
    for a in range(1, r + 1):
        if math.gcd(a, r) == 1:
            total += math.cos(2 * math.pi * a * n / r)
    return round(total)


class TestRamanujanSum:
    def test_matches_exponential_sum(self, tables):
        for r in range(1, 60):
            fr = factorize(r, tables)
            for n in range(0, 60):
                assert ramanujan_sum(fr, n) == ramanujan_brute(r, n), (r, n)

    def test_frozen_values(self, tables):
        assert ramanujan_sum(factorize(5, tables), 10) == 4
        assert ramanujan_sum(factorize(9, tables), 3) == -3
        assert ramanujan_sum(factorize(4, tables), 2) == -2
        assert ramanujan_sum(factorize(6, tables), 0) == 2

    def test_even_in_argument(self, tables):
        f7 = factorize(7, tables)
        for n in range(1, 10):
            assert ramanujan_sum(f7, -n) == ramanujan_sum(f7, n)

    def test_phi_at_zero(self, tables):
        for r in (1, 2, 6, 12, 36):
            fr = factorize(r, tables)
            assert ramanujan_sum(fr, 0) == euler_phi(fr)

    def test_magnitude_bound_by_gcd(self, tables):
        # phi((r, n)) is NOT an upper bound once r has a square factor
        # (c_4(2) = -2); the gcd itself always is.
        for r in range(1, 80):
            fr = factorize(r, tables)
            for n in range(1, 80):
                assert abs(ramanujan_sum(fr, n)) <= math.gcd(r, n)

    def test_squarefree_magnitude_is_phi_of_gcd(self, tables):
        for r in (1, 2, 3, 5, 6, 10, 15, 30, 105):
            fr = factorize(r, tables)
            for n in range(1, 40):
                got = abs(ramanujan_sum(fr, n))
                assert got == euler_phi(factorize(math.gcd(r, n), tables))

    def test_mobius_inversion_form(self, tables):
        # c_r(n) = sum over d | gcd(r, n) of d * mu(r / d).
        for r in range(1, 50):
            fr = factorize(r, tables)
            # the yields are the divisors d with mu(r / d) != 0, each once
            # and factored, against a brute-force list from the sieve
            yields = list(divisors_with_cofactor_mobius(fr))
            brute = [
                (d, int(tables.mobius[r // d])) for d in range(1, r + 1) if r % d == 0
            ]
            assert sorted((d.value, m) for d, m in yields) == [
                (d, m) for d, m in brute if m != 0
            ]
            assert all(d == factorize(d.value, tables) for d, _ in yields)
            for n in range(0, 20):
                s = sum(
                    d.value * mu
                    for d, mu in divisors_with_cofactor_mobius(fr)
                    if n % d.value == 0
                )
                assert s == ramanujan_sum(fr, n), (r, n)

    def test_row_and_table_agree_with_scalar(self, tables):
        for r in (1, 2, 12, 45, 100):
            fr = factorize(r, tables)
            ns = np.arange(2 * r + 5)
            row = ramanujan_row(fr, ns)
            for i, n in enumerate(ns.tolist()):
                assert row[i] == ramanujan_sum(fr, n)
            assert ramanujan_table(fr).tolist() == row[: r].tolist()

    def test_table_cached_and_frozen(self, tables):
        fr = factorize(36, tables)
        t1 = ramanujan_table(fr)
        assert ramanujan_table(fr) is t1
        with pytest.raises(ValueError):
            t1[0] = 99


class TestStarScale:
    def test_values(self, tables):
        assert star_scale(factorize(1, tables)) == 1
        assert star_scale(factorize(2, tables)) == Fraction(-1, 3)
        assert star_scale(factorize(6, tables)) == Fraction(1, 24)
        assert star_scale(factorize(4, tables)) == Fraction(-1, 3)

    def test_depends_only_on_radical(self, tables):
        assert star_scale(factorize(12, tables)) == star_scale(factorize(6, tables))


class TestPrimesUpTo:
    def test_small(self):
        assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_up_to(1).size == 0
        assert primes_up_to(2).tolist() == [2]


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


class TestDraws:
    def test_published_splitmix64_vector(self):
        got = Draws(0).bits(3).tolist()
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, MAX_SEED),
        low=st.integers(INT64_MIN, INT64_MAX - 1),
        span=st.integers(1, 1 << 64),
        a=st.integers(0, 40),
        b=st.integers(0, 40),
    )
    def test_stream(self, seed, low, span, a, b):
        high = min(low + span, INT64_MAX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            apart = Draws(seed)
            first = apart.integers(low, high, size=a)
            second = apart.integers(low, high, size=b)
            single = apart.integers(low, high)
            whole = Draws(seed).integers(low, high, size=a + b + 1)
        assert first.dtype == second.dtype == np.int64
        assert isinstance(single, int)
        drawn = [*first.tolist(), *second.tolist(), single]
        assert drawn == whole.tolist()
        assert all(low <= v < high for v in drawn)

    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1])
    def test_rejects_a_seed_past_the_key(self, seed):
        with pytest.raises(ValueError):
            Draws(seed)

    @pytest.mark.parametrize("low, high", [(5, 5), (5, 4), (0, 1 << 63)])
    def test_rejects_an_empty_or_wide_range(self, low, high):
        with pytest.raises(ValueError):
            Draws(1).integers(low, high)
