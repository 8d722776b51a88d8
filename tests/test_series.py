"""Singular-series evaluation: both forms, tails, vanishing, the floor."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqfrep import series
from sqfrep.arith import euler_phi, factorize, primes_up_to
from sqfrep.series import (
    SeriesValue,
    singular_series,
    singular_series_eulerform,
)

P_UNIT = 10**4
P_FINE = 10**5


def mirsky_product(n_factors, cutoff):
    """Independent q=1 evaluation: prod over p not dividing n of
    (1 - 1/(p(p-1))), truncated; relative tail below 1/cutoff."""
    skip = {p for p, _ in n_factors}
    logs = [
        math.log1p(-1.0 / (p * (p - 1)))
        for p in primes_up_to(cutoff).tolist()
        if p not in skip
    ]
    return math.exp(math.fsum(logs))


class TestSeriesValue:
    def test_flag_must_track_zero(self):
        with pytest.raises(ValueError):
            SeriesValue(0.5, 1e-9, True)
        with pytest.raises(ValueError):
            SeriesValue(0.0, 1e-9, False)

    def test_six_over_pi_squared_is_pinned(self):
        # derived from localmodel.PI_SQ_OVER_6, the one spelling of the
        # factor; any other rounding of 6/pi^2 moves printed series bytes
        assert series._SIX_OVER_PI_SQ.hex() == "0x1.37423899a1558p-1"


class TestVanishing:
    def test_frozen_examples(self, tables):
        got = singular_series(factorize(5, tables), 1, factorize(4, tables), P_UNIT)
        assert got.vanished and got.value == 0.0
        both = singular_series_eulerform(
            factorize(10, tables), 1, factorize(9, tables), P_UNIT
        )
        assert both.vanished and both.value == 0.0

    def test_brute_force_characterization(self, tables):
        for qv in range(1, 31):
            q = factorize(qv, tables)
            for a in range(qv):
                if math.gcd(a, qv) != 1:
                    continue
                for nv in range(50, 60):
                    n = factorize(nv, tables)
                    want = any(
                        qv % (p * p) == 0 and (nv - a) % (p * p) == 0
                        for p in range(2, qv + 1)
                    )
                    got = singular_series(n, a, q, 100)
                    assert got.vanished == want, (qv, a, nv)
                    assert (got.value == 0.0) == want


class TestValidation:
    def test_rejects_non_unit_class(self, tables):
        with pytest.raises(ValueError):
            singular_series(factorize(30, tables), 2, factorize(4, tables), 100)
        with pytest.raises(ValueError):
            singular_series_eulerform(
                factorize(30, tables), 3, factorize(9, tables), 100
            )

    def test_rejects_tiny_cutoff(self, tables):
        with pytest.raises(ValueError):
            singular_series(factorize(30, tables), 1, factorize(2, tables), 1)

    def test_class_wraps_mod_q(self, tables):
        n, q = factorize(101, tables), factorize(5, tables)
        lo = singular_series(n, 2, q, P_UNIT)
        hi = singular_series(n, 7, q, P_UNIT)
        assert lo == hi


class TestTrivialModulusForm:
    def test_matches_independent_product(self, tables):
        # Transforming between the two displays moves a factor of
        # prod_{p>P}(1 - 1/p^2), which stays within 1/P of 1.
        one = factorize(1, tables)
        for nv in (1024, 10**6, 3**7, 30030, 101):
            n = factorize(nv, tables)
            got = singular_series(n, 0, one, P_FINE)
            want = mirsky_product(n.factors, P_FINE)
            assert not got.vanished
            assert abs(got.value - want) <= want * (2.0 / P_FINE), nv

    def test_power_of_two_doubles_the_constant(self, tables):
        one = factorize(1, tables)
        n = factorize(1 << 20, tables)
        got = singular_series(n, 0, one, P_FINE).value
        bare = mirsky_product((), P_FINE)
        skip_two = mirsky_product(((2, 1),), P_FINE)
        assert skip_two == pytest.approx(2 * bare, rel=1e-12)
        assert abs(got - skip_two) <= skip_two * (2.0 / P_FINE)

    def test_million_pulls_in_two_and_five(self, tables):
        one = factorize(1, tables)
        n = factorize(10**6, tables)
        got = singular_series(n, 0, one, P_FINE).value
        want = mirsky_product(n.factors, P_FINE)
        assert abs(got - want) <= want * (2.0 / P_FINE)
        # And the exact rational relation to the bare constant:
        bare = mirsky_product((), P_FINE)
        assert got == pytest.approx(bare * 40 / 19, rel=1e-5)

    def test_odd_target_keeps_the_two_factor(self, tables):
        # c_2(odd) = -1, so the p=2 factor must be 1 - 1/3 in both forms.
        one = factorize(1, tables)
        n = factorize(3**7, tables)
        got = singular_series_eulerform(n, 0, one, P_FINE).value
        want = mirsky_product(n.factors, P_FINE)
        assert abs(got - want) <= want * (2.0 / P_FINE)


class TestFormAgreement:
    def test_grid_within_summed_tails(self, tables):
        for qv in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12):
            q = factorize(qv, tables)
            for nv in range(10001, 10007):
                n = factorize(nv, tables)
                for a in range(qv):
                    if math.gcd(a, qv) != 1:
                        continue
                    rud = singular_series(n, a, q, P_UNIT)
                    eul = singular_series_eulerform(n, a, q, P_UNIT)
                    assert rud.vanished == eul.vanished
                    allow = (rud.tail_bound + eul.tail_bound) * abs(rud.value)
                    assert abs(rud.value - eul.value) <= allow + 1e-15, (qv, a, nv)

    def test_cube_in_q_is_accepted(self, tables):
        # Only the p || q and p^2 | q classes matter; a cube rides along.
        n = factorize(10009, tables)
        q = factorize(24, tables)
        rud = singular_series(n, 7, q, P_UNIT)
        eul = singular_series_eulerform(n, 7, q, P_UNIT)
        assert not rud.vanished
        assert abs(rud.value - eul.value) <= 2 * rud.tail_bound * rud.value
        gone = singular_series(n, 1, q, P_UNIT)
        assert gone.vanished  # p = 2: 4 divides both 24 and 10008

    def test_big_prime_in_target_widens_euler_tail(self, tables):
        n = factorize(2 * 10007, tables)
        q = factorize(3, tables)
        rud = singular_series(n, 1, q, P_UNIT)
        eul = singular_series_eulerform(n, 1, q, P_UNIT)
        assert eul.tail_bound > rud.tail_bound
        allow = (rud.tail_bound + eul.tail_bound) * rud.value
        assert abs(rud.value - eul.value) <= allow


class TestMonotoneRefinement:
    def test_intervals_nest(self, tables):
        n = factorize(10**4 + 7, tables)
        for qv, a in ((1, 0), (3, 1), (12, 5)):
            q = factorize(qv, tables)
            prev = None
            for cutoff in (100, 1000, P_UNIT, P_FINE):
                cur = singular_series(n, a, q, cutoff)
                if prev is not None:
                    spread = abs(prev.value) * prev.tail_bound
                    assert prev.value - spread <= cur.value, (qv, cutoff)
                    assert cur.value <= prev.value + spread, (qv, cutoff)
                prev = cur


class TestLowerBound:
    def test_floors_computed_values(self, tables):
        # The crude floor (1/phi(q)) * prod_{p <= q} p/(p+1) of every
        # nonvanishing value at modulus q; a quarter of it is a comfortable
        # sanity margin.
        for qv in (1, 2, 3, 5, 6, 10):
            q = factorize(qv, tables)
            floor = F(1, euler_phi(q))
            for p in primes_up_to(qv).tolist():
                floor *= F(p, p + 1)
            floor = float(floor) / 4
            for nv in range(301, 331):
                n = factorize(nv, tables)
                for a in range(qv):
                    if math.gcd(a, qv) != 1:
                        continue
                    got = singular_series(n, a, q, P_UNIT)
                    if not got.vanished:
                        assert got.value >= floor, (qv, a, nv)


def fsum_log_product(cutoff, dropped, added=()):
    """Oracle for series._log_product: math.fsum over the explicit list of
    bulk terms of the primes up to the cutoff that are not dropped, each
    computed as the series once did per call, plus the added terms."""
    kept = [p for p in primes_up_to(cutoff).tolist() if p not in set(dropped)]
    pf = np.array(kept, dtype=np.float64)
    terms = np.log1p(-1.0 / ((pf * pf - 1.0) * (pf - 1.0)))
    return math.fsum([*terms.tolist(), *added])


BULK_CUTOFFS = (2, 3, 5, 97, 10**5, 10**6)


class TestExactBulkSum:
    """The cached exact bulk sum is bit-identical to math.fsum."""

    def test_matches_fsum_of_the_term_list(self):
        # An added term must lie on the bulk's scale 2**-bits.  The draws
        # reach primes above the cutoff, whose terms may be finer: those
        # lists raise (22 of the 64), and every other one sums bit for bit.
        rng = random.Random(11)
        for cutoff in BULK_CUTOFFS:
            scale = 1 << series._bulk_sum(cutoff).bits
            primes = primes_up_to(max(cutoff, 100) * 2).tolist()
            for _ in range(12 if cutoff < 10**6 else 4):
                dropped = set(rng.sample(primes, rng.randint(0, 6)))
                added = [
                    math.log1p(1.0 / (p * p - 1.0))
                    for p in rng.sample(primes, rng.randint(0, 3))
                ]
                if any(t.as_integer_ratio()[1] > scale for t in added):
                    with pytest.raises(ValueError, match="negative shift"):
                        series._log_product(cutoff, dropped, added)
                    continue
                got = series._log_product(cutoff, dropped, added)
                want = fsum_log_product(cutoff, dropped, added)
                assert got.hex() == want.hex(), (cutoff, sorted(dropped), added)

    @pytest.mark.parametrize("cutoff", BULK_CUTOFFS)
    def test_patched_terms_lie_on_the_bulk_scale(self, cutoff):
        # the eulerform patches log1p(1/(p^2-1)) only for primes p <= cutoff,
        # and none of those terms is finer than the bulk's scale
        scale = 1 << series._bulk_sum(cutoff).bits
        for p in primes_up_to(cutoff).tolist():
            assert math.log1p(1.0 / (p * p - 1.0)).as_integer_ratio()[1] <= scale

    def test_empty_bulk(self):
        assert series._log_product(2, {2}) == 0.0

    @pytest.mark.parametrize("cutoff", BULK_CUTOFFS)
    def test_both_forms_match_the_fsum_route(self, tables, monkeypatch, cutoff):
        rng = random.Random(cutoff)
        # random targets, plus ones with prime factors on both sides of a
        # cutoff: 2310 = 2*3*5*7*11 straddles 2, 3 and 5, 997 * 1009 lies
        # between 97 and 10^5, 2 * 999983 straddles 10^5, 3 * 1000003 10^6
        targets = [rng.randint(1, 10**8) for _ in range(6)]
        targets += [2310, 997 * 1009, 2 * 999983, 3 * 1000003, 1 << 20]
        cases = []
        for nv in targets:
            qv = rng.randint(1, 60)
            a = rng.choice([a for a in range(qv) if math.gcd(a, qv) == 1])
            cases.append((factorize(nv, tables), a, factorize(qv, tables)))
        forms = (singular_series, singular_series_eulerform)
        got = [form(n, a, q, cutoff) for n, a, q in cases for form in forms]
        monkeypatch.setattr(series, "_log_product", fsum_log_product)
        want = [form(n, a, q, cutoff) for n, a, q in cases for form in forms]
        assert got == want


class TestFormAgreementProperty:
    @settings(max_examples=150)
    @given(
        nv=st.one_of(st.integers(1, 10**8), st.integers(1, 500)),
        unit=st.integers(1, 60).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.sampled_from([a for a in range(q) if math.gcd(a, q) == 1]),
            )
        ),
        cutoff=st.one_of(st.integers(2, 200), st.sampled_from((10**4, 10**5))),
    )
    def test_forms_agree_within_summed_tails(self, tables, nv, unit, cutoff):
        qv, a = unit
        n, q = factorize(nv, tables), factorize(qv, tables)
        rud = singular_series(n, a, q, cutoff)
        eul = singular_series_eulerform(n, a, q, cutoff)
        assert rud.vanished == eul.vanished
        allow = (rud.tail_bound + eul.tail_bound) * abs(rud.value)
        assert abs(rud.value - eul.value) <= allow + 1e-15
