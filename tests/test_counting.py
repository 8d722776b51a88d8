"""Segmented sieves and the brute-force counting oracles."""

import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqfrep.arith import CapacityError, build_sieve, factorize, require_unit
import sqfrep.counting as counting
from sqfrep.counting import (
    DEFAULT_WINDOW,
    LOG_BITS,
    LOG_SCALE,
    MAX_THREADS,
    MIN_THREADED_WINDOW,
    _StrikePlan,
    _lane_table,
    _scan,
    count_classes,
    count_representations,
    exact_class_sums,
    log_class_sums,
    log_numerators,
    scan_workers,
    segmented_prime_sieve,
    segmented_squarefree_sieve,
    squarefree_class_counts,
    window_length,
)
from sqfrep.localmodel import PI_SQ_OVER_6
from oracles import squarefree_count_in_ap, squarefree_density


class TestSegmentedSquarefree:
    def test_matches_dense_table(self, tables):
        got = segmented_squarefree_sieve(0, 2001, tables)
        assert np.array_equal(got, tables.mobius[:2001] != 0)

    def test_zero_is_not_squarefree(self, tables):
        assert not segmented_squarefree_sieve(0, 5, tables)[0]

    def test_interior_window(self, tables):
        lo, hi = 9_990, 10_123
        got = segmented_squarefree_sieve(lo, hi, tables)
        assert np.array_equal(got, tables.mobius[lo:hi] != 0)

    def test_beyond_table_limit(self, tables):
        # Values past the dense table, still under limit^2.
        lo = tables.limit**2 - 300
        hi = tables.limit**2 + 1
        got = segmented_squarefree_sieve(lo, hi, tables)
        for off in (0, 7, 123, 299, 300):
            v = factorize(lo + off, tables) if lo + off else None
            assert got[off] == (v.is_squarefree if v else False), off

    def test_rejects_out_of_coverage(self, tables):
        small = build_sieve(100)
        with pytest.raises(CapacityError):
            segmented_squarefree_sieve(0, 100**2 + 2, small)
        with pytest.raises(ValueError):
            segmented_squarefree_sieve(5, 5, small)
        with pytest.raises(ValueError):
            segmented_squarefree_sieve(-1, 5, small)


class TestSegmentedPrime:
    def test_matches_dense_table(self, tables):
        got = segmented_prime_sieve(0, 2001, tables)
        dense = tables.smallest_prime_factor[:2001] == np.arange(2001)
        dense[:2] = False
        assert np.array_equal(got, dense)

    def test_interior_window(self, tables):
        lo, hi = 19_000, 20_001
        got = segmented_prime_sieve(lo, hi, tables)
        dense = tables.smallest_prime_factor[lo:hi] == np.arange(lo, hi)
        assert np.array_equal(got, dense)

    def test_beyond_table_limit(self, tables):
        # Cross-check against trial-division factorization, an independent path.
        lo = 10**8
        got = segmented_prime_sieve(lo, lo + 100, tables)
        for off in range(100):
            f = factorize(lo + off, tables)
            assert got[off] == (f.factors == ((lo + off, 1),)), off


class TestCountRepresentations:
    def test_frozen_small_cases(self, tables):
        r = count_representations(10, 0, 1, tables)
        assert r.unweighted == 3
        assert r.weighted == pytest.approx(math.log(105), abs=1e-12)
        assert count_representations(5, 1, 4, tables).unweighted == 0
        assert count_representations(20, 2, 3, tables).unweighted == 2

    def test_brute_force_match(self, tables):
        spf = tables.smallest_prime_factor
        for target in (50, 101, 144, 997):
            for modulus, residue in ((1, 0), (2, 1), (3, 2), (4, 3), (7, 4)):
                want_w, want_u = 0.0, 0
                for p in range(2, target):
                    if spf[p] != p or p % modulus != residue % modulus:
                        continue
                    if tables.mobius[target - p]:
                        want_u += 1
                        want_w += math.log(p)
                got = count_representations(target, residue, modulus, tables)
                assert got.unweighted == want_u
                assert got.weighted == pytest.approx(want_w, abs=1e-9)

    def test_rejects_bad_input(self, tables):
        with pytest.raises(ValueError):
            count_representations(100, 2, 4, tables)
        with pytest.raises(ValueError):
            count_representations(2, 0, 1, tables)
        with pytest.raises(CapacityError):
            count_representations(101**2, 0, 1, build_sieve(100))
        # a modulus below 1 once gave 0 hits (-7) or a ZeroDivisionError
        # (0), and 0 threads ran one worker
        for bad in (
            lambda: count_representations(100, 1, -7, tables),
            lambda: count_representations(100, 1, 0, tables),
            lambda: count_representations(100, 1, 7, tables, 0),
            lambda: log_class_sums(100, 1, -7, [1], tables),
            lambda: log_class_sums(100, 1, 0, [1], tables),
            lambda: log_class_sums(100, 1, 7, [1], tables, 0),
            # an empty lane once returned a result above the thread cap
            lambda: count_representations(3, 1, 7, tables, threads=1000),
            lambda: log_class_sums(1, 1, 7, [1], tables, threads=1000),
            lambda: require_unit(1, -7),
            lambda: require_unit(1, 0),
        ):
            with pytest.raises(ValueError):
                bad()

    def test_lambda_adds_prime_powers(self, tables):
        r = count_representations(10, 0, 1, tables)
        want = math.log(105) + 2 * math.log(2) + math.log(3)
        assert r.lambda_weighted == pytest.approx(want, abs=1e-12)

    def test_lambda_dominates_weighted(self, tables):
        for target in (100, 5000, 9973):
            for modulus, residue in ((1, 0), (3, 1)):
                r = count_representations(target, residue, modulus, tables)
                assert r.weighted <= r.lambda_weighted
                assert r.lambda_weighted - r.weighted <= 3 * math.sqrt(
                    target
                ) * math.log(target)

    def test_classes_partition_the_total(self, tables, monkeypatch):
        # Summing over coprime classes recovers the q=1 count away from p|q.
        # The exact numerators close with the primes p | q whose mirror is
        # square-free, and with their proper powers (each weighs log p).
        spf, mobius = tables.smallest_prime_factor, tables.mobius

        def log_sum(values):
            return sum(log_numerators(np.array(values, dtype=np.int64)).tolist())

        for key in product((None, 8 << 10), (1000, 1001), (3, 4, 12)):
            cap, target, modulus = key
            _set_window_cap(monkeypatch, cap)
            total = count_representations(target, 0, 1, tables)
            parts = [
                count_representations(target, a, modulus, tables)
                for a in range(modulus)
                if math.gcd(a, modulus) == 1
            ]
            whole = 0
            for p in range(2, target):
                if spf[p] == p and modulus % p != 0 and mobius[target - p]:
                    whole += 1
            assert sum(r.unweighted for r in parts) == whole, key
            shared = [p for p in (2, 3) if modulus % p == 0]
            primes = [p for p in shared if mobius[target - p]]
            powers = [
                p
                for p in shared
                for k in range(2, target.bit_length())
                if p**k < target and mobius[target - p**k]
            ]
            assert (
                sum(r.prime_numerator for r in parts) + log_sum(primes)
                == total.prime_numerator
            ), key
            assert (
                sum(r.power_numerator for r in parts) + log_sum(powers)
                == total.power_numerator
            ), key

    def test_obstructed_class_is_exactly_zero(self, tables):
        # p^2 | q and p^2 | (target - a) force mu^2(target - p) = 0 everywhere.
        hits = 0
        for modulus in (4, 9, 25, 49):
            p2 = modulus
            for target in range(100, 160):
                for a in range(modulus):
                    if math.gcd(a, modulus) != 1 or (target - a) % p2:
                        continue
                    hits += 1
                    assert (
                        count_representations(target, a, modulus, tables).unweighted
                        == 0
                    )
        assert hits > 50

    def test_windows_and_threads_agree(self, tables, monkeypatch):
        base = count_representations(10_000, 1, 3, tables)
        threaded = count_representations(10_000, 1, 3, tables, threads=4)
        assert (base.weighted, base.unweighted, base.lambda_weighted) == (
            threaded.weighted,
            threaded.unweighted,
            threaded.lambda_weighted,
        )
        monkeypatch.setenv("SQFREP_MAX_WINDOW_BYTES", str(1 << 13))
        assert window_length() == 1 << 10
        tiny = count_representations(10_000, 1, 3, tables)
        assert tiny.weighted == base.weighted  # bit-identical reduction
        assert tiny.unweighted == base.unweighted
        assert tiny.lambda_weighted == base.lambda_weighted

    def test_window_env_validation(self, monkeypatch):
        monkeypatch.setenv("SQFREP_MAX_WINDOW_BYTES", "not-a-number")
        with pytest.raises(ValueError):
            window_length()
        monkeypatch.setenv("SQFREP_MAX_WINDOW_BYTES", "-5")
        with pytest.raises(ValueError):
            window_length()


class TestSquarefreeCountInAp:
    """The window-sieve class count of tests/oracles.py."""

    def test_frozen_small_cases(self, tables):
        assert squarefree_count_in_ap(10, 0, 1, tables) == 6
        assert squarefree_count_in_ap(10, 0, 10, tables) == 0

    def test_brute_force_match(self, tables):
        for target in (30, 97, 200):
            for modulus in (1, 2, 5, 9):
                for residue in range(modulus):
                    want = sum(
                        1
                        for n in range(1, target + 1)
                        if n % modulus == residue
                        and target - n > 0
                        and tables.mobius[target - n]
                    )
                    got = squarefree_count_in_ap(target, residue, modulus, tables)
                    assert got == want, (target, modulus, residue)

    def test_classes_partition(self, tables):
        # All classes together count the square-free values in [0, N-1].
        for target in (1000, 19_997):
            whole = np.count_nonzero(tables.mobius[:target])
            for modulus in (7, 20):
                split = sum(
                    squarefree_count_in_ap(target, a, modulus, tables)
                    for a in range(modulus)
                )
                assert split == whole

    def test_main_term_tracking(self, tables):
        # The local density predicts each class count to sqrt accuracy.
        target = 10**5
        for modulus in (4, 9, 12):
            q = factorize(modulus, tables)
            for residue in range(modulus):
                got = squarefree_count_in_ap(target, residue, modulus, tables)
                dens = squarefree_density(q, target - residue)
                main = float(dens) / PI_SQ_OVER_6 * target / modulus
                assert abs(got - main) <= 30 * math.sqrt(target / modulus), (
                    modulus,
                    residue,
                )


class TestMobiusCounter:
    """The sieve-free square-free class counts against the sieve; the two
    share no code."""

    @staticmethod
    def _sieved(top, modulus, tables):
        # the square-free m in [0, top] by class, from one window sieve
        flags = segmented_squarefree_sieve(0, top + 1, tables)
        return [int(np.count_nonzero(flags[r::modulus])) for r in range(modulus)]

    @settings(max_examples=25)
    @given(top=st.integers(0, 10**7), data=st.data())
    def test_matches_the_sieve(self, tables, top, data):
        # moduli together with some of their divisors, in any order, so that
        # the counted maximal moduli are folded
        base = data.draw(st.lists(st.integers(1, 60), min_size=1, max_size=4))
        divisors = [d for m in base for d in range(1, m + 1) if m % d == 0]
        extra = data.draw(st.lists(st.sampled_from(divisors), max_size=3))
        moduli = data.draw(st.permutations(base + extra))
        sieved = {q: self._sieved(top, q, tables) for q in set(moduli)}
        got = squarefree_class_counts(top, moduli, tables)
        assert got == [sieved[q] for q in moduli]

    @pytest.mark.parametrize("top, want", [(0, 0), (1, 1)])
    def test_smallest_tops(self, tables, top, want):
        moduli = (1, 2, 7)
        for modulus, got in zip(moduli, squarefree_class_counts(top, moduli, tables)):
            assert got == self._sieved(top, modulus, tables)
            assert got == [want if r == 1 % modulus else 0 for r in range(modulus)]

    def test_rejects_what_the_tables_cannot_cover(self):
        small = build_sieve(100)
        (counts,) = squarefree_class_counts(100**2, [3], small)
        assert sum(counts) == 6_083
        with pytest.raises(CapacityError):
            squarefree_class_counts(100**2 + 1, [3], small)

    def test_int64_guard_at_its_bound(self, tables):
        # 2 top + q^2 must stay below 2**63.  Tables that claim a limit of
        # 2**32 let top reach that bound while the Moebius table keeps its
        # 20,001 entries, so the counter sums mu(d) top // d^2 over d <= 20,000
        huge = replace(tables, limit=1 << 32)
        top = (1 << 62) - 1
        mobius = tables.mobius.tolist()
        want = sum(mobius[d] * (top // (d * d)) for d in range(1, len(mobius)))
        assert squarefree_class_counts(top, [1], huge) == [[want]]
        with pytest.raises(OverflowError):
            squarefree_class_counts(top + 1, [1], huge)


class TestPsiInAp:
    """Chebyshev psi along a progression: log_class_sums at the modulus
    list [1], whose one sum is psi's numerator over LOG_SCALE."""

    def test_classical_value(self, tables):
        # psi(100): 25 primes plus the proper powers 4,8,16,32,64,9,27,81,25,49.
        want = math.fsum(
            math.log(p)
            for p in range(2, 101)
            if tables.smallest_prime_factor[p] == p
        )
        want += 5 * math.log(2) + 3 * math.log(3) + math.log(5) + math.log(7)
        ((psi,),), _ = log_class_sums(100, 0, 1, [1], tables)
        got = psi / LOG_SCALE
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(94.045, abs=0.01)

    def test_progression_split_sums_to_whole(self, tables):
        target = 30_000
        ((whole,),), _ = log_class_sums(target, 0, 1, [1], tables)
        for modulus in (3, 8):
            split = sum(
                log_class_sums(target, a, modulus, [1], tables)[0][0][0]
                for a in range(modulus)
                if math.gcd(a, modulus) == 1
            )
            # The classes with gcd > 1 hold only powers of p | modulus.
            stray = math.fsum(
                math.log(p)
                for p in (2, 3, 5, 7)
                if modulus % p == 0
                for k in range(1, 40)
                if p**k <= target
            )
            assert split / LOG_SCALE + stray == pytest.approx(
                whole / LOG_SCALE, abs=1e-9
            )

    def test_equidistribution(self, tables):
        target = 200_000
        expect = target / 4  # phi(5) = 4
        for residue in (1, 2, 3, 4):
            ((psi,),), _ = log_class_sums(target, residue, 5, [1], tables)
            assert abs(psi / LOG_SCALE - expect) / expect < 0.02

    def test_large_modulus(self, tables):
        assert log_class_sums(10, 11, 1000, [1], tables)[0] == [[0]]
        ((psi,),), _ = log_class_sums(1000, 997, 1000, [1], tables)
        assert psi / LOG_SCALE == pytest.approx(math.log(997))


class TestCapacity:
    def test_psi_capacity(self):
        small = build_sieve(100)
        with pytest.raises(CapacityError):
            log_class_sums(100**2 + 1, 0, 1, [1], small)


def _dense_flags(top):
    """Prime and square-free flags on [0, top] from a plain dense sieve,
    independent of the segmented code under test."""
    is_prime = np.ones(top + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(top) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    squarefree = np.ones(top + 1, dtype=bool)
    squarefree[0] = False
    for p in np.flatnonzero(is_prime[: math.isqrt(top) + 1]).tolist():
        squarefree[p * p :: p * p] = False
    return is_prime, squarefree


def _brute_sums(target, residue, modulus, is_prime, squarefree):
    """(unweighted, weighted, lambda_weighted, psi) for one class, each the
    correctly rounded math.fsum of every log it adds: the double np.log n at
    a prime n, and np.log p at a proper power n = p^k."""
    residue %= modulus
    primes = np.flatnonzero(is_prime[: target + 1])
    lane = primes[primes % modulus == residue]
    below = lane[lane < target]
    hits = below[squarefree[target - below]]
    hit_logs = np.log(hits.astype(np.float64)).tolist()
    psi_logs = np.log(lane.astype(np.float64)).tolist()
    power_logs = []
    for p in primes[: int(np.searchsorted(primes, math.isqrt(target), "right"))]:
        lg = float(np.log(float(p)))
        v = int(p) * int(p)
        while v <= target:
            if v % modulus == residue:
                psi_logs.append(lg)
                if v < target and squarefree[target - v]:
                    power_logs.append(lg)
            v *= int(p)
    return (
        hits.size,
        math.fsum(hit_logs),
        math.fsum(hit_logs + power_logs),
        math.fsum(psi_logs),
    )


def _set_window_cap(mp, cap):
    if cap is None:
        mp.delenv("SQFREP_MAX_WINDOW_BYTES", raising=False)
    else:
        mp.setenv("SQFREP_MAX_WINDOW_BYTES", str(cap))


class TestExactReduction:
    """Log sums are exact and rounded once, so neither the window size nor
    the thread count changes a bit of any result."""

    def test_window_size_and_threads_never_change_a_bit(self, tables, monkeypatch):
        target, residue, modulus = 10**7, 3, 7
        is_prime, squarefree = _dense_flags(target)
        unweighted, weighted, lam, psi = _brute_sums(
            target, residue, modulus, is_prime, squarefree
        )
        for cap in (None, 16 << 20, 64 << 10):
            _set_window_cap(monkeypatch, cap)
            for threads in (1, 2):
                r = count_representations(target, residue, modulus, tables, threads)
                ((got_psi,),), _ = log_class_sums(
                    target, residue, modulus, [1], tables, threads
                )
                assert (r.unweighted, r.weighted.hex(), r.lambda_weighted.hex()) == (
                    unweighted,
                    weighted.hex(),
                    lam.hex(),
                ), (cap, threads)
                assert (got_psi / LOG_SCALE).hex() == psi.hex(), (cap, threads)


def _unit_class(q):
    return st.sampled_from([a for a in range(q) if math.gcd(a, q) == 1])


class TestScanProperties:
    """The windowed scan against brute force, with many windows in play."""

    scan_settings = settings(max_examples=100)
    inputs = dict(
        # a second range so that a fair share of targets spans many windows
        target=st.one_of(st.integers(3, 2_000), st.integers(2_000, 20_000)),
        unit=st.integers(1, 30).flatmap(lambda q: st.tuples(st.just(q), _unit_class(q))),
        cap=st.sampled_from((8 << 10, 16 << 10, None)),
        threads=st.sampled_from((1, 2)),
    )

    @scan_settings
    @given(**inputs)
    def test_count_matches_brute_force(self, tables, target, unit, cap, threads):
        modulus, residue = unit
        is_prime = tables.smallest_prime_factor == np.arange(tables.limit + 1)
        is_prime[:2] = False
        want = _brute_sums(target, residue, modulus, is_prime, tables.mobius != 0)
        with pytest.MonkeyPatch.context() as mp:
            _set_window_cap(mp, cap)
            r = count_representations(target, residue, modulus, tables, threads)
        assert (r.unweighted, r.weighted, r.lambda_weighted) == want[:3]

    @scan_settings
    @given(
        **inputs,
        # 1, up to three moduli, and a proper divisor of each: a list with
        # repeats and with moduli that divide others
        moduli=st.lists(st.integers(2, 40), min_size=1, max_size=3).flatmap(
            lambda qs: st.permutations(
                [1, *qs, *(q // next(p for p in range(2, q + 1) if q % p == 0) for q in qs)]
            )
        ),
    )
    def test_lambda_sums_match_brute_force(
        self, tables, target, unit, cap, threads, moduli
    ):
        modulus, residue = unit
        is_prime = tables.smallest_prime_factor == np.arange(tables.limit + 1)
        is_prime[:2] = False
        psi = _brute_sums(target, residue, modulus, is_prime, tables.mobius != 0)[3]
        values, nums = (
            a.tolist() for a in _brute_prime_powers(target, residue, modulus, is_prime)
        )
        want = (
            [_python_class_sums(values, nums, q)[1] for q in moduli],
            sum(x * x for x in nums),
        )
        with pytest.MonkeyPatch.context() as mp:
            _set_window_cap(mp, cap)
            got = log_class_sums(target, residue, modulus, moduli, tables, threads)
        assert got == want
        # the one sum at modulus 1 is psi's numerator
        (psi_numerator,) = got[0][moduli.index(1)]
        assert psi_numerator / LOG_SCALE == psi

    def test_one_scan_and_one_power_list_per_call(self, tables, monkeypatch):
        calls = []
        for name in ("_log_scan", "_proper_powers"):
            wrapped = getattr(counting, name)
            monkeypatch.setattr(
                counting,
                name,
                lambda *a, _f=wrapped, _n=name, **k: calls.append(_n) or _f(*a, **k),
            )
        for call in (
            lambda: count_representations(1000, 1, 3, tables),
            lambda: count_classes(1000, range(1, 13), tables),
            lambda: log_class_sums(1000, 1, 3, [1, 4, 6], tables),
            lambda: log_class_sums(1000, 1, 3, [1], tables),
        ):
            calls.clear()
            call()
            assert sorted(calls) == ["_log_scan", "_proper_powers"]


def _trial_division(vals, primes):
    """(prime flags, square-free flags) of the int64 values by trial
    division of every value by every base prime."""
    prime = vals >= 2
    squarefree = vals != 0
    top = int(vals.max(initial=0))
    for p in primes[primes * primes <= top].tolist():
        prime &= (vals % p != 0) | (vals == p)
        squarefree &= vals % (p * p) != 0
    return prime, squarefree


def _brute_window(lo, hi, primes):
    """(prime flags, square-free flags) for [lo, hi) by trial division of
    every value by every base prime."""
    return _trial_division(np.arange(lo, hi, dtype=np.int64), primes)


def _slice_window(lo, hi, primes):
    """(prime flags, square-free flags) for [lo, hi), striking one slice per
    base prime: the plain segmented sieve."""
    prime = np.ones(hi - lo, dtype=bool)
    prime[: max(0, 2 - lo)] = False
    squarefree = np.ones(hi - lo, dtype=bool)
    if lo == 0:
        squarefree[0] = False
    for p in primes[primes * primes < hi].tolist():
        prime[max(p * p, -(-lo // p) * p) - lo :: p] = False
        squarefree[-lo % (p * p) :: p * p] = False
    return prime, squarefree


class TestSieveProperties:
    """Both segmented sieves against brute force, with steps on both sides
    of the split between sliced and vectorised striking."""

    @staticmethod
    def _window(tables, data, lengths):
        top = tables.limit**2 + 1
        length = data.draw(lengths)
        lo = data.draw(
            st.one_of(
                st.integers(0, 10**6),
                st.integers(0, top - length),
                # windows that end at or near the end of coverage
                st.integers(top - 2 * length, top - length).map(lambda v: max(v, 0)),
            )
        )
        return lo, lo + length

    @settings(max_examples=80)
    @given(data=st.data())
    def test_sieves_match_brute_force(self, tables, data):
        # the split sits at length / 32: short windows put most steps above
        # it, and every length here has base primes below it too
        lengths = st.one_of(
            st.sampled_from((1, 2, 31, 32, 33, 64, 65, 1023, 1024, 1025, 2048, 2049)),
            st.integers(1, 4096),
        )
        lo, hi = self._window(tables, data, lengths)
        prime, squarefree = _brute_window(lo, hi, tables.primes)
        assert np.array_equal(segmented_prime_sieve(lo, hi, tables), prime)
        assert np.array_equal(segmented_squarefree_sieve(lo, hi, tables), squarefree)

    @pytest.mark.parametrize("cap", (8 << 10, 16 << 10, None))
    def test_cap_windows_strike_both_ways(self, cap, monkeypatch):
        # limit 40,000 puts base primes above 2**20 / 32 = 32,768, so even a
        # default window has steps on both sides of the split
        wide = build_sieve(40_000)
        _set_window_cap(monkeypatch, cap)
        length = window_length()
        top = wide.limit**2 + 1
        for lo in (top - length, top - length - 12_345, 10**9 + 7):
            for hi in (lo + length, lo + length - 33):
                assert 32 * wide.primes[0] < hi - lo < 32 * wide.primes[-1]
                prime, squarefree = _slice_window(lo, hi, wide.primes)
                assert np.array_equal(segmented_prime_sieve(lo, hi, wide), prime)
                assert np.array_equal(
                    segmented_squarefree_sieve(lo, hi, wide), squarefree
                )

    def test_rejects_tables_beyond_int64(self, tables):
        huge = replace(tables, limit=1 << 32)
        with pytest.raises(OverflowError):
            segmented_prime_sieve(0, 100, huge)
        with pytest.raises(OverflowError):
            segmented_squarefree_sieve(0, 100, huge)


class TestCountClasses:
    """One scan for every class equals one masked scan per class."""

    @settings(max_examples=30)
    @given(
        target=st.one_of(
            st.sampled_from((3, 4, 10, 101, 1000, 1001)), st.integers(3, 20_000)
        ),
        cap=st.sampled_from((8 << 10, 16 << 10, None)),
        threads=st.sampled_from((1, 2)),
    )
    def test_matches_count_representations(self, tables, target, cap, threads):
        with pytest.MonkeyPatch.context() as mp:
            _set_window_cap(mp, cap)
            got = count_classes(target, range(1, 13), tables, threads)
            keys = [
                (q, a) for q in range(1, 13) for a in range(q) if math.gcd(a, q) == 1
            ]
            assert list(got) == keys
            for (q, a), r in got.items():
                want = count_representations(target, a, q, tables, threads)
                assert r == want, (q, a)

    def test_rejects_bad_input(self, tables):
        with pytest.raises(ValueError):
            count_classes(2, [1], tables)
        with pytest.raises(ValueError):
            count_classes(100, [3, 0], tables)
        with pytest.raises(CapacityError):
            count_classes(101**2, [1], build_sieve(100))
        # log_class_sums once summed modulo -7 as if modulo 7, failed mod 0
        # with a numpy warning and mod -3 with numpy's shape error
        for bad in (
            lambda: count_classes(100, [-3], tables),
            lambda: count_classes(100, [3], tables, 0),
            lambda: log_class_sums(100, 1, -7, [1], tables),
            lambda: log_class_sums(100, 1, 0, [1], tables),
            lambda: log_class_sums(100, 1, 7, [0], tables),
            lambda: log_class_sums(100, 1, 7, [4, -3], tables),
            lambda: log_class_sums(100, 1, 7, [1], tables, 0),
            # an empty lane once returned a result above the thread cap
            lambda: log_class_sums(2, 0, 2, [1], tables, threads=1000),
            lambda: count_classes(3, [1, 2], tables, threads=1000),
        ):
            with pytest.raises(ValueError):
                bad()


def _lane_flags(lane, count, tables, lo, hi):
    """Flags of one lane (first, step, exponent) of `count` values on the
    lane indices [lo, hi), from a plan of that one window's length."""
    return _StrikePlan([lane], count, tables, hi - lo).flags(lo, hi)


# Primes whose squares sit low enough for a lane to straddle them.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class TestLaneSieveProperties:
    """The progression sieve against trial division: random lanes, windows
    of lane indices on both sides of the slice split, windows straddling
    p*p (where prime striking starts) and windows ending at limit**2."""

    @staticmethod
    def _lane(tables, data):
        top = tables.limit**2
        step = data.draw(st.integers(1, 60), label="step")
        length = data.draw(
            st.one_of(
                st.sampled_from((1, 2, 31, 32, 33, 64, 65, 1023, 1024, 1025)),
                st.integers(1, 2048),
            ),
            label="length",
        )
        kind = data.draw(st.sampled_from(("random", "square", "end")), label="kind")
        if kind == "random":
            first = data.draw(st.integers(0, top), label="first")
            count = data.draw(st.integers(1, (top - first) // step + 1), label="count")
            lo = data.draw(st.integers(0, count - 1), label="lo")
        elif kind == "square":
            # the lane holds p*p at index `before`, inside the window
            p = data.draw(st.sampled_from(_SMALL_PRIMES), label="p")
            before = min(data.draw(st.integers(0, 2 * length)), p * p // step)
            first = p * p - step * before
            count = before + 1 + data.draw(st.integers(0, 3 * length), label="after")
            lo = max(0, before - data.draw(st.integers(0, length - 1), label="back"))
        else:
            count = data.draw(st.integers(1, 10**6), label="count")
            first = top - step * (count - 1)
            lo = max(0, count - length)
        return first, step, count, lo, min(lo + length, count)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_lanes_match_trial_division(self, tables, data):
        first, step, count, lo, hi = self._lane(tables, data)
        last = first + step * (count - 1)
        vals = first + step * np.arange(lo, hi, dtype=np.int64)
        prime, squarefree = _trial_division(vals, tables.primes)
        got = _lane_flags((first, step, 1), count, tables, lo, hi)
        assert np.array_equal(got, prime)
        got = _lane_flags((first, step, 2), count, tables, lo, hi)
        assert np.array_equal(got, squarefree)
        # the same values read downwards, as the mirror of a count reads them
        down = _lane_flags((last, -step, 2), count, tables, count - hi, count - lo)
        assert np.array_equal(down, squarefree[::-1])

    @pytest.mark.parametrize(
        "first, step", ((6, 12), (4, 8), (0, 4), (18, 36), (9, 27), (2, 2), (3, 6))
    )
    @pytest.mark.parametrize("length", (1024, 4096))
    def test_classes_sharing_a_factor_with_the_step(self, tables, first, step, length):
        # g = gcd(step, p*p) is p or p*p for some p dividing step
        count = 300_000 // step
        vals = first + step * np.arange(count, dtype=np.int64)
        prime, squarefree = _trial_division(vals, tables.primes)
        primes = _StrikePlan([(first, step, 1)], count, tables, length)
        squares = _StrikePlan([(first, step, 2)], count, tables, length)
        for lo in range(0, count, length):
            hi = min(lo + length, count)
            assert np.array_equal(primes.flags(lo, hi), prime[lo:hi]), lo
            assert np.array_equal(squares.flags(lo, hi), squarefree[lo:hi]), lo

    def test_rejects_empty_and_uncovered_lanes(self, tables):
        small = build_sieve(100)
        with pytest.raises(ValueError):
            _lane_table(5, 3, 0, 1, small)
        with pytest.raises(ValueError):
            _lane_table(5, -3, 3, 2, small)
        with pytest.raises(CapacityError):
            _lane_table(9_000, 500, 4, 2, small)


def _python_anchors(first, step, count, exponent, tables):
    """Sorted (period, anchor) pairs of one lane, each solved with Python
    ints and pow(a, -1, period), prime by prime."""
    if count == 1:
        step = 1
    last = first + step * (count - 1)
    top = math.isqrt(max(first, last))
    c, a = (first, step) if step > 0 else (-first, -step)
    solved = []
    for p in tables.primes[tables.primes <= top].tolist():
        g = math.gcd(a, p**exponent)
        if c % g:
            continue
        period = p**exponent // g
        anchor = -(c // g) * pow(a // g, -1, period) % period
        if exponent == 1:
            start = max(-((first - p * p) // step), 0)
            anchor = start + (anchor - start) % period
        solved.append((period, anchor))
    return sorted(solved)


@pytest.fixture(scope="module")
def wide_tables():
    # squares of base primes past 2**31 / 2**17: periods that take the
    # chunked product
    return build_sieve(100_003)


class TestLaneAnchors:
    """Every lane's anchors are solved for all base primes at once, in
    int64; they must equal Python's pow(a, -1, period) prime by prime."""

    def test_inverses_match_pow(self, rng):
        for bits in (8, 31, 40, 52, 61):
            moduli = rng.integers(2, 1 << bits, 400)
            units = rng.integers(0, 1 << bits, 400) % moduli
            coprime = np.array(
                [math.gcd(u, m) == 1 for u, m in zip(units.tolist(), moduli.tolist())]
            )
            units, moduli = units[coprime], moduli[coprime]
            got = counting._inverses(units, moduli).tolist()
            want = [pow(u, -1, m) for u, m in zip(units.tolist(), moduli.tolist())]
            assert got == want, bits
        # modulus 1: every residue is 0, and so is its inverse
        ones = np.ones(3, dtype=np.int64)
        assert counting._inverses(ones - 1, ones).tolist() == [0, 0, 0]

    def test_mulmod_matches_python(self, rng):
        for bits in (1, 20, 31, 32, 45, 62):
            moduli = rng.integers(1, (1 << bits) + 1, 500)
            x = rng.integers(0, 1 << 62, 500) % moduli
            y = rng.integers(0, 1 << 62, 500) % moduli
            got = counting._mulmod(x, y, moduli).tolist()
            triples = zip(x.tolist(), y.tolist(), moduli.tolist())
            want = [a * b % m for a, b, m in triples]
            assert got == want, bits

    @settings(max_examples=200)
    @given(data=st.data())
    def test_anchors_match_pow(self, tables, data):
        top = tables.limit**2
        p = data.draw(st.sampled_from(_SMALL_PRIMES + (19_997,)), label="p")
        # random steps, and steps sharing p or p*p with the prime powers
        share = data.draw(st.sampled_from((1, p, p * p)), label="share")
        step = share * data.draw(st.integers(1, min(10**6, top // share)), label="k")
        first = data.draw(st.integers(0, top - step), label="first")
        count = data.draw(st.integers(1, (top - first) // step + 1), label="count")
        last = first + step * (count - 1)
        for lane in ((first, step, 1), (first, step, 2), (last, -step, 2)):
            periods, anchors, _ = _lane_table(*lane[:2], count, lane[2], tables)
            assert sorted(zip(periods.tolist(), anchors.tolist())) == (
                _python_anchors(*lane[:2], count, lane[2], tables)
            ), lane
            plan = _StrikePlan([lane], count, tables, DEFAULT_WINDOW)
            assert plan.periods.tolist() == sorted(periods.tolist())

    @pytest.mark.parametrize("step", (1, 14, 2 * 99_991, 2 * 97**2, 999_983))
    def test_periods_past_two_to_the_31(self, wide_tables, step):
        top = wide_tables.limit**2
        count = min(10**6, top // step)
        first = top - step * (count - 1)
        for lane in ((first, step, 1), (first, step, 2), (top, -step, 2)):
            periods, anchors, _ = _lane_table(*lane[:2], count, lane[2], wide_tables)
            assert lane[2] == 1 or periods.max() > 1 << 31
            assert sorted(zip(periods.tolist(), anchors.tolist())) == (
                _python_anchors(*lane[:2], count, lane[2], wide_tables)
            ), lane


# Tables small enough that _dense_flags covers all of limit**2.
_FUSED_LIMIT = 1_500


@pytest.fixture(scope="module")
def fused_tables():
    return build_sieve(_FUSED_LIMIT)


@pytest.fixture(scope="module")
def dense_to_limit_squared():
    return _dense_flags(_FUSED_LIMIT**2)


def _count_lanes(target, first, step):
    """The two lanes of a count: values first + step*j in [0, target]
    ascending for primes, and their mirrors target - value descending."""
    return [(first, step, 1), (target - first, -step, 2)]


def _check_fused(tables, dense, target, first, step, count, length, lo):
    """The fused plan's row on the window at lo is prime(n) and
    mu^2(target - n) by the dense sieve, and the AND of each lane's own
    one-lane plan, which equals the dense sieve too; returns the plan."""
    is_prime, squarefree = dense
    lanes = _count_lanes(target, first, step)
    plan = _StrikePlan(lanes, count, tables, length)
    hi = min(lo + length, count)
    fused = plan.flags(lo, hi)
    vals = first + step * np.arange(lo, hi, dtype=np.int64)
    want = is_prime[vals], squarefree[target - vals]
    assert fused.shape == (hi - lo,)
    assert np.array_equal(fused, want[0] & want[1])
    singles = [
        _StrikePlan([lane], count, tables, length).flags(lo, hi) for lane in lanes
    ]
    for single, dense_row in zip(singles, want):
        assert np.array_equal(single, dense_row)
    assert np.array_equal(fused, singles[0] & singles[1])
    return plan


class TestFusedPlan:
    """One plan strikes a count's prime lane and its square-free mirror
    into one row; it must equal the AND of the lanes sieved alone and of a
    plain dense sieve."""

    CAPS = (8 << 10, 16 << 10, 64 << 10, 1 << 20, None)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_fused_rows_match_single_lanes_and_dense(
        self, fused_tables, dense_to_limit_squared, data
    ):
        top = _FUSED_LIMIT**2
        step = data.draw(st.integers(1, 60), label="step")
        # unit and non-unit classes alike
        first = data.draw(st.integers(0, step - 1), label="first")
        target = data.draw(
            st.one_of(
                st.integers(first, top),
                # lanes whose values reach limit**2
                st.integers(max(first, top - 3 * step), top),
            ),
            label="target",
        )
        count = (target - first) // step + 1
        cap = data.draw(st.sampled_from(self.CAPS), label="cap")
        with pytest.MonkeyPatch.context() as mp:
            _set_window_cap(mp, cap)
            length = window_length()
        last = (count - 1) // length * length
        lo = data.draw(
            st.one_of(
                st.just(last),  # the last window, often partial
                st.just(0),
                st.integers(0, last // length).map(lambda w: w * length),
            ),
            label="lo",
        )
        _check_fused(
            fused_tables, dense_to_limit_squared, target, first, step, count, length, lo
        )

    @pytest.mark.parametrize("step", (1, 6, 7, 30))
    def test_windows_that_end_at_limit_squared(
        self, fused_tables, dense_to_limit_squared, step
    ):
        top = _FUSED_LIMIT**2
        for first in range(step):
            # the prime lane ends at limit**2, the mirror lane starts there
            count = (top - first) // step + 1
            for length in (1 << 10, 1 << 20):
                lo = (count - 1) // length * length
                _check_fused(
                    fused_tables, dense_to_limit_squared, top, first, step, count,
                    length, lo,
                )

    def test_every_period_at_least_the_window(
        self, fused_tables, dense_to_limit_squared
    ):
        # on a step-1 lane every period is a prime or a square, at least 2
        target, length = 99_991, 2
        plan = _check_fused(
            fused_tables, dense_to_limit_squared, target, 0, 1, target + 1,
            length, 50_000,
        )
        assert plan.periods.min() >= length
        for lo in (0, 2, 1_000, target - 1, target):
            _check_fused(
                fused_tables, dense_to_limit_squared, target, 0, 1, target + 1,
                length, lo,
            )

    def test_no_period_reaches_the_window(self, fused_tables, dense_to_limit_squared):
        # values up to 10**6 take base primes up to 1000, squares up to 10**6
        target, step, length = 10**6, 3, 1 << 20
        count = (target - 2) // step + 1
        plan = _check_fused(
            fused_tables, dense_to_limit_squared, target, 2, step, count, length, 0
        )
        assert 0 < plan.periods.max() < length

    def test_int64_bound_is_one_row_for_any_lane_count(self):
        # the bound is limit**2 + limit + length + 1: lanes share one row,
        # so a window that fits one lane below 2**63 fits two (no window is
        # sieved)
        limit = math.isqrt((1 << 63) - 1)
        headroom = (1 << 63) - limit**2 - limit
        huge = replace(build_sieve(100), limit=limit)
        for lanes in ([(0, 1, 2)], [(0, 1, 2)] * 2):
            _StrikePlan(lanes, 100, huge, headroom - 2)
            with pytest.raises(OverflowError):
                _StrikePlan(lanes, 100, huge, headroom - 1)

    @pytest.mark.parametrize("cap", (4 << 20, None))
    def test_threads_change_no_bit_at_long_windows(self, tables, monkeypatch, cap):
        # windows of 2**19 and 2**20 entries, several per scan, two workers
        _set_window_cap(monkeypatch, cap)
        length = window_length()
        assert length >= MIN_THREADED_WINDOW
        for target, residue, modulus in ((3_000_017, 0, 1), (12_000_003, 2, 3)):
            windows = len(range(0, target // modulus, length))
            assert scan_workers(2, windows, length) == 2
            one = count_representations(target, residue, modulus, tables, 1)
            two = count_representations(target, residue, modulus, tables, 2)
            assert (one.unweighted, one.weighted.hex(), one.lambda_weighted.hex()) == (
                two.unweighted,
                two.weighted.hex(),
                two.lambda_weighted.hex(),
            )
        classes = [count_classes(3_000_017, (1, 4, 6), tables, t) for t in (1, 2)]
        assert [(r.unweighted, r.weighted.hex()) for r in classes[0].values()] == [
            (r.unweighted, r.weighted.hex()) for r in classes[1].values()
        ]


def _scan_hits(target, residue, modulus, tables, threads, mirror=True):
    """(hits, proper powers) of a scan of the n < target in the class, with
    target - n square-free if `mirror`: the even head's and the lane's
    hits, and _proper_powers beside them, each sorted."""
    hits = []

    def reduce(values, nums):
        hits.extend(values.tolist())

    mirror = target if mirror else None
    for _ in counting._log_scan(
        target - 1, residue, modulus, tables, reduce, threads, mirror
    ):
        pass
    powers, _ = counting._proper_powers(target - 1, residue, modulus, tables, mirror)
    return sorted(hits), powers.tolist()


# Proper prime powers below 2e5, even ones among them.
_PROPER_POWERS = (
    4, 8, 9, 16, 25, 27, 32, 49, 64, 121, 125, 128, 169, 243, 343, 1024, 2187,
    3125, 16_807, 59_049, 65_536, 161_051,
)


def _dense_prime_powers(top, is_prime):
    """Flags on [0, top] of the prime powers p^k, k >= 1."""
    prime_powers = is_prime.copy()
    for p in np.flatnonzero(is_prime[: math.isqrt(top) + 1]).tolist():
        power = p * p
        while power <= top:
            prime_powers[power] = True
            power *= p
    return prime_powers


class TestOneRowFlags:
    """A count strikes its prime lane and the square-free mirror into one
    row, and nothing is put back after the strikes: a lane's hits are
    exactly the primes p < N in the class with N - p square-free, and
    _proper_powers gives the proper powers n with N - n square-free beside
    the scan, at every window size and thread count, with or without the
    mirror."""

    @settings(max_examples=40)
    @given(data=st.data())
    def test_scan_hits_match_brute_force(self, tables, data):
        modulus = data.draw(st.integers(1, 30), label="q")
        if data.draw(st.booleans(), label="struck power"):
            # N - v has the square factor d*d for a proper power v
            v = data.draw(st.sampled_from(_PROPER_POWERS), label="v")
            d = data.draw(st.sampled_from((2, 3, 5)), label="d")
            target = v + d * d * data.draw(
                st.integers(1, (200_000 - v) // (d * d)), label="m"
            )
        else:
            target = data.draw(st.integers(3, 200_000), label="N")
        is_prime, squarefree = _dense_flags(target)
        prime_powers = _dense_prime_powers(target, is_prime)
        n = np.arange(target)
        with pytest.MonkeyPatch.context() as mp:
            # two workers even on the short windows of the 8 KiB cap
            mp.setattr(counting, "MIN_THREADED_WINDOW", 1)
            for mirror in (True, False):
                wanted = prime_powers[:target].copy()
                if mirror:
                    wanted &= squarefree[target - n]
                for residue in (a for a in range(modulus) if math.gcd(a, modulus) == 1):
                    want = np.flatnonzero(wanted & (n % modulus == residue)).tolist()
                    want_powers = [v for v in want if not is_prime[v]]
                    for cap in (None, 8 << 10):
                        _set_window_cap(mp, cap)
                        for threads in (1, 2):
                            key = (residue, mirror, cap, threads)
                            hits, powers = _scan_hits(
                                target, residue, modulus, tables, threads, mirror
                            )
                            assert is_prime[hits].all(), key
                            got = sorted(hits + powers), powers
                            assert got == (want, want_powers), key

    def test_one_value_lanes_of_a_huge_modulus(self, tables):
        # a numpy remainder modulo 7**40 overflows; the residues v and
        # v + 7**40 name the class whose one value below N is v.  The mirror
        # strikes the proper powers 125 (N - 125 = 25 * 7) and 2^k (4
        # divides N - 2^k)
        modulus = 7**40
        target = 300
        is_prime, squarefree = _dense_flags(target)
        prime_powers = _dense_prime_powers(target, is_prime)
        for v in range(2, target):
            for mirror in (True, False):
                kept = prime_powers[v] and (squarefree[target - v] or not mirror)
                prime = kept and is_prime[v]
                want = ([v] if prime else [], [v] if kept and not prime else [])
                for residue in (v, v + modulus):
                    got = _scan_hits(target, residue, modulus, tables, 1, mirror)
                    assert got == want, (v, residue, mirror)


class TestKnownAnswers:
    """Published counts at 10^8 (OEIS A071172 and A006880)."""

    def test_squarefree_count_at_1e8(self, tables):
        # the square-free m in [1, 10^8): by the Moebius counter and by
        # window sieves, which share no code
        assert squarefree_class_counts(10**8 - 1, [1], tables) == [[60_792_694]]
        width, top = 1 << 22, 10**8
        total = sum(
            int(np.count_nonzero(segmented_squarefree_sieve(lo, min(lo + width, top), tables)))
            for lo in range(0, top, width)
        )
        assert total == 60_792_694

    def test_prime_count_at_1e8(self, tables):
        width, top = 1 << 22, 10**8
        total = sum(
            int(np.count_nonzero(segmented_prime_sieve(lo, min(lo + width, top), tables)))
            for lo in range(0, top, width)
        )
        assert total == 5_761_455


class TestHypothesisProfile:
    def test_every_property_test_is_derandomized(self):
        # conftest loads the profile before any test module builds its settings
        profiles = (settings(), settings(max_examples=5), TestScanProperties.scan_settings)
        for own in profiles:
            assert own.derandomize is True
            assert own.deadline is None


def _brute_prime_powers(target, residue, modulus, is_prime):
    """(values, numerators of log p) of the prime powers p^k <= target in
    the class, in increasing order."""
    found = []
    for p in np.flatnonzero(is_prime[: target + 1]).tolist():
        v = p
        while v <= target:
            if v % modulus == residue % modulus:
                found.append((v, p))
            v *= p
    found.sort()
    vals = np.array([v for v, _ in found], dtype=np.int64)
    logs = np.log(np.array([p for _, p in found], dtype=np.float64))
    return vals, np.ldexp(logs, LOG_BITS).astype(np.int64)


class TestLaneInvariance:
    """Every single-class scan gives the same bits for every modulus, window
    cap and thread count, and equals brute force."""

    MODULI = (1, 2, 7, 12, 30)
    CAPS = (8 << 10, 16 << 10, None)

    # 29 and 3 leave some lanes empty (q > N) or with one value; at 8 KiB
    # a lane mod 30 up to 100,003 spans four windows
    @pytest.mark.parametrize("target", (3, 29, 4_097, 100_003))
    def test_all_scans_match_brute_force(self, tables, monkeypatch, target):
        is_prime, squarefree = _dense_flags(target)
        for modulus in self.MODULI:
            for residue in range(modulus):
                unit = math.gcd(residue, modulus) == 1
                if unit:
                    sums = _brute_sums(target, residue, modulus, is_prime, squarefree)
                vals, nums = (
                    a.tolist()
                    for a in _brute_prime_powers(target, residue, modulus, is_prime)
                )
                # a modulus above the target sums one value per class, so
                # up to 4,097 its class sums are the weights themselves
                moduli = (1, 12, 35, min(target, 4_097) + 1)
                want_pp = (
                    [_python_class_sums(vals, nums, q)[1] for q in moduli],
                    sum(x * x for x in nums),
                )
                for cap in self.CAPS:
                    _set_window_cap(monkeypatch, cap)
                    got = log_class_sums(target, residue, modulus, moduli, tables)
                    assert got == want_pp, (modulus, residue, cap)
                    if not unit:
                        continue
                    for threads in (1, 2):
                        key = (modulus, residue, cap, threads)
                        r = count_representations(
                            target, residue, modulus, tables, threads
                        )
                        ((psi,),), _ = log_class_sums(
                            target, residue, modulus, [1], tables, threads
                        )
                        assert (r.unweighted, r.weighted, r.lambda_weighted) == sums[
                            :3
                        ], key
                        assert psi / LOG_SCALE == sums[3], key

    def test_pinned_weighted_count(self, tables, monkeypatch):
        want = float.fromhex("0x1.193ed2afa286fp+20")
        for cap in self.CAPS:
            _set_window_cap(monkeypatch, cap)
            for threads in (1, 2):
                got = count_representations(10**7, 3, 7, tables, threads)
                assert got.weighted == want, (cap, threads)

    def test_one_value_lane_of_a_huge_modulus(self, tables):
        modulus = 7**40
        r = count_representations(101, 97, modulus, tables)
        assert (r.unweighted, r.weighted) == (0, 0.0)  # 101 - 97 = 4
        r = count_representations(101, 99 + modulus, modulus, tables)
        assert (r.unweighted, r.lambda_weighted) == (0, 0.0)  # 99 = 9 * 11
        assert count_representations(100, 97, modulus, tables).weighted == math.log(97)
        for residue, p in ((97, 97), (64, 2)):
            ((psi,),), _ = log_class_sums(101, residue, modulus, [1], tables)
            assert psi / LOG_SCALE == math.log(p)

    def test_tables_beyond_int64_raise_from_every_scan(self, tables):
        huge = replace(tables, limit=1 << 32)
        with pytest.raises(OverflowError):
            count_representations(1000, 1, 3, huge)
        with pytest.raises(OverflowError):
            log_class_sums(1000, 1, 3, [1], huge)
        with pytest.raises(OverflowError):
            count_classes(1000, [1, 3], huge)


class TestScanWorkers:
    """The worker count of a scan: never more workers than windows, one
    worker for windows below the threading crossover, and no more than
    MAX_THREADS asked for."""

    def test_rule(self):
        long = MIN_THREADED_WINDOW
        assert scan_workers(1, 100, long) == 1
        assert scan_workers(2, 100, long) == 2
        assert scan_workers(4, 3, long) == 3
        assert scan_workers(2, 1, 1 << 20) == 1
        assert scan_workers(2, 100, long - 1) == 1
        assert scan_workers(2, 1000, 1 << 10) == 1

    def test_threads_are_capped(self, tables, monkeypatch):
        import concurrent.futures

        assert scan_workers(MAX_THREADS, 1000, DEFAULT_WINDOW) == MAX_THREADS
        # every entry point rejects the thread count before its first
        # window, at any window length and on an empty lane: no pool starts
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
        over = MAX_THREADS + 1
        for cap in (None, 8 << 10):
            _set_window_cap(monkeypatch, cap)
            for call in (
                lambda: count_representations(3 * 10**8, 0, 1, tables, over),
                lambda: count_representations(3, 1, 7, tables, over),
                lambda: count_classes(3 * 10**8, [1, 2], tables, over),
                lambda: log_class_sums(10**6, 1, 3, [1], tables, over),
            ):
                with pytest.raises(ValueError, match=f"{over} threads is above"):
                    call()

    def test_benchmark_two_thread_count_keeps_two_workers(self):
        # count --n 1.2e8 --q 7 --threads 2 at the default window length: the
        # odd lane mod 14 from 3 up to N - 1
        windows = len(range(0, (120_000_000 - 1 - 3) // 14 + 1, DEFAULT_WINDOW))
        assert scan_workers(2, windows, DEFAULT_WINDOW) == 2

    def test_scan_starts_the_ruled_workers(self, monkeypatch):
        import concurrent.futures

        started = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.delenv("SQFREP_MAX_WINDOW_BYTES", raising=False)
        length = window_length()
        for count, threads, want in (
            (3 * length, 4, [3]),
            (3 * length, 2, [2]),
            (length, 2, []),
            (3 * length, 1, []),
        ):
            started.clear()
            got = list(
                _scan(count, lambda lo, hi: hi - lo, lambda lo, n: n, threads, length)
            )
            assert sum(got) == count
            assert started == want, (count, threads)
        monkeypatch.setenv("SQFREP_MAX_WINDOW_BYTES", str(8 << 10))
        started.clear()
        list(
            _scan(100_000, lambda lo, hi: hi - lo, lambda lo, n: n, 2, window_length())
        )
        assert started == []

    def test_threaded_short_windows_change_no_bit(self, tables, monkeypatch):
        # force the thread pool onto 1 Ki windows, below the crossover
        monkeypatch.setattr("sqfrep.counting.MIN_THREADED_WINDOW", 1)
        monkeypatch.setenv("SQFREP_MAX_WINDOW_BYTES", str(8 << 10))
        target = 100_003
        one = count_representations(target, 2, 5, tables, 1)
        two = count_representations(target, 2, 5, tables, 2)
        assert (one.weighted.hex(), one.unweighted, one.lambda_weighted.hex()) == (
            two.weighted.hex(),
            two.unweighted,
            two.lambda_weighted.hex(),
        )
        assert log_class_sums(target, 1, 4, [1], tables, 1) == log_class_sums(
            target, 1, 4, [1], tables, 2
        )
        classes_one = count_classes(target, range(1, 7), tables, 1)
        classes_two = count_classes(target, range(1, 7), tables, 2)
        assert [(r.weighted, r.unweighted) for r in classes_one.values()] == [
            (r.weighted, r.unweighted) for r in classes_two.values()
        ]


class TestScanMemory:
    """A worker holds one row of window_length() bytes, and the workers
    share the reduction's pieces, so a second thread adds about one row."""

    def test_second_thread_adds_one_row(self, tables, monkeypatch):
        monkeypatch.delenv("SQFREP_MAX_WINDOW_BYTES", raising=False)

        def peak(threads):
            tracemalloc.start()
            try:
                count_representations(120_000_000, 3, 7, tables, threads)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the first threaded scan imports the thread pool: warm both first
        for threads in (1, 2):
            count_representations(120_000_000, 3, 7, tables, threads)
        one, two = peak(1), peak(2)
        assert two <= one + window_length() + (1 << 19), (one, two)


    def test_window_never_exceeds_its_lane(self, tables, monkeypatch):
        # a row used to take window_length() + 1 bytes however short the
        # lane: under a 1 GiB cap, count --n 1000 peaked at 159 MB of RSS
        monkeypatch.setenv("SQFREP_MAX_WINDOW_BYTES", str(1 << 30))
        count_representations(1000, 0, 1, tables)
        tracemalloc.start()
        try:
            count_representations(1000, 0, 1, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestOddLane:
    """Prime lanes hold only the odd members of their class; the prime 2 is
    the even head."""

    @pytest.mark.parametrize(
        "cap, run, windows",
        [
            (None, lambda t: count_representations(120_000_000, 3, 7, t, 2), 9),
            (8 << 10, lambda t: count_representations(8_000_000, 1, 3, t), 1_303),
            (None, lambda t: count_classes(3_000_000, range(1, 13), t), 2),
        ],
        ids=("count-t2", "count-capped", "compare"),
    )
    def test_windows_sieved(self, tables, monkeypatch, cap, run, windows):
        # the benchmark's count, capped count and compare sieved 17, 2,605
        # and 3 windows when their lanes held every member of the class
        _set_window_cap(monkeypatch, cap)
        seen = []
        flags = _StrikePlan.flags

        def recording(plan, lo, hi):
            seen.append((lo, hi))
            return flags(plan, lo, hi)

        monkeypatch.setattr(_StrikePlan, "flags", recording)
        run(tables)
        assert len(seen) == windows

    def test_no_even_value_is_sieved(self, tables, monkeypatch):
        lanes = []
        plan_init = _StrikePlan.__init__

        def recording(plan, planned, count, *args):
            lanes.extend((*lane, count) for lane in planned)
            plan_init(plan, planned, count, *args)

        monkeypatch.setattr(_StrikePlan, "__init__", recording)
        target = 20_011
        for modulus in (1, 2, 3, 4, 7, 8, 12, 30):
            for residue in range(modulus):
                log_class_sums(target, residue, modulus, [1], tables)
                if math.gcd(residue, modulus) == 1:
                    count_representations(target, residue, modulus, tables)
        count_classes(target, range(1, 13), tables)
        primes = [lane for lane in lanes if lane[2] == 1]
        assert primes
        for first, step, _, count in primes:
            assert first % 2 == 1 and first >= 3, (first, step)
            assert step % 2 == 0 or count == 1, (first, step)

    @pytest.mark.parametrize(
        "target",
        [
            100_003,  # N - 4 = 9 * 11,111
            100_007,  # N - 8 = 9 * 11,111
            4 + 9 * 25 * 49,  # N - 4 = (3 * 5 * 7)**2
        ],
    )
    def test_even_head_skips_what_the_mirror_strikes(self, tables, monkeypatch, target):
        is_prime, squarefree = _dense_flags(target)
        assert not (squarefree[target - 4] and squarefree[target - 8])
        for modulus in (1, 2, 3, 4, 5, 6, 12):
            for residue in (a for a in range(modulus) if math.gcd(a, modulus) == 1):
                want = _brute_sums(target, residue, modulus, is_prime, squarefree)
                for cap in (8 << 10, None):
                    _set_window_cap(monkeypatch, cap)
                    for threads in (1, 2):
                        r = count_representations(
                            target, residue, modulus, tables, threads
                        )
                        got = (r.unweighted, r.weighted, r.lambda_weighted)
                        assert got == want[:3], (modulus, residue, cap, threads)
        _set_window_cap(monkeypatch, 8 << 10)
        classes = count_classes(target, (1, 4, 3, 12), tables)
        for (q, a), r in classes.items():
            want = _brute_sums(target, a, q, is_prime, squarefree)
            assert (r.unweighted, r.weighted, r.lambda_weighted) == want[:3]


def _python_class_sums(values, numerators, modulus):
    counts, sums = [0] * modulus, [0] * modulus
    for v, x in zip(values, numerators):
        counts[v % modulus] += 1
        sums[v % modulus] += x
    return counts, sums


_MODULI_SETS = ((*range(1, 13),), (4, 6, 35), (1,))


class TestClassSums:
    """The binned class sums against Python-int sums, on both sides of the
    chunk boundary."""

    @settings(max_examples=120)
    @given(
        data=st.data(),
        moduli=st.sampled_from(_MODULI_SETS),
        chunk=st.sampled_from((1, 2, 7, counting.CLASS_SUM_TERMS)),
    )
    def test_matches_python_int_sums(self, data, moduli, chunk):
        # a few chunks when they are patched short, one chunk otherwise
        n = data.draw(st.integers(0, min(3 * chunk + 2, 60)))
        values = data.draw(st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n))
        bound = (1 << 62) - 1
        numerators = data.draw(
            st.lists(
                st.one_of(
                    st.integers(-bound, bound),
                    st.sampled_from((bound, -bound, 0, (1 << 32) - 1, -(1 << 32))),
                ),
                min_size=n,
                max_size=n,
            )
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "CLASS_SUM_TERMS", chunk)
            got = exact_class_sums(
                np.array(numerators, dtype=np.int64),
                np.array(values, dtype=np.int64),
                moduli,
            )
        assert got == [_python_class_sums(values, numerators, q) for q in moduli]

    def test_chunks_stay_below_the_exact_bound(self, monkeypatch):
        # float64 limb sums are exact for fewer than 2**21 terms; one chunk of
        # 2**21 - 1 largest limbs lands just below 2**53 in each class
        assert counting.CLASS_SUM_TERMS < 1 << 21
        n, top = (1 << 21) - 1, (1 << 62) - 1
        monkeypatch.setattr(counting, "CLASS_SUM_TERMS", n)
        values = np.zeros(n, dtype=np.int64)
        values[1::2] = 1
        evens, odds = (n + 1) // 2, n // 2
        got = exact_class_sums(np.full(n, top, dtype=np.int64), values, [2, 1])
        assert got == [([evens, odds], [evens * top, odds * top]), ([n], [n * top])]

    @settings(max_examples=25)
    @given(
        target=st.integers(3, 20_000),
        moduli=st.sampled_from(_MODULI_SETS[1:]),
        chunk=st.sampled_from((3, 64, None)),
        cap=st.sampled_from((8 << 10, None)),
    )
    def test_count_classes_matches_count_representations(
        self, tables, target, moduli, chunk, cap
    ):
        with pytest.MonkeyPatch.context() as mp:
            _set_window_cap(mp, cap)
            if chunk is not None:
                mp.setattr(counting, "CLASS_SUM_TERMS", chunk)
            got = count_classes(target, moduli, tables)
            for (q, a), r in got.items():
                want = count_representations(target, a, q, tables)
                assert (r.unweighted, r.weighted, r.lambda_weighted) == (
                    want.unweighted,
                    want.weighted,
                    want.lambda_weighted,
                ), (q, a)
