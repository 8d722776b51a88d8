"""Local densities, model vectors, and their exact product identities."""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from sqfrep.arith import (
    cubefree_split,
    euler_phi,
    factorize,
    mobius,
    ramanujan_sum,
    star_scale,
)
from sqfrep.counting import exact_class_sums
from sqfrep.localmodel import (
    PI_SQ_OVER_6,
    ProgressionContext,
    local_product,
    model_diff,
    model_sum,
    progression_split,
)
from sqfrep.oracle import alignment_term
from oracles import (
    mirror_density_star,
    prime_density,
    prime_density_star,
    prime_density_star_ungated,
    prime_model_twist,
    squarefree_density,
    squarefree_density_star,
)
from vectors import entries, vector


def cubefree_range(top):
    return [q for q in range(1, top + 1) if all(q % p**3 for p in (2, 3, 5, 7))]


class TestLocalVector:
    def test_entry_count_enforced(self):
        with pytest.raises(ValueError):
            vector(3, (F(1), F(2)))
        # 2**61 over the common denominator 2 reaches the 2**62 bound
        with pytest.raises(ValueError):
            vector(2, (F(2**61), F(1, 2)))

    def test_product_requires_same_modulus(self):
        h = vector(2, (F(1), F(1)))
        g = vector(3, (F(1), F(1), F(1)))
        with pytest.raises(ValueError):
            local_product(h, g)
        # 2 * 2**40 * 2**40 can reach 2**63: the int64 dot refuses
        big = vector(2, (F(2**40), F(1)))
        with pytest.raises(OverflowError):
            local_product(big, big)

    def test_product_value_and_power(self):
        h = vector(2, (F(1), F(-1)))
        g = vector(2, (F(1, 2), F(1, 2)))
        assert local_product(h, g) == F(0)
        assert local_product(h, h) == F(1)


class TestProgressionContext:
    def test_residue_canonicalized(self):
        assert ProgressionContext(10, 7, 6).residue == 1
        assert ProgressionContext(10, 1, 1).residue == 0

    def test_non_unit_residue_rejected(self):
        with pytest.raises(ValueError):
            ProgressionContext(10, 3, 6)
        with pytest.raises(ValueError):
            ProgressionContext(10, 4, 2)

    def test_positivity(self):
        with pytest.raises(ValueError):
            ProgressionContext(0, 1, 2)
        with pytest.raises(ValueError):
            ProgressionContext(5, 0, 0)


class TestSquarefreeDensity:
    def test_trivial_modulus(self, tables):
        assert squarefree_density(factorize(1, tables), 0) == F(1)

    def test_known_values(self, tables):
        assert squarefree_density(factorize(3, tables), 0) == F(3, 4)
        assert squarefree_density(factorize(4, tables), 1) == F(4, 3)

    def test_vanishes_on_shared_square(self, tables):
        q = factorize(4, tables)
        assert squarefree_density(q, 0) == 0
        assert squarefree_density(q, 8) == 0
        assert squarefree_density(q, 2) != 0

    def test_cubic_modulus_sees_only_p_squared(self, tables):
        # mod 8 the answer is decided by the class mod 4
        q8 = factorize(8, tables)
        q4 = factorize(4, tables)
        for a in range(8):
            assert squarefree_density(q8, a) == squarefree_density(q4, a)
        assert squarefree_density(q8, 4) == 0
        assert squarefree_density(q8, 1) == F(4, 3)

    def test_periodic_in_class(self, tables):
        q = factorize(12, tables)
        for a in range(12):
            assert squarefree_density(q, a) == squarefree_density(q, a + 12)

    def test_classes_average_to_one(self, tables):
        # Summing the local density over a full period must give q exactly.
        for qv in cubefree_range(60):
            q = factorize(qv, tables)
            total = sum(squarefree_density(q, a) for a in range(qv))
            assert total == qv, qv

    def test_matches_sieve_counts(self, tables):
        top = tables.limit
        flags = tables.mobius != 0
        for qv in (1, 2, 3, 4, 6, 9, 10):
            q = factorize(qv, tables)
            for a in (0, 1, qv - 1):
                # flags[0] is False, so slicing from the raw residue is safe.
                count = int(flags[a % qv :: qv].sum())
                predicted = float(squarefree_density(q, a)) / PI_SQ_OVER_6 * top / qv
                assert abs(count - predicted) <= 3 * math.sqrt(top / qv)


class TestSquarefreeDensityStar:
    def test_frozen_value(self, tables):
        assert squarefree_density_star(factorize(2, tables), 1) == F(1, 3)

    def test_trivial_modulus(self, tables):
        assert squarefree_density_star(factorize(1, tables), 5) == F(1)

    def test_cubic_modulus_vanishes(self, tables):
        assert squarefree_density_star(factorize(8, tables), 3) == F(0)

    def test_closed_form(self, tables):
        # The sharpened density collapses to the scaled Ramanujan sum.
        for qv in cubefree_range(60):
            q = factorize(qv, tables)
            t = star_scale(q)
            for a in range(qv):
                got = squarefree_density_star(q, a)
                assert got == t * ramanujan_sum(q, a), (qv, a)

    def test_classes_sum_to_zero(self, tables):
        for qv in cubefree_range(30):
            if qv == 1:
                continue
            q = factorize(qv, tables)
            total = sum(squarefree_density_star(q, a) for a in range(qv))
            assert total == 0


class TestPrimeDensity:
    def test_trivial_modulus_value(self, tables):
        ctx = ProgressionContext(100, 5, 6)
        assert prime_density(ctx, factorize(1, tables), 0, tables) == F(1, 2)

    def test_unit_and_consistency_gates(self, tables):
        ctx = ProgressionContext(100, 1, 2)
        q = factorize(4, tables)
        assert prime_density(ctx, q, 2, tables) == 0  # not a unit
        assert prime_density(ctx, q, 3, tables) == F(2)
        ctx2 = ProgressionContext(100, 2, 3)
        assert prime_density(ctx2, factorize(3, tables), 1, tables) == 0
        assert prime_density(ctx2, factorize(3, tables), 2, tables) == F(3, 2)

    def test_scaled_form_multiplicative(self, tables):
        for modulus, residue in ((1, 0), (2, 1), (6, 5)):
            ctx = ProgressionContext(50, residue, modulus)
            phi_m = euler_phi(factorize(modulus, tables))
            for left, right in ((3, 4), (2, 9), (5, 4)):
                q = factorize(left * right, tables)
                ql, qr = factorize(left, tables), factorize(right, tables)
                for a in range(left * right):
                    lhs = phi_m * prime_density(ctx, q, a, tables)
                    rhs = (
                        phi_m
                        * prime_density(ctx, ql, a, tables)
                        * phi_m
                        * prime_density(ctx, qr, a, tables)
                    )
                    assert lhs == rhs, (modulus, left, right, a)


class TestPrimeDensityStar:
    def test_frozen_values(self, tables):
        ctx = ProgressionContext(9, 1, 1)
        q5 = factorize(5, tables)
        assert prime_density_star(ctx, q5, 2, tables) == F(1, 4)
        assert prime_density_star(ctx, q5, 5, tables) == F(-1)

    def test_square_part_gate(self, tables):
        # q carries 2^2 but the context modulus does not: everything dies.
        ctx = ProgressionContext(100, 1, 2)
        q4 = factorize(4, tables)
        assert all(prime_density_star(ctx, q4, a, tables) == 0 for a in range(4))
        assert prime_density_star_ungated(ctx, q4, 1, tables) == F(2)

    def test_matches_gated_closed_form(self, tables):
        for modulus in (1, 2, 3, 6):
            for residue in range(modulus or 1):
                if math.gcd(residue, modulus) != 1:
                    continue
                ctx = ProgressionContext(30, residue, modulus)
                for qv in cubefree_range(40):
                    q = factorize(qv, tables)
                    _, q2 = cubefree_split(q)
                    open_gate = modulus % q2.value**2 == 0
                    for a in range(qv):
                        direct = prime_density_star(ctx, q, a, tables)
                        closed = (
                            prime_density_star_ungated(ctx, q, a, tables)
                            if open_gate
                            else F(0)
                        )
                        assert direct == closed, (modulus, residue, qv, a)

    def test_prime_case_table(self, tables):
        # Scaled by phi(modulus), a single prime takes one of four values.
        ctx = ProgressionContext(60, 5, 6)
        for p in (2, 3, 5, 7, 11):
            q = factorize(p, tables)
            for a in range(p):
                got = 2 * prime_density_star(ctx, q, a, tables)
                if 6 % p == 0:
                    want = F(p - 1) if (a - 5) % p == 0 else F(-1)
                else:
                    want = F(-1) if a % p == 0 else F(1, p - 1)
                assert got == want, (p, a)

    def test_scaled_star_multiplicative(self, tables):
        ctx = ProgressionContext(44, 1, 2)
        for left, right in ((3, 5), (3, 4), (5, 9)):
            q = factorize(left * right, tables)
            ql, qr = factorize(left, tables), factorize(right, tables)
            for a in range(left * right):
                lhs = prime_density_star(ctx, q, a, tables)
                rhs = prime_density_star(ctx, ql, a, tables) * prime_density_star(
                    ctx, qr, a, tables
                )
                assert lhs == rhs  # phi(2) = 1 keeps the scaling invisible


class TestProgressionSplit:
    def test_examples(self, tables):
        ctx = ProgressionContext(100, 1, 2)
        g1, m2 = progression_split(ctx, factorize(12, tables))
        assert (g1.value, m2.value) == (3, 4)
        ctx6 = ProgressionContext(100, 5, 6)
        g1, m2 = progression_split(ctx6, factorize(6, tables))
        assert (g1.value, m2.value) == (1, 6)

    def test_coprime_and_exhaustive(self, tables):
        for modulus, residue in ((1, 0), (2, 1), (6, 1), (30, 7)):
            ctx = ProgressionContext(100, residue, modulus)
            for qv in cubefree_range(50):
                q = factorize(qv, tables)
                g1, m2 = progression_split(ctx, q)
                assert g1.value * m2.value == qv
                assert math.gcd(g1.value, m2.value) == 1
                assert mobius(g1) != 0
                # g1 is exactly the primes p || q with p not dividing q'
                assert g1.value == math.prod(
                    p for p, e in q.factors if e == 1 and modulus % p
                )
                for part in (g1, m2):
                    primes = [p for p, _ in part.factors]
                    assert primes == sorted(set(primes))

    def test_alignment_is_bounded_by_phi(self, tables):
        for target in (30, 31, 36, 49):
            ctx = ProgressionContext(target, 1, 2)
            for qv in cubefree_range(40):
                q = factorize(qv, tables)
                c = alignment_term(ctx, q)
                assert abs(c) <= euler_phi(q)

    def test_alignment_peaks_exactly_on_divisibility(self, tables):
        ctx = ProgressionContext(36, 1, 2)
        for qv in cubefree_range(40):
            q = factorize(qv, tables)
            g1, m2 = progression_split(ctx, q)
            aligned = 36 % g1.value == 0 and (36 - 1) % m2.value == 0
            assert (alignment_term(ctx, q) == euler_phi(q)) == aligned


def model_contexts():
    return [
        ProgressionContext(1000, 1, 1),
        ProgressionContext(1001, 1, 1),
        ProgressionContext(999, 1, 2),
        ProgressionContext(1000, 5, 6),
        ProgressionContext(997, 2, 15),
    ]


class TestModelVectors:
    def test_trivial_modulus(self, tables):
        ctx = ProgressionContext(50, 1, 2)
        one = factorize(1, tables)
        assert entries(model_sum(ctx, one, tables)) == (F(1),)
        assert entries(model_diff(ctx, one, tables)) == (F(0),)

    def test_even_target_mod_two(self, tables):
        ctx = ProgressionContext(1000, 1, 1)
        two = factorize(2, tables)
        assert entries(model_sum(ctx, two, tables)) == (F(1), F(-1))
        assert entries(model_diff(ctx, two, tables)) == (F(0), F(0))

    def test_odd_target_mod_two_degenerates(self, tables):
        ctx = ProgressionContext(999, 1, 1)
        two = factorize(2, tables)
        assert entries(model_sum(ctx, two, tables)) == (F(0), F(0))
        assert entries(model_diff(ctx, two, tables)) == (F(-1), F(1))

    def test_half_integer_entries(self, tables):
        for ctx in model_contexts():
            for qv in cubefree_range(20):
                q = factorize(qv, tables)
                for vec in (model_sum(ctx, q, tables), model_diff(ctx, q, tables)):
                    assert all((2 * e).denominator == 1 for e in entries(vec))

    def test_norms_and_orthogonality(self, tables):
        for ctx in model_contexts():
            for qv in cubefree_range(30):
                q = factorize(qv, tables)
                eta = model_sum(ctx, q, tables)
                kap = model_diff(ctx, q, tables)
                phi = euler_phi(q)
                c = alignment_term(ctx, q)
                assert local_product(eta, eta) == F(phi + c, 2)
                assert local_product(kap, kap) == F(phi - c, 2)
                assert local_product(eta, kap) == 0

    def test_norm_sandwich_outside_degenerate(self, tables):
        for ctx in model_contexts():
            for qv in cubefree_range(30):
                q = factorize(qv, tables)
                phi = euler_phi(q)
                for vec in (model_sum(ctx, q, tables), model_diff(ctx, q, tables)):
                    n2 = local_product(vec, vec)
                    assert n2 == 0 or F(phi, 4) <= n2 <= phi

    @pytest.mark.parametrize(
        "residue, modulus", [(1, 1), (5, 6), (10**20 + 1, 10**21)]
    )
    def test_target_and_residue_past_int64(self, tables, residue, modulus):
        # both are reduced in Python ints before they meet an int64 array:
        # the vectors equal those at a small target congruent mod q, and the
        # closed form over the scalar Ramanujan sums
        huge = ProgressionContext((1 << 64) + 12_345, residue, modulus)
        for qv in cubefree_range(30):
            q = factorize(qv, tables)
            small = ProgressionContext(huge.target % qv + qv, residue, modulus)
            g1, m2 = progression_split(huge, q)
            for sign, build in ((1, model_sum), (-1, model_diff)):
                got = entries(build(huge, q, tables))
                assert got == entries(build(small, q, tables))
                assert got == tuple(
                    F(
                        ramanujan_sum(q, huge.target - a)
                        + sign
                        * ramanujan_sum(g1, a)
                        * ramanujan_sum(m2, a - huge.residue),
                        2,
                    )
                    for a in range(qv)
                )

    def test_diff_vanishes_exactly_when_aligned(self, tables):
        for ctx in model_contexts():
            for qv in cubefree_range(30):
                q = factorize(qv, tables)
                kap = model_diff(ctx, q, tables)
                aligned = alignment_term(ctx, q) == euler_phi(q)
                assert (set(entries(kap)) == {F(0)}) == aligned

    def test_density_reconstruction(self, tables):
        # Sum and difference recover the mirrored and the ungated densities.
        for ctx in model_contexts()[:3]:
            for qv in cubefree_range(20):
                q = factorize(qv, tables)
                eta = model_sum(ctx, q, tables)
                kap = model_diff(ctx, q, tables)
                t = star_scale(q)
                g1, _ = progression_split(ctx, q)
                back = F(mobius(g1), euler_phi(factorize(ctx.modulus, tables)) * euler_phi(g1))
                for a in range(qv):
                    mirror = mirror_density_star(ctx, q, a)
                    assert mirror == t * (entries(eta)[a] + entries(kap)[a])
                    rho_t = prime_density_star_ungated(ctx, q, a, tables)
                    assert rho_t == back * (entries(eta)[a] - entries(kap)[a])


class TestMirrorAndCrossProducts:
    def test_mirror_norm_frozen(self, tables):
        ctx = ProgressionContext(1000, 1, 1)
        q6 = factorize(6, tables)
        theta = vector(6, [mirror_density_star(ctx, q6, a) for a in range(6)])
        assert local_product(theta, theta) == F(1, 288)

    def test_mirror_norm_closed_form(self, tables):
        for ctx in model_contexts():
            for qv in cubefree_range(24):
                q = factorize(qv, tables)
                theta = vector(
                    qv, [mirror_density_star(ctx, q, a) for a in range(qv)]
                )
                t = star_scale(q)
                assert local_product(theta, theta) == t * t * euler_phi(q)

    def test_mirror_cross_star_frozen(self, tables):
        ctx = ProgressionContext(7, 1, 2)
        q3 = factorize(3, tables)
        theta = vector(3, [mirror_density_star(ctx, q3, a) for a in range(3)])
        rho = vector(3, [prime_density_star(ctx, q3, a, tables) for a in range(3)])
        assert local_product(theta, rho) == F(-1, 16)

    def test_star_norm_closed_form(self, tables):
        for modulus, residue in ((1, 0), (2, 1), (6, 5), (12, 7)):
            ctx = ProgressionContext(100, residue, modulus)
            phi_m = euler_phi(factorize(modulus, tables))
            for qv in cubefree_range(30):
                q = factorize(qv, tables)
                rho = vector(
                    qv, [prime_density_star(ctx, q, a, tables) for a in range(qv)]
                )
                q1, q2 = cubefree_split(q)
                if modulus % q2.value**2:
                    want = F(0)
                else:
                    g1, _ = progression_split(ctx, q)
                    shared = math.gcd(q1.value, modulus)
                    want = F(
                        euler_phi(factorize(q2.value**2, tables))
                        * euler_phi(factorize(shared, tables)),
                        phi_m**2 * euler_phi(g1),
                    )
                assert local_product(rho, rho) == want, (modulus, qv)


class TestPrimeModelTwist:
    def test_frozen_values(self, tables):
        assert prime_model_twist(
            ProgressionContext(6, 1, 2), factorize(3, tables), tables
        ) == F(-3)
        assert prime_model_twist(
            ProgressionContext(4, 1, 2), factorize(2, tables), tables
        ) == F(-2)
        assert prime_model_twist(
            ProgressionContext(10, 1, 3), factorize(4, tables), tables
        ) == F(0)
        assert prime_model_twist(
            ProgressionContext(7, 1, 1), factorize(3, tables), tables
        ) == F(3, 2)

    def test_matches_root_of_unity_double_sum(self, tables):
        # Same quantity straight from the definition, in complex floats.
        for ctx in (
            ProgressionContext(30, 1, 2),
            ProgressionContext(31, 1, 1),
            ProgressionContext(35, 2, 3),
        ):
            phi_m = euler_phi(factorize(ctx.modulus, tables))
            for qv in (2, 3, 4, 6, 9, 12):
                q = factorize(qv, tables)
                total = 0j
                for r in range(qv):
                    if math.gcd(r, qv) != 1:
                        continue
                    inner = sum(
                        float(phi_m * prime_density_star(ctx, q, a, tables))
                        * cmath.exp(-2j * cmath.pi * r * a / qv)
                        for a in range(qv)
                    )
                    total += cmath.exp(2j * cmath.pi * r * ctx.target / qv) * inner
                direct = prime_model_twist(ctx, q, tables)
                assert abs(total.imag) < 1e-9
                assert abs(total.real - float(direct)) < 1e-9, (ctx, qv)

    def test_multiplicative_closed_form(self, tables):
        for ctx in model_contexts():
            qprime = ctx.modulus
            for qv in cubefree_range(40):
                q = factorize(qv, tables)
                want = F(1)
                for p, e in q.factors:
                    if e == 1:
                        if qprime % p == 0:
                            want *= p * ramanujan_sum(
                                factorize(p, tables), ctx.target - ctx.residue
                            )
                        else:
                            want *= F(
                                -p * ramanujan_sum(factorize(p, tables), ctx.target),
                                p - 1,
                            )
                    else:
                        if qprime % p**2 == 0:
                            want *= p * p * ramanujan_sum(
                                factorize(p * p, tables), ctx.target - ctx.residue
                            )
                        else:
                            want = F(0)
                            break
                assert prime_model_twist(ctx, q, tables) == want, (ctx, qv)


class TestPeriodizeCollect:
    def test_adjoint_identity_exact(self, rng, tables):
        # [q * class sums of j | h]_q == sum_n j(n) h(n) for integer-valued
        # j, with the class sums from the scans' kernel
        for _ in range(20):
            q = rng.integers(1, 21)
            n = rng.integers(q, 1001)
            j = rng.integers(-5, 6, size=n)
            h = vector(q, tuple(F(int(v)) for v in rng.integers(-9, 10, size=q)))
            [(_, sums)] = exact_class_sums(j, np.arange(1, n + 1), [q])
            lhs = local_product(vector(q, [q * s for s in sums]), h)
            h_at = entries(h)
            rhs = sum(v * h_at[m % q] for m, v in enumerate(j.tolist(), start=1))
            assert lhs == F(rhs)
