"""Estimator tests: moduli enumeration, weights, Bessel bounds, and the
bilinear approximation against brute-force products."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqfrep.arith import CapacityError, euler_phi, factorize
from sqfrep.counting import psi_in_ap, squarefree_count_in_ap
from sqfrep.localmodel import LocalVector, ProgressionContext, local_product
import sqfrep.estimator as est
from sqfrep.estimator import (
    _local_dots,
    ModuliSet,
    SparseFunction,
    Weights,
    bessel_defect,
    build_moduli_set,
    compute_weights,
    estimate_inner,
    global_inner,
    lambda_progression_function,
    model_family,
    per_q_breakdown,
    periodic_cross,
    predicted_main_terms,
    squarefree_mirror_function,
)


def dense_int(values):
    return np.array(values, dtype=np.int64)


def brute_values(h, length):
    """h(1), ..., h(length) as Fractions, one by one."""
    if isinstance(h, SparseFunction):
        out = [Fraction(0)] * length
        for n, v in zip(h.indices.tolist(), h.numerators.tolist()):
            out[n - 1] = Fraction(v, h.denominator)
        return out
    return [Fraction(int(x)) for x in h]


def brute_dot(h, vec, length):
    """[h | periodized vec], summed over n one term at a time."""
    values = brute_values(h, length)
    entries = vec.entries
    return sum(values[n - 1] * entries[n % vec.modulus] for n in range(1, length + 1))


# 1 and 2**53 are the denominators the CLI builds; 15 and 63 are the
# combinations that the bilinearity checks build
DENOMINATORS = (1, 15, 63, 1 << 53)
# products of numerators of up to 2**30 stay below the 2**62 bound of the
# int64 product sums; 2**33 and 2**61 take them past it, into the limb
# products, and 2**61 takes every dense reduction past 2**63 too
NUMERATOR_BITS = (3, 30, 33, 61)


@st.composite
def global_functions(draw, length):
    """A random integer global function on [1, length]: sparse over one of
    DENOMINATORS, or dense over 1."""
    top = 1 << draw(st.sampled_from(NUMERATOR_BITS))
    numbers = st.integers(-top, top)
    if draw(st.booleans()):
        return dense_int(draw(st.lists(numbers, min_size=length, max_size=length)))
    indices = sorted(draw(st.sets(st.integers(1, length), max_size=length)))
    numerators = draw(st.lists(numbers, min_size=len(indices), max_size=len(indices)))
    return SparseFunction(
        length,
        np.array(indices, dtype=np.int64),
        np.array(numerators, dtype=np.int64),
        draw(st.sampled_from(DENOMINATORS)),
    )


CONTEXTS = (
    ProgressionContext(30, 1, 1),
    ProgressionContext(61, 1, 2),
    ProgressionContext(97, 2, 5),
)


@pytest.fixture(scope="module")
def families(tables):
    """ctx -> (moduli set, exact weights, model family) over CONTEXTS."""
    out = {}
    for ctx in CONTEXTS:
        ms = build_moduli_set(4, 2, ctx, tables)
        out[ctx] = (ms, compute_weights(ms, tables), model_family(ms, tables))
    return out


class TestModuliSet:
    def test_smallest_family(self, tables):
        ctx = ProgressionContext(50, 1, 1)
        ms = build_moduli_set(2, 1, ctx, tables)
        assert ms.members == (1, 2)

    def test_mixed_family(self, tables):
        ctx = ProgressionContext(50, 1, 1)
        ms = build_moduli_set(3, 2, ctx, tables)
        assert ms.members == (1, 2, 3, 4, 12)

    def test_members_are_cubefree_and_distinct(self, tables):
        ctx = ProgressionContext(101, 1, 1)
        ms = build_moduli_set(10, 4, ctx, tables)
        assert len(set(ms.members)) == len(ms.members)
        for q in ms.members:
            assert factorize(q, tables).is_cubefree

    def test_trivial_modulus_always_exceptional(self, tables):
        for ctx in (
            ProgressionContext(50, 1, 1),
            ProgressionContext(51, 1, 2),
            ProgressionContext(55, 2, 3),
        ):
            ms = build_moduli_set(3, 1, ctx, tables)
            assert 1 in ms.exceptional

    def test_known_exceptional_member(self, tables):
        # q = 4 splits into g1 = 1, m2 = 4; 4 divides 5 - 1.
        ctx = ProgressionContext(5, 1, 4)
        ms = build_moduli_set(3, 2, ctx, tables)
        assert 4 in ms.exceptional

    def test_exceptional_iff_diff_vector_vanishes(self, tables):
        for ctx in (
            ProgressionContext(1000, 1, 1),
            ProgressionContext(1001, 1, 2),
            ProgressionContext(997, 2, 15),
        ):
            ms = build_moduli_set(6, 2, ctx, tables)
            fam = model_family(ms, tables)
            for q, (_, kappa) in fam.items():
                norm = local_product(kappa, kappa).coeff
                assert (norm == 0) == (q in ms.exceptional)
                if q not in ms.exceptional:
                    assert norm >= Fraction(euler_phi(factorize(q, tables)), 4)

    def test_degenerate_iff_sum_vector_vanishes(self, tables):
        # odd target, trivial progression: the modulus-2 sum vector dies
        ctx = ProgressionContext(999, 1, 1)
        ms = build_moduli_set(6, 2, ctx, tables)
        assert 2 in ms.degenerate
        fam = model_family(ms, tables)
        for q, (eta, _) in fam.items():
            norm = local_product(eta, eta).coeff
            assert (norm == 0) == (q in ms.degenerate)

    def test_rejects_bad_bounds(self, tables):
        ctx = ProgressionContext(50, 1, 1)
        with pytest.raises(ValueError):
            build_moduli_set(0, 1, ctx, tables)
        with pytest.raises(ValueError):
            build_moduli_set(1, 0, ctx, tables)


class TestGlobalBuilders:
    def test_log_weights_match_chebyshev(self, tables):
        ctx = ProgressionContext(100, 1, 1)
        f = lambda_progression_function(ctx, tables)
        assert math.isclose(
            math.fsum(f.float_values), psi_in_ap(100, 1, 1, tables), rel_tol=1e-12
        )
        assert 64 in f.indices and 81 in f.indices and 100 not in f.indices

    def test_log_weights_respect_progression(self, tables):
        ctx = ProgressionContext(200, 3, 4)
        f = lambda_progression_function(ctx, tables)
        assert all(n % 4 == 3 for n in f.indices)
        assert 27 in f.indices  # 3^3 sits in the lane
        assert math.isclose(
            math.fsum(f.float_values), psi_in_ap(200, 3, 4, tables), rel_tol=1e-12
        )

    def test_mirror_small_case(self, tables):
        h = squarefree_mirror_function(10, tables)
        assert h.tolist() == [0, 0, 1, 1, 1, 0, 1, 1, 1, 0]
        assert int(h.sum()) == squarefree_count_in_ap(10, 1, 1, tables)

    def test_capacity_gate(self, tables, monkeypatch):
        monkeypatch.setattr(est, "MATERIALIZE_CAP", 100)
        with pytest.raises(CapacityError):
            squarefree_mirror_function(101, tables)
        with pytest.raises(CapacityError):
            lambda_progression_function(ProgressionContext(101, 1, 1), tables)

    def test_sparse_validation(self):
        with pytest.raises(ValueError):
            SparseFunction.from_floats(10, [0], [1.0])
        with pytest.raises(ValueError):
            SparseFunction.from_floats(10, [11], [1.0])
        # indices must increase strictly: unsorted, repeated, or hiding a 0
        for indices in ([5, 0, 3], [3, 3], [4, 2], [2, 11, 5]):
            with pytest.raises(ValueError):
                SparseFunction.from_floats(10, indices, [1.0] * len(indices))
        one = np.array([3], dtype=np.int64)
        for denominator in (0, -1, 1.5):
            with pytest.raises(ValueError):
                SparseFunction(10, one, one, denominator)
        with pytest.raises(ValueError):
            SparseFunction(10, one, np.array([1 << 62], dtype=np.int64), 1)
        # values must be whole multiples of 2**-53 with numerators below 2**62
        for value in (2.0**-60, 512.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SparseFunction.from_floats(10, [3], [value])
        assert SparseFunction.from_floats(10, [3], [511.5]).float_values[0] == 511.5

    def test_global_inner_variants(self, tables):
        g = squarefree_mirror_function(10, tables)
        f = SparseFunction.from_floats(10, [3, 6, 9], [0.5, 0.25, 2.0])
        # positions 3 and 9 survive the mirror mask, 6 does not
        assert global_inner(f, g) == Fraction(5, 2)
        assert global_inner(g, f) == Fraction(5, 2)
        assert global_inner(g, g) == 6
        assert global_inner(f, f) == Fraction(1, 4) + Fraction(1, 16) + 4
        other = SparseFunction.from_floats(10, [6, 9], [4.0, 0.5])
        assert global_inner(f, other) == Fraction(2)
        with pytest.raises(ValueError):
            global_inner(f, squarefree_mirror_function(11, tables))


class TestCrossProducts:
    def test_matches_brute_force(self, tables):
        ctx = ProgressionContext(97, 1, 1)
        fam = model_family(build_moduli_set(3, 2, ctx, tables), tables)
        length = 97
        for qa, (ua, _) in fam.items():
            for qb, (_, vb) in fam.items():
                brute = sum(
                    ua.entries[n % qa] * vb.entries[n % qb]
                    for n in range(1, length + 1)
                )
                assert periodic_cross(ua, vb, length) == brute

    def test_diagonal_at_full_periods(self, tables):
        ctx = ProgressionContext(120, 1, 1)
        fam = model_family(build_moduli_set(5, 1, ctx, tables), tables)
        for q, (eta, _) in fam.items():
            norm = local_product(eta, eta).coeff
            assert periodic_cross(eta, eta, 120) == 120 * norm


class TestWeights:
    def test_singleton_exact_weight_is_length(self, tables):
        ctx = ProgressionContext(50, 1, 1)
        ms = build_moduli_set(1, 1, ctx, tables)
        w = compute_weights(ms, tables)
        assert w.m_phi == {1: 50}
        assert w.m_psi == {}
        assert w.mode == "exact-cross-sum"

    def test_family_splits_match_classification(self, tables):
        ctx = ProgressionContext(1000, 1, 1)
        ms = build_moduli_set(5, 2, ctx, tables)
        w = compute_weights(ms, tables)
        assert set(w.m_phi) == set(ms.members) - ms.degenerate
        assert set(w.m_psi) == set(ms.members) - ms.exceptional
        for value in list(w.m_phi.values()) + list(w.m_psi.values()):
            assert isinstance(value, Fraction) and value > 0

    def test_exact_weights_near_diagonal(self, tables):
        # the cross sum is the diagonal plus divisor-size boundary terms
        ctx = ProgressionContext(10_000, 1, 1)
        ms = build_moduli_set(3, 1, ctx, tables)
        w = compute_weights(ms, tables)
        fam = model_family(ms, tables)
        for q, weight in w.m_phi.items():
            diagonal = 10_000 * local_product(fam[q][0], fam[q][0]).coeff
            assert abs(weight / diagonal - 1) <= Fraction(1, 4)

    def test_exact_rationals_pinned(self, tables):
        # recorded from the Fraction implementation of the cross sums and
        # local dots; the integer reductions must give the same rationals
        ctx = ProgressionContext(10007, 5, 6)
        ms = build_moduli_set(6, 2, ctx, tables)
        w = compute_weights(ms, tables)
        assert w.m_phi == {
            1: Fraction(10023),
            2: Fraction(10024),
            3: Fraction(20037),
            5: Fraction(30083, 2),
            6: Fraction(20039),
            20: Fraction(50105),
        }
        assert w.m_psi == {
            4: Fraction(20030),
            5: Fraction(50145, 2),
            12: Fraction(40062),
            20: Fraction(30065),
        }
        f = lambda_progression_function(ctx, tables)
        g = squarefree_mirror_function(ctx.target, tables)
        assert estimate_inner(f, g, ms, w, tables) == Fraction(
            236491402238115587836713019525263867253221247908890207189,
            159351973694776134992082822446136809016850487370055680,
        )

    def test_paper_form_values(self, tables):
        ctx = ProgressionContext(10**6, 1, 1)
        ms = build_moduli_set(4, 1, ctx, tables)
        w = compute_weights(
            ms, tables, mode="paper-form", padding_constant=1e4, padding_exponent=0.1
        )
        fam = model_family(ms, tables)
        for q, weight in w.m_phi.items():
            norm = local_product(fam[q][0], fam[q][0]).coeff
            assert weight == pytest.approx(10**6 * float(norm) + 1e4 * (10**6) ** 0.1)
            assert weight >= 10**6 * euler_phi(factorize(q, tables)) / 4

    def test_paper_form_rejects_bad_padding(self, tables):
        ctx = ProgressionContext(100, 1, 1)
        ms = build_moduli_set(2, 1, ctx, tables)
        with pytest.raises(ValueError):
            compute_weights(ms, tables, mode="paper-form", padding_constant=-1.0,
                            padding_exponent=0.1)
        with pytest.raises(ValueError):
            compute_weights(ms, tables, mode="paper-form")
        with pytest.raises(ValueError):
            compute_weights(ms, tables, padding_constant=1.0, padding_exponent=0.1)
        with pytest.raises(ValueError):
            compute_weights(ms, tables, mode="no-such-mode")

    @pytest.mark.parametrize(
        "constant, exponent",
        [(1e4, math.inf), (1e4, math.nan), (1e4, 400.0), (1e308, 2.0)],
    )
    def test_paper_form_rejects_padding_that_is_not_finite(
        self, tables, constant, exponent
    ):
        # 100**400 overflows a float; 1e308 * 100**2 rounds to inf
        ctx = ProgressionContext(100, 1, 1)
        ms = build_moduli_set(2, 1, ctx, tables)
        with pytest.raises(ValueError, match="not finite"):
            compute_weights(ms, tables, mode="paper-form", padding_constant=constant,
                            padding_exponent=exponent)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            Weights(m_phi={1: 0}, m_psi={}, mode="exact-cross-sum")


class TestEstimateInner:
    def test_singleton_is_rank_one(self, tables):
        ctx = ProgressionContext(12, 1, 1)
        ms = build_moduli_set(1, 1, ctx, tables)
        w = compute_weights(ms, tables)
        f = dense_int([3, 0, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5])
        g = dense_int([2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5])
        got = estimate_inner(f, g, ms, w, tables)
        assert got == Fraction(int(f.sum()) * int(g.sum()), 12)

    def test_symmetric_and_bilinear(self, tables):
        ctx = ProgressionContext(60, 1, 1)
        ms = build_moduli_set(3, 2, ctx, tables)
        w = compute_weights(ms, tables)
        rng = np.random.default_rng(7)
        f1 = dense_int(rng.integers(-5, 6, size=60))
        f2 = dense_int(rng.integers(-5, 6, size=60))
        g = dense_int(rng.integers(-5, 6, size=60))
        a, b = Fraction(2, 3), Fraction(-7, 5)
        # a f1 + b f2 = (10 f1 - 21 f2) / 15, exactly
        combo = SparseFunction(60, np.arange(1, 61), 10 * f1 - 21 * f2, 15)
        lhs = estimate_inner(combo, g, ms, w, tables)
        rhs = a * estimate_inner(f1, g, ms, w, tables) + b * estimate_inner(
            f2, g, ms, w, tables
        )
        assert lhs == rhs
        assert estimate_inner(f1, g, ms, w, tables) == estimate_inner(
            g, f1, ms, w, tables
        )

    def test_constant_function_captured_exactly(self, tables):
        ctx = ProgressionContext(40, 1, 1)
        ms = build_moduli_set(1, 1, ctx, tables)
        w = compute_weights(ms, tables)
        h = dense_int([1] * 40)
        assert bessel_defect(h, ms, w, tables) == 0

    def test_bessel_defect_nonnegative_random(self, tables):
        rng = np.random.default_rng(0xBE55E1)
        for ctx in (
            ProgressionContext(500, 1, 1),
            ProgressionContext(501, 1, 2),
            ProgressionContext(502, 2, 5),
        ):
            ms = build_moduli_set(4, 2, ctx, tables)
            w = compute_weights(ms, tables)
            for _ in range(6):
                h = dense_int(rng.integers(-9, 10, size=ctx.target))
                assert bessel_defect(h, ms, w, tables) >= 0

    def test_bessel_defect_on_canonical_functions(self, tables):
        ctx = ProgressionContext(2000, 1, 2)
        ms = build_moduli_set(4, 1, ctx, tables)
        w = compute_weights(ms, tables)
        f = lambda_progression_function(ctx, tables)
        g = squarefree_mirror_function(ctx.target, tables)
        df = bessel_defect(f, ms, w, tables)
        assert 0 <= df <= global_inner(f, f)
        dg = bessel_defect(g, ms, w, tables)
        assert 0 <= dg <= global_inner(g, g)

    def test_almost_orthogonality_expansion(self, tables):
        # ||sum xi_u u||^2 <= sum M_u xi_u^2, expanded exactly
        rng = np.random.default_rng(0x0AB1E)
        configs = [
            ProgressionContext(5000, 1, 1),
            ProgressionContext(5001, 1, 2),
            ProgressionContext(9999, 2, 5),
            ProgressionContext(10_000, 5, 6),
        ]
        for ctx in configs:
            ms = build_moduli_set(6, 2, ctx, tables)
            w = compute_weights(ms, tables)
            fam = model_family(ms, tables)
            vectors = [(fam[q][0], w.m_phi[q]) for q in ms.members
                       if q in w.m_phi]
            vectors += [(fam[q][1], w.m_psi[q]) for q in ms.members
                        if q in w.m_psi]
            crosses = [
                [periodic_cross(u, v, ctx.target) for v, _ in vectors]
                for u, _ in vectors
            ]
            for _ in range(25):
                xi = [
                    Fraction(int(p), int(r))
                    for p, r in zip(
                        rng.integers(-9, 10, size=len(vectors)),
                        rng.integers(1, 5, size=len(vectors)),
                    )
                ]
                lhs = sum(
                    xi[i] * xi[j] * crosses[i][j]
                    for i in range(len(vectors))
                    for j in range(len(vectors))
                )
                rhs = sum(x * x * m for x, (_, m) in zip(xi, vectors))
                assert lhs <= rhs

    def test_tracks_true_product_moderate_size(self, tables):
        ctx = ProgressionContext(10_000, 1, 1)
        ms = build_moduli_set(8, 2, ctx, tables)
        w = compute_weights(ms, tables)
        f = lambda_progression_function(ctx, tables)
        g = squarefree_mirror_function(ctx.target, tables)
        approx = float(estimate_inner(f, g, ms, w, tables))
        truth = float(global_inner(f, g))
        assert truth > 0
        assert abs(approx / truth - 1) < 0.3


class TestBreakdownAndPredictions:
    def test_rows_sum_to_estimate(self, tables):
        ctx = ProgressionContext(3000, 1, 1)
        ms = build_moduli_set(4, 2, ctx, tables)
        w = compute_weights(ms, tables)
        f = lambda_progression_function(ctx, tables)
        g = squarefree_mirror_function(ctx.target, tables)
        rows = per_q_breakdown(f, g, ms, w, tables)
        assert [row["q"] for row in rows] == list(ms.members)
        total = math.fsum(row["contribution"] for row in rows)
        assert total == pytest.approx(
            float(estimate_inner(f, g, ms, w, tables)), rel=1e-9
        )
        for row in rows:
            if row["degenerate"]:
                assert row["m_phi"] == 0.0 and row["f_phi"] == 0.0
            if row["exceptional"]:
                assert row["m_psi"] == 0.0 and row["f_psi"] == 0.0

    def test_predicted_log_weight_twist_sign(self, tables):
        # modulus 3 with target = 2 mod 3: the diff-vector twist's main
        # term is positive, matching the empirical product
        ctx = ProgressionContext(20_000, 1, 1)
        assert ctx.target % 3 == 2
        ms = build_moduli_set(3, 1, ctx, tables)
        pred = predicted_main_terms(ms, 3, tables)
        assert pred["f_psi"] == pytest.approx(ctx.target * 0.75)
        f = lambda_progression_function(ctx, tables)
        fam = model_family(ms, tables)
        empirical = float(_local_dots(f, 3, [fam[3][1]], ctx.target)[0])
        assert empirical > 0
        assert abs(empirical / pred["f_psi"] - 1) < 0.1

    def test_predicted_mirror_products_track(self, tables):
        ctx = ProgressionContext(20_000, 1, 1)
        ms = build_moduli_set(5, 1, ctx, tables)
        g = squarefree_mirror_function(ctx.target, tables)
        fam = model_family(ms, tables)
        for q in ms.members:
            pred = predicted_main_terms(ms, q, tables)
            got = float(_local_dots(g, q, [fam[q][0]], ctx.target)[0])
            if abs(pred["phi_g"]) > 1:
                assert got == pytest.approx(pred["phi_g"], rel=0.05)


class TestExactGlobalProducts:
    """The integer reductions against brute-force Fraction sums over n, for
    sparse and dense functions on both sides of every int64 bound."""

    @settings(max_examples=150)
    @given(data=st.data())
    def test_global_inner_matches_brute_force(self, data):
        length = data.draw(st.integers(1, 40))
        f = data.draw(global_functions(length))
        g = data.draw(global_functions(length))
        want = sum(
            x * y for x, y in zip(brute_values(f, length), brute_values(g, length))
        )
        assert global_inner(f, g) == want
        assert global_inner(g, f) == want

    @settings(max_examples=60)
    @given(data=st.data())
    def test_local_dots_match_brute_force(self, families, data):
        ctx = data.draw(st.sampled_from(CONTEXTS))
        h = data.draw(global_functions(ctx.target))
        _, _, fam = families[ctx]
        for q, (eta, kappa) in fam.items():
            assert _local_dots(h, q, [eta, kappa], ctx.target) == [
                brute_dot(h, eta, ctx.target),
                brute_dot(h, kappa, ctx.target),
            ]

    @settings(max_examples=40)
    @given(data=st.data())
    def test_estimate_inner_matches_brute_force(self, tables, families, data):
        ctx = data.draw(st.sampled_from(CONTEXTS))
        f = data.draw(global_functions(ctx.target))
        g = data.draw(global_functions(ctx.target))
        ms, w, fam = families[ctx]
        want = 0
        for q, (eta, kappa) in fam.items():
            for vec, table in ((eta, w.m_phi), (kappa, w.m_psi)):
                if q in table:
                    want += (
                        brute_dot(f, vec, ctx.target)
                        * brute_dot(g, vec, ctx.target)
                        / table[q]
                    )
        assert estimate_inner(f, g, ms, w, tables) == want

    @settings(max_examples=40)
    @given(data=st.data())
    def test_self_product_matches_a_copy(self, tables, families, data):
        # estimate_inner(h, h) reuses h's dots for g; a copy recomputes them
        ctx = data.draw(st.sampled_from(CONTEXTS))
        h = data.draw(global_functions(ctx.target))
        if isinstance(h, SparseFunction):
            copy = SparseFunction(
                h.length, h.indices.copy(), h.numerators.copy(), h.denominator
            )
        else:
            copy = h.copy()
        ms, w, _ = families[ctx]
        assert estimate_inner(h, h, ms, w, tables) == estimate_inner(
            h, copy, ms, w, tables
        )

    def test_dense_products_past_int64(self):
        # an int64 dot wrapped 4 * 2**80 to 0, and the int64 class sum of
        # eight values 2**61 wrapped 2**64 to 0
        big = np.full(4, 1 << 40)
        assert global_inner(big, big) == 4 << 80
        one = LocalVector.from_numerators(1, [1], 1, 0)
        assert _local_dots(np.full(8, 1 << 61), 1, [one], 8) == [1 << 64]

    def test_limb_products_of_log_numerators(self):
        # log numerators sit near 2**57: their products pass 2**62, so they
        # are summed in 31-bit limbs; +-(2**62 - 1) is the extreme a sparse
        # function admits, where the high limbs multiply to 2**62 itself
        nums = [(1 << 57) - 1, (1 << 57) + 12_345, -(1 << 57) + 3, (1 << 62) - 1]
        edge = [-(1 << 62) + 1, -(1 << 62) + 1, (1 << 56) + 1, 5]
        f = SparseFunction(9, dense_int([1, 3, 4, 9]), dense_int(nums), 1 << 53)
        g = SparseFunction(9, dense_int([2, 3, 4, 9]), dense_int(edge), 63)
        assert global_inner(f, f) == Fraction(sum(x * x for x in nums), 1 << 106)
        assert global_inner(g, g) == Fraction(sum(x * x for x in edge), 63 * 63)
        cross = nums[1] * edge[1] + nums[2] * edge[2] + nums[3] * edge[3]
        assert global_inner(f, g) == Fraction(cross, 63 << 53)
        # a dense factor past the bound, up to the int64 limit, is summed in
        # Python ints
        top = (1 << 63) - 25
        big = np.full(9, top)
        assert global_inner(big, big) == 9 * top * top
        assert global_inner(f, big) == Fraction(sum(nums) * top, 1 << 53)

    def test_rejects_what_is_not_an_integer_function(self):
        f = dense_int([1, 2, 3])
        for h in (
            [1, 2, 3],
            np.array([1.0, 2.0, 3.0]),
            np.array([Fraction(1), 2, 3], dtype=object),
            np.array([1, 2, 3], dtype=np.uint64),
            dense_int([[1, 2, 3]]),
        ):
            with pytest.raises(TypeError):
                global_inner(f, h)
            with pytest.raises(TypeError):
                global_inner(h, f)

    def test_class_sums_once_per_function_and_modulus(self, tables, monkeypatch):
        ctx = ProgressionContext(2000, 1, 2)
        ms = build_moduli_set(4, 2, ctx, tables)
        w = compute_weights(ms, tables)
        f = lambda_progression_function(ctx, tables)
        g = squarefree_mirror_function(ctx.target, tables)
        passes = []
        class_sums = est._class_sums
        monkeypatch.setattr(
            est, "_class_sums", lambda h, q: passes.append(q) or class_sums(h, q)
        )
        estimate_inner(f, g, ms, w, tables)
        assert sorted(passes) == sorted(2 * ms.members)
        passes.clear()
        bessel_defect(f, ms, w, tables)
        assert sorted(passes) == sorted(ms.members)
