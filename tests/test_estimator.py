"""Estimator tests: moduli enumeration, weights, Bessel bounds, and the
bilinear approximation against brute-force products."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqfrep.arith import (
    CapacityError,
    Draws,
    build_sieve,
    cubefree_split,
    euler_phi,
    factorize,
    mobius,
    star_scale,
)
import sqfrep.counting as counting
from sqfrep.counting import (
    LOG_SCALE,
    count_representations,
    log_class_sums,
    log_numerators,
    square_sum,
    squarefree_count_in_ap,
)
from sqfrep.localmodel import (
    PI_SQ_OVER_6,
    LocalVector,
    ProgressionContext,
    local_product,
    progression_split,
)
from sqfrep.estimator import (
    _dot,
    ModuliSet,
    Summary,
    Weights,
    bessel_defect,
    build_moduli_set,
    compute_weights,
    estimate_inner,
    log_summary,
    mirror_summary,
    paper_weights,
    per_q_breakdown,
    periodic_cross,
    predicted_main_terms,
)
from sqfrep.oracle import alignment_term, dense_summary
from vectors import entries


def dense_int(values):
    return np.array(values, dtype=np.int64)


def brute_values(h):
    """h(1), ..., h(length) of a (numerators, denominator) pair as
    Fractions, one by one."""
    numerators, denominator = h
    return [Fraction(int(x), denominator) for x in numerators]


def brute_dot(h, vec):
    """[h | periodized vec], summed over n one term at a time."""
    values = brute_values(h)
    at = entries(vec)
    return sum(v * at[n % vec.modulus] for n, v in enumerate(values, 1))


# 1 and 2**53 are the denominators the CLI builds; 15 and 63 are the
# combinations that the bilinearity checks build
DENOMINATORS = (1, 15, 63, 1 << 53)
# products of numerators of up to 2**30 stay below the 2**62 bound of the
# int64 product sums; 2**33 and 2**61 take them past it, into the limb
# products, and 2**61 takes every dense reduction past 2**63 too
NUMERATOR_BITS = (3, 30, 33, 61)


@st.composite
def global_functions(draw, length):
    """A random integer global function on [1, length] as (numerators,
    denominator): sparse over one of DENOMINATORS, or dense over 1."""
    top = 1 << draw(st.sampled_from(NUMERATOR_BITS))
    numbers = st.integers(-top, top)
    if draw(st.booleans()):
        return draw(st.lists(numbers, min_size=length, max_size=length)), 1
    indices = draw(st.sets(st.integers(1, length), max_size=length))
    numerators = [draw(numbers) if n in indices else 0 for n in range(1, length + 1)]
    return numerators, draw(st.sampled_from(DENOMINATORS))


def summary_of(h, ms):
    """The oracle's Summary of a (numerators, denominator) pair over the
    family moduli of ms."""
    return dense_summary(*h, ms.members)


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
        out[ctx] = (ms, compute_weights(ms), ms.vectors)
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
            fam = ms.vectors
            for q, (_, kappa) in fam.items():
                norm = local_product(kappa, kappa)
                assert (norm == 0) == (q in ms.exceptional)
                if q not in ms.exceptional:
                    assert norm >= Fraction(euler_phi(factorize(q, tables)), 4)

    def test_degenerate_iff_sum_vector_vanishes(self, tables):
        # odd target, trivial progression: the modulus-2 sum vector dies
        ctx = ProgressionContext(999, 1, 1)
        ms = build_moduli_set(6, 2, ctx, tables)
        assert 2 in ms.degenerate
        fam = ms.vectors
        for q, (eta, _) in fam.items():
            norm = local_product(eta, eta)
            assert (norm == 0) == (q in ms.degenerate)

    def test_rejects_bad_bounds(self, tables):
        ctx = ProgressionContext(50, 1, 1)
        with pytest.raises(ValueError):
            build_moduli_set(0, 1, ctx, tables)
        with pytest.raises(ValueError):
            build_moduli_set(1, 0, ctx, tables)


class TestGlobalBuilders:
    def test_log_weights_match_chebyshev(self, tables):
        # a modulus above the target has one n per class: its class sums
        # are f itself
        ctx = ProgressionContext(100, 1, 1)
        f = log_summary(ctx, [1, 101], tables)
        assert math.isclose(
            f.class_sums[1][0] / f.denominator,
            log_class_sums(100, 1, 1, [1], tables)[0][0][0] / LOG_SCALE,
            rel_tol=1e-12,
        )
        values = f.class_sums[101]
        assert values[64] and values[81] and not values[100]

    def test_log_weights_respect_progression(self, tables):
        ctx = ProgressionContext(200, 3, 4)
        f = log_summary(ctx, [1, 201], tables)
        values = f.class_sums[201]
        assert all(n % 4 == 3 for n in range(201) if values[n])
        assert values[27]  # 3^3 sits in the lane
        assert math.isclose(
            f.class_sums[1][0] / f.denominator,
            log_class_sums(200, 3, 4, [1], tables)[0][0][0] / LOG_SCALE,
            rel_tol=1e-12,
        )

    def test_mirror_small_case(self, tables):
        h = mirror_summary(10, [1, 11], tables)
        assert h.class_sums[11][1:] == [0, 0, 1, 1, 1, 0, 1, 1, 1, 0]
        assert h.class_sums[1] == [squarefree_count_in_ap(10, 1, 1, tables)]

    def test_capacity_gate(self):
        # capacity is the sieve's coverage, limit**2, and nothing else
        small = build_sieve(100)
        with pytest.raises(CapacityError):
            mirror_summary(100**2 + 2, [1], small)
        with pytest.raises(CapacityError):
            log_summary(ProgressionContext(100**2 + 1, 1, 1), [1], small)
        assert mirror_summary(100**2 + 1, [1], small).length == 100**2 + 1
        assert log_summary(ProgressionContext(100**2, 1, 1), [1], small).length == (
            100**2
        )

    def test_global_inner_variants(self, tables):
        g = mirror_summary(10, [1], tables)
        f = dense_summary([0, 0, 1 << 52, 0, 0, 1 << 51, 0, 0, 1 << 54, 0], 1 << 53, [1])
        assert g.inner() == 6
        assert f.inner() == Fraction(1, 4) + Fraction(1, 16) + 4
        ctx = ProgressionContext(11, 1, 1)
        ms = build_moduli_set(1, 1, ctx, tables)
        w = compute_weights(ms)
        with pytest.raises(ValueError):
            estimate_inner(f, mirror_summary(11, [1], tables), ms, w)


class TestCrossProducts:
    def test_matches_brute_force(self, tables):
        ctx = ProgressionContext(97, 1, 1)
        fam = build_moduli_set(3, 2, ctx, tables).vectors
        length = 97
        for qa, (ua, _) in fam.items():
            for qb, (_, vb) in fam.items():
                ua_at, vb_at = entries(ua), entries(vb)
                brute = sum(
                    ua_at[n % qa] * vb_at[n % qb] for n in range(1, length + 1)
                )
                assert periodic_cross(ua, vb, length) == brute

    def test_diagonal_at_full_periods(self, tables):
        ctx = ProgressionContext(120, 1, 1)
        fam = build_moduli_set(5, 1, ctx, tables).vectors
        for q, (eta, _) in fam.items():
            norm = local_product(eta, eta)
            assert periodic_cross(eta, eta, 120) == 120 * norm


class TestWeights:
    def test_singleton_exact_weight_is_length(self, tables):
        ctx = ProgressionContext(50, 1, 1)
        ms = build_moduli_set(1, 1, ctx, tables)
        w = compute_weights(ms)
        assert w.m_phi == {1: 50}
        assert w.m_psi == {}

    def test_family_splits_match_classification(self, tables):
        ctx = ProgressionContext(1000, 1, 1)
        ms = build_moduli_set(5, 2, ctx, tables)
        w = compute_weights(ms)
        assert set(w.m_phi) == set(ms.members) - ms.degenerate
        assert set(w.m_psi) == set(ms.members) - ms.exceptional
        for value in list(w.m_phi.values()) + list(w.m_psi.values()):
            assert isinstance(value, Fraction) and value > 0

    def test_exact_weights_near_diagonal(self, tables):
        # the cross sum is the diagonal plus divisor-size boundary terms
        ctx = ProgressionContext(10_000, 1, 1)
        ms = build_moduli_set(3, 1, ctx, tables)
        w = compute_weights(ms)
        fam = ms.vectors
        for q, weight in w.m_phi.items():
            diagonal = 10_000 * local_product(fam[q][0], fam[q][0])
            assert abs(weight / diagonal - 1) <= Fraction(1, 4)

    def test_exact_rationals_pinned(self, tables):
        # recorded from the Fraction implementation of the cross sums and
        # local dots; the integer reductions must give the same rationals
        ctx = ProgressionContext(10007, 5, 6)
        ms = build_moduli_set(6, 2, ctx, tables)
        w = compute_weights(ms)
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
        f = log_summary(ctx, ms.members, tables)
        g = mirror_summary(ctx.target, ms.members, tables)
        assert estimate_inner(f, g, ms, w) == Fraction(
            236491402238115587836713019525263867253221247908890207189,
            159351973694776134992082822446136809016850487370055680,
        )

    def test_paper_form_values(self, tables):
        ctx = ProgressionContext(10**6, 1, 1)
        ms = build_moduli_set(4, 1, ctx, tables)
        w = paper_weights(ms, padding_constant=1e4, padding_exponent=0.1)
        fam = ms.vectors
        for q, weight in w.m_phi.items():
            norm = local_product(fam[q][0], fam[q][0])
            assert weight == pytest.approx(10**6 * float(norm) + 1e4 * (10**6) ** 0.1)
            assert weight >= 10**6 * euler_phi(factorize(q, tables)) / 4

    def test_paper_form_rejects_bad_padding(self, tables):
        ctx = ProgressionContext(100, 1, 1)
        ms = build_moduli_set(2, 1, ctx, tables)
        with pytest.raises(ValueError):
            paper_weights(ms, padding_constant=-1.0, padding_exponent=0.1)
        # each form takes exactly its own arguments
        with pytest.raises(TypeError):
            paper_weights(ms)
        with pytest.raises(TypeError):
            compute_weights(ms, padding_constant=1.0, padding_exponent=0.1)

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
            paper_weights(ms, padding_constant=constant, padding_exponent=exponent)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            Weights(m_phi={1: 0}, m_psi={})


@st.composite
def unit_contexts(draw):
    """A context N <= 10**5 with q' <= 12 and a' a unit mod q'."""
    qprime = draw(st.integers(1, 12))
    units = [a for a in range(qprime) if math.gcd(a, qprime) == 1]
    return ProgressionContext(
        draw(st.integers(1, 10**5)), draw(st.sampled_from(units)), qprime
    )


class TestClassification:
    @settings(max_examples=40)
    @given(ctx=unit_contexts(), q1=st.integers(1, 12), q2=st.integers(1, 3))
    def test_read_off_the_vectors(self, tables, ctx, q1, q2):
        # the members whose kappa or eta vanishes are the alignment term's
        # +phi(q) and -phi(q), and the weights are over the other vectors
        ms = build_moduli_set(q1, q2, ctx, tables)
        align = {}
        for q in ms.members:
            fq = factorize(q, tables)
            align[q] = alignment_term(ctx, fq) / euler_phi(fq)
        assert ms.exceptional == {q for q in ms.members if align[q] == 1}
        assert ms.degenerate == {q for q in ms.members if align[q] == -1}
        nonzero = [
            {q for q in ms.members if ms.vectors[q][side].numerators.any()}
            for side in (0, 1)
        ]
        for w in (compute_weights(ms), paper_weights(ms, 1e4, 0.1)):
            assert [set(w.m_phi), set(w.m_psi)] == nonzero


class TestEstimateInner:
    def test_singleton_is_rank_one(self, tables):
        ctx = ProgressionContext(12, 1, 1)
        ms = build_moduli_set(1, 1, ctx, tables)
        w = compute_weights(ms)
        f = [3, 0, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        g = [2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5]
        got = estimate_inner(summary_of((f, 1), ms), summary_of((g, 1), ms), ms, w)
        assert got == Fraction(sum(f) * sum(g), 12)

    def test_symmetric_and_bilinear(self, tables):
        ctx = ProgressionContext(60, 1, 1)
        ms = build_moduli_set(3, 2, ctx, tables)
        w = compute_weights(ms)
        rng = Draws(7)
        f1 = dense_int(rng.integers(-5, 6, size=60))
        f2 = dense_int(rng.integers(-5, 6, size=60))
        g = dense_int(rng.integers(-5, 6, size=60))
        a, b = Fraction(2, 3), Fraction(-7, 5)
        # a f1 + b f2 = (10 f1 - 21 f2) / 15, exactly
        combo = summary_of((10 * f1 - 21 * f2, 15), ms)
        f1, f2, g = (summary_of((h, 1), ms) for h in (f1, f2, g))
        lhs = estimate_inner(combo, g, ms, w)
        rhs = a * estimate_inner(f1, g, ms, w) + b * estimate_inner(f2, g, ms, w)
        assert lhs == rhs
        assert estimate_inner(f1, g, ms, w) == estimate_inner(g, f1, ms, w)

    def test_constant_function_captured_exactly(self, tables):
        ctx = ProgressionContext(40, 1, 1)
        ms = build_moduli_set(1, 1, ctx, tables)
        w = compute_weights(ms)
        h = summary_of(([1] * 40, 1), ms)
        assert bessel_defect(h, ms, w) == 0

    def test_bessel_defect_nonnegative_random(self, tables):
        rng = Draws(0xBE55E1)
        for ctx in (
            ProgressionContext(500, 1, 1),
            ProgressionContext(501, 1, 2),
            ProgressionContext(502, 2, 5),
        ):
            ms = build_moduli_set(4, 2, ctx, tables)
            w = compute_weights(ms)
            for _ in range(6):
                h = summary_of((rng.integers(-9, 10, size=ctx.target), 1), ms)
                assert bessel_defect(h, ms, w) >= 0

    def test_bessel_defect_on_canonical_functions(self, tables):
        ctx = ProgressionContext(2000, 1, 2)
        ms = build_moduli_set(4, 1, ctx, tables)
        w = compute_weights(ms)
        f = log_summary(ctx, ms.members, tables)
        g = mirror_summary(ctx.target, ms.members, tables)
        df = bessel_defect(f, ms, w)
        assert 0 <= df <= f.inner()
        dg = bessel_defect(g, ms, w)
        assert 0 <= dg <= g.inner()

    def test_almost_orthogonality_expansion(self, tables):
        # ||sum xi_u u||^2 <= sum M_u xi_u^2, expanded exactly
        rng = Draws(0x0AB1E)
        configs = [
            ProgressionContext(5000, 1, 1),
            ProgressionContext(5001, 1, 2),
            ProgressionContext(9999, 2, 5),
            ProgressionContext(10_000, 5, 6),
        ]
        for ctx in configs:
            ms = build_moduli_set(6, 2, ctx, tables)
            w = compute_weights(ms)
            fam = ms.vectors
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
        w = compute_weights(ms)
        f = log_summary(ctx, ms.members, tables)
        g = mirror_summary(ctx.target, ms.members, tables)
        approx = float(estimate_inner(f, g, ms, w))
        truth = count_representations(ctx.target, 1, 1, tables).lambda_weighted
        assert truth > 0
        assert abs(approx / truth - 1) < 0.3


class TestBreakdownAndPredictions:
    def test_rows_sum_to_estimate(self, tables):
        ctx = ProgressionContext(3000, 1, 1)
        ms = build_moduli_set(4, 2, ctx, tables)
        w = compute_weights(ms)
        f = log_summary(ctx, ms.members, tables)
        g = mirror_summary(ctx.target, ms.members, tables)
        rows = per_q_breakdown(f, g, ms, w, tables, 1)
        assert [row["q"] for row in rows] == list(ms.members)
        total = math.fsum(row["contribution"] for row in rows)
        assert total == pytest.approx(
            float(estimate_inner(f, g, ms, w)), rel=1e-9
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
        pred = predicted_main_terms(ms, 3, tables, 1)
        assert pred["f_psi"] == pytest.approx(ctx.target * 0.75)
        f = log_summary(ctx, ms.members, tables)
        fam = ms.vectors
        empirical = float(_dot(f, fam[3][1]))
        assert empirical > 0
        assert abs(empirical / pred["f_psi"] - 1) < 0.1

    def test_predicted_mirror_products_track(self, tables):
        ctx = ProgressionContext(20_000, 1, 1)
        ms = build_moduli_set(5, 1, ctx, tables)
        g = mirror_summary(ctx.target, ms.members, tables)
        fam = ms.vectors
        for q in ms.members:
            pred = predicted_main_terms(ms, q, tables, 1)
            got = float(_dot(g, fam[q][0]))
            if abs(pred["phi_g"]) > 1:
                assert got == pytest.approx(pred["phi_g"], rel=0.05)


    @settings(max_examples=60)
    @given(data=st.data())
    def test_predictions_equal_the_density_products(self, tables, data):
        # predicted_main_terms reads the two norms: theta = t(q)(eta + kappa)
        # and rho = c(eta - kappa) are orthogonal combinations, since
        # [eta|kappa] = 0; the reference takes the four products of eta and
        # kappa with theta and rho built as vectors
        n = data.draw(st.integers(1, 10**5), label="N")
        qprime = data.draw(st.integers(1, 12), label="qprime")
        units = [a for a in range(qprime) if math.gcd(a, qprime) == 1]
        aprime = data.draw(st.sampled_from(units), label="aprime")
        q1, q2 = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
        ctx = ProgressionContext(n, aprime, qprime)
        ms = build_moduli_set(q1, q2, ctx, tables)
        phi_qprime = euler_phi(factorize(qprime, tables))
        for q in ms.members:
            eta, kappa = ms.vectors[q]
            assert local_product(eta, kappa) == 0
            fq = factorize(q, tables)
            g1, _ = progression_split(ctx, fq)
            _, q2_part = cubefree_split(fq)
            gate = int(qprime % (q2_part.value**2) == 0)
            t = star_scale(fq)
            theta = LocalVector(
                q, t.numerator * (eta.numerators + kappa.numerators), 2 * t.denominator
            )
            rho = LocalVector(
                q,
                gate * mobius(g1) * (eta.numerators - kappa.numerators),
                2 * phi_qprime * euler_phi(g1),
            )
            want = {
                "f_phi": n * float(local_product(eta, rho)),
                "phi_g": n * (float(local_product(eta, theta)) / PI_SQ_OVER_6),
                "f_psi": n * float(local_product(kappa, rho)),
                "psi_g": n * (float(local_product(kappa, theta)) / PI_SQ_OVER_6),
            }
            got = predicted_main_terms(ms, q, tables, phi_qprime)
            assert {k: v.hex() for k, v in got.items()} == {
                k: v.hex() for k, v in want.items()
            }, q


class TestExactGlobalProducts:
    """The summary reductions against brute-force Fraction sums over n, for
    sparse and dense functions on both sides of every int64 bound."""

    @settings(max_examples=150)
    @given(data=st.data())
    def test_global_inner_matches_brute_force(self, data):
        length = data.draw(st.integers(1, 40))
        h = data.draw(global_functions(length))
        assert dense_summary(*h, [1]).inner() == sum(x * x for x in brute_values(h))

    @settings(max_examples=60)
    @given(data=st.data())
    def test_local_dots_match_brute_force(self, families, data):
        ctx = data.draw(st.sampled_from(CONTEXTS))
        h = data.draw(global_functions(ctx.target))
        ms, _, fam = families[ctx]
        summary = summary_of(h, ms)
        for q, (eta, kappa) in fam.items():
            assert _dot(summary, eta) == brute_dot(h, eta)
            assert _dot(summary, kappa) == brute_dot(h, kappa)

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
                    want += brute_dot(f, vec) * brute_dot(g, vec) / table[q]
        got = estimate_inner(summary_of(f, ms), summary_of(g, ms), ms, w)
        assert got == want

    @settings(max_examples=40)
    @given(data=st.data())
    def test_self_product_matches_a_copy(self, tables, families, data):
        # estimate_inner(h, h) reuses h's dots for g; a copy recomputes them
        ctx = data.draw(st.sampled_from(CONTEXTS))
        ms, w, _ = families[ctx]
        h = summary_of(data.draw(global_functions(ctx.target)), ms)
        copy = Summary(h.length, h.denominator, h.norm, dict(h.class_sums))
        assert estimate_inner(h, h, ms, w) == estimate_inner(h, copy, ms, w)

    def test_dense_products_past_int64(self):
        # an int64 dot wrapped 4 * 2**80 to 0, and the int64 class sum of
        # eight values 2**61 wrapped 2**64 to 0
        assert dense_summary([1 << 40] * 4, 1, [1]).inner() == 4 << 80
        one = LocalVector(1, [1], 1)
        assert _dot(dense_summary([1 << 61] * 8, 1, [1]), one) == 1 << 64

    def test_limb_products_of_log_numerators(self, tables):
        # log numerators sit near 2**57: their squares pass 2**62, so they
        # are summed in 31-bit limbs; +-2**62 is the extreme exact_sum
        # admits, where the high limb squares to 2**62 itself
        nums = [(1 << 57) - 1, (1 << 57) + 12_345, 3, (1 << 62) - 1, -(1 << 62)]
        assert square_sum(dense_int(nums)) == sum(x * x for x in nums)
        # the streamed [f|f] is the sum of the squared log numerators
        ctx = ProgressionContext(1000, 1, 1)
        f = log_summary(ctx, [1001], tables)
        values = f.class_sums[1001]
        assert values[2] == int(log_numerators(dense_int([2]))[0])
        assert f.norm == sum(x * x for x in values)

    def test_class_sums_once_per_function_and_modulus(self, tables, monkeypatch):
        # one scan per summary, binning each piece at the family's maximal
        # moduli (those dividing no other member), from which every modulus
        # is folded once; the products then read the summaries and scan
        # nothing
        ctx = ProgressionContext(2000, 1, 2)
        ms = build_moduli_set(4, 2, ctx, tables)
        w = compute_weights(ms)
        scans, binned = [], []
        log_scan, class_sums = counting._log_scan, counting.exact_class_sums
        monkeypatch.setattr(
            counting, "_log_scan", lambda *a, **k: scans.append(a) or log_scan(*a, **k)
        )
        monkeypatch.setattr(
            counting,
            "exact_class_sums",
            lambda n, v, moduli: binned.append(moduli) or class_sums(n, v, moduli),
        )
        f = log_summary(ctx, ms.members, tables)
        g = mirror_summary(ctx.target, ms.members, tables)
        assert len(scans) == 1
        maximal = [q for q in ms.members if all(o == q or o % q for o in ms.members)]
        assert maximal != list(ms.members)
        assert binned and all(m == maximal for m in binned)
        estimate_inner(f, g, ms, w)
        bessel_defect(f, ms, w)
        bessel_defect(g, ms, w)
        assert len(scans) == 1


def _dense_log_and_mirror(target, residue, modulus):
    """f and g on [1, target] as dense numerator lists, from a plain sieve:
    f(n) is the numerator of log p at each prime power n = p^k in the
    class (np.log(p) at every power of p, as the scan takes them), and g(n)
    is 1 when target - n is square-free."""
    composite = np.zeros(target + 1, dtype=bool)
    composite[:2] = True
    squarefree = np.ones(target + 1, dtype=bool)
    squarefree[0] = False
    for p in range(2, math.isqrt(target) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
            squarefree[p * p :: p * p] = False
    f = [0] * target
    primes = np.flatnonzero(~composite)
    for p, num in zip(primes.tolist(), log_numerators(primes).tolist()):
        power = p
        while power <= target:
            if power % modulus == residue:
                f[power - 1] = num
            power *= p
    g = squarefree[target - 1 :: -1].astype(int).tolist()
    return f, g


class TestStreamedSummaries:
    """The streamed summaries of f and g, and the direct product, against
    the oracle's dense sums, at the default window and the 8 KiB cap."""

    @settings(max_examples=20)
    @given(
        data=st.data(),
        target=st.integers(3, 200_000),
        modulus=st.integers(1, 12),
        q1=st.integers(1, 8),
        q2=st.integers(1, 3),
    )
    def test_streamed_sums_equal_dense_sums(
        self, tables, data, target, modulus, q1, q2
    ):
        units = [a for a in range(modulus) if math.gcd(a, modulus) == 1]
        residue = data.draw(st.sampled_from(units))
        ctx = ProgressionContext(target, residue, modulus)
        ms = build_moduli_set(q1, q2, ctx, tables)
        f, g = _dense_log_and_mirror(target, residue, modulus)
        dense_f = dense_summary(f, LOG_SCALE, ms.members)
        dense_g = dense_summary(g, 1, ms.members)
        direct = float(Fraction(sum(x * y for x, y in zip(f, g)), LOG_SCALE))
        for cap in (None, "8192"):
            with pytest.MonkeyPatch.context() as mp:
                if cap is None:
                    mp.delenv("SQFREP_MAX_WINDOW_BYTES", raising=False)
                else:
                    mp.setenv("SQFREP_MAX_WINDOW_BYTES", cap)
                assert log_summary(ctx, ms.members, tables) == dense_f, cap
                assert mirror_summary(target, ms.members, tables) == dense_g, cap
                got = count_representations(target, residue, modulus, tables)
                assert got.lambda_weighted == direct, cap
