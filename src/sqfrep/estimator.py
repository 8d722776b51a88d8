"""Bilinear estimator over a family of local model vectors.

The machinery: a set of cubefree moduli q = q1 * q2^2, the periodized model
vectors sum/diff lifted to [1, N], dominating weights M per vector, and the
rank-|family| bilinear form <f|g> that approximates the true inner product
[f|g].  A member is exceptional when its diff vector vanishes and
degenerate when its sum vector does, read off the vectors themselves; only
the nonzero vectors are weighted.  Each weight form is one function:
`compute_weights` takes the exact cross sums and `paper_weights` the
paper's N ||u||^2 + C N^eps.  Under the exact weights the Bessel-type
inequality sum M^-1 |[h|u]|^2 <= [h|h] holds for every h, because every
product here is computed in exact rational arithmetic.

The estimator reads a global function h on [1, N] only through [h|h] and its
projection, the dots [h|u~] with the weighted vectors u: <f|g> is sum_u
[f|u~][u~|g] / M(u), and h's Bessel defect is [h|h] - <h|h>.  A dot is h's
class sums modulo u's modulus against u's numerators, so h is never
materialised: a Summary holds [h|h] and those class sums, as Python ints
over h's one denominator, and is built in bounded memory.  The log-weighted
function f comes from one windowed scan of its progression
(`counting.log_class_sums`, int64 log numerators over 2**53); the
square-free mirror g from the sieve-free Moebius counter
(`counting.squarefree_class_counts`).  The true product [f|g] is
`count_representations`' lambda_weighted, which the CLI reads directly.
Model vectors hold int64 numerators over 2, and the cross product of two
periodic vectors is an integer sum over one lcm period, plus a remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from sqfrep.arith import (
    FactoredInt,
    SieveTables,
    cubefree_split,
    euler_phi,
    factorize,
    mobius,
    require_int64,
    star_scale,
)
from sqfrep.counting import LOG_SCALE, log_class_sums, squarefree_class_counts
from sqfrep.localmodel import (
    PI_SQ_OVER_6,
    LocalVector,
    ProgressionContext,
    local_product,
    model_diff,
    model_sum,
    progression_split,
)


@dataclass(frozen=True)
class ModuliSet:
    """All cubefree q = q1 * q2^2 with q1 and q2 up to the bounds given to
    build_moduli_set and q1 q2 square-free, plus the two distinguished
    subsets and the local vectors behind the family.

    exceptional: q whose difference vector vanishes (its square-free part
    away from the context modulus divides the target, and the rest divides
    target - residue).  degenerate: q whose sum vector vanishes instead;
    possible because one of the two split parts is even.  Both are read off
    the vectors; `verify` checks them against the alignment term c_{g1}(N)
    c_{m2}(N - a') = +-phi(q) (`oracle.alignment_term`).  factored: q ->
    its FactoredInt, the one factorization of each member.  vectors: q ->
    (sum vector eta, difference vector kappa), built once with the set.
    """

    context: ProgressionContext
    members: tuple[int, ...]
    exceptional: frozenset[int]
    degenerate: frozenset[int]
    factored: Mapping[int, FactoredInt] = field(compare=False)
    vectors: Mapping[int, tuple[LocalVector, LocalVector]] = field(compare=False)


@dataclass(frozen=True)
class Weights:
    """Dominating weight per family vector; strictly positive by contract."""

    m_phi: Mapping[int, object]
    m_psi: Mapping[int, object]

    def __post_init__(self) -> None:
        for name, table in (("m_phi", self.m_phi), ("m_psi", self.m_psi)):
            for q, value in table.items():
                if not value > 0:
                    raise ValueError(f"{name}[{q}] = {value} is not positive")


@dataclass(frozen=True)
class Summary:
    """All the estimator reads of a global function h on [1, length], whose
    value at n is an integer numerator over one positive denominator.

    norm is the sum of the squared numerators, so [h|h] = norm /
    denominator**2, and class_sums[q][r] is the sum of the numerators at the
    n <= length with n ≡ r (mod q), for every modulus q the summary was
    built for.  Every value is a Python int, so nothing here can overflow.
    """

    length: int
    denominator: int
    norm: int
    class_sums: Mapping[int, Sequence[int]]

    def inner(self) -> Fraction:
        """[h|h], exact."""
        return Fraction(self.norm, self.denominator**2)


def log_summary(
    ctx: ProgressionContext, moduli: Sequence[int], tables: SieveTables
) -> Summary:
    """f: log p at every prime power p^k <= target lying in the context
    progression, zero elsewhere, over LOG_SCALE.  One scan of the
    progression's odd lane yields its class sums for every modulus and the
    squares behind [f|f]."""
    sums, squares = log_class_sums(
        ctx.target, ctx.residue, ctx.modulus, moduli, tables
    )
    return Summary(ctx.target, LOG_SCALE, squares, dict(zip(moduli, sums)))


def mirror_summary(target: int, moduli: Sequence[int], tables: SieveTables) -> Summary:
    """g: g(n) = 1 iff target - n is square-free, n in [1, target], with
    g(target) = 0 by the mu^2(0) = 0 convention.

    Nothing is sieved: g's class sum at r mod q counts the square-free
    m <= target - 1 with m ≡ target - r (mod q), which the Moebius counter
    gives, and [g|g] is the count of all of them, the q = 1 case."""
    (count,), *rows = squarefree_class_counts(target - 1, [1, *moduli], tables)
    sums = {
        q: [counts[(target - r) % q] for r in range(q)]
        for q, counts in zip(moduli, rows)
    }
    return Summary(target, 1, count, sums)


def _dot(h: Summary, u: LocalVector) -> Fraction:
    """[h|u~] = sum over n <= length of h(n) u(n mod q), exact: h's class
    sums modulo u's modulus q dotted with u's numerators in Python ints."""
    sums = h.class_sums[u.modulus]
    return Fraction(
        sum(s * e for s, e in zip(sums, u.numerators.tolist())),
        h.denominator * u.denominator,
    )


def build_moduli_set(
    q1_bound: int, q2_bound: int, ctx: ProgressionContext, tables: SieveTables
) -> ModuliSet:
    """Enumerate the moduli family, classify each member and build its
    model vectors.  Each (q1, q2) pair is factored once, as q1 q2; q's
    factors are those primes, squared where they divide q2."""
    if q1_bound < 1 or q2_bound < 1:
        raise ValueError("bounds must be at least 1")
    factored = {}
    for q2 in range(1, q2_bound + 1):
        for q1 in range(1, q1_bound + 1):
            # q1 q2 square-free: q1 and q2 are square-free and coprime
            f = factorize(q1 * q2, tables)
            if f.is_squarefree:
                q = q1 * q2 * q2
                factored[q] = FactoredInt(
                    q, tuple((p, 2 if q2 % p == 0 else 1) for p, _ in f.factors)
                )
    factored = dict(sorted(factored.items()))
    members = tuple(factored)
    vectors = {
        q: (model_sum(ctx, fq, tables), model_diff(ctx, fq, tables))
        for q, fq in factored.items()
    }

    def vanishing(side: int) -> frozenset[int]:
        return frozenset(q for q in members if not vectors[q][side].numerators.any())

    return ModuliSet(
        context=ctx,
        members=members,
        exceptional=vanishing(1),
        degenerate=vanishing(0),
        factored=factored,
        vectors=vectors,
    )


def periodic_cross(u: LocalVector, v: LocalVector, length: int) -> Fraction:
    """sum over n <= length of u(n mod q_u) v(n mod q_v), via one shared
    period plus the remainder.

    The period is an int64 array of numerator products, so every partial
    sum is below lcm * max|u| * max|v|.  Model vectors have |numerator| <=
    2 phi(q), so that is below 4 lcm phi(q_u) phi(q_v) < 1e13 for moduli up
    to the verify cap of 1000.
    """
    span = math.lcm(u.modulus, v.modulus)
    require_int64(span * u.max_abs * v.max_abs)
    # period[n] is the product at n = 0..span-1; n = span wraps to 0, so the
    # sum over n = 1..rem is period[1 : rem + 1]
    period = np.tile(u.numerators, span // u.modulus) * np.tile(
        v.numerators, span // v.modulus
    )
    whole, rem = divmod(length, span)
    total = whole * int(period.sum()) + int(period[1 : rem + 1].sum())
    return Fraction(total, u.denominator * v.denominator)


def _weights(ms: ModuliSet, values) -> Weights:
    """One weight per family vector that does not vanish, eta in member
    order and then kappa: values takes that list of vectors and returns
    their weights in the same order."""
    keys = [
        (side, q)
        for side, vanishing in enumerate((ms.degenerate, ms.exceptional))
        for q in ms.members
        if q not in vanishing
    ]
    tables = ({}, {})
    weights = values([ms.vectors[q][side] for side, q in keys])
    for (side, q), value in zip(keys, weights):
        tables[side][q] = value
    return Weights(*tables)


def compute_weights(ms: ModuliSet) -> Weights:
    """Exact-cross-sum weights: M(u) = sum over the weighted family vectors
    v of |[u~|v~]|, with the lifts taken over [1, target].  This is what
    makes the Bessel inequality unconditional."""
    n = ms.context.target

    def cross_sums(vectors: list[LocalVector]) -> list[Fraction]:
        # periodic_cross is symmetric: each unordered pair is computed once
        # and its magnitude added to both sides
        totals = [Fraction(0)] * len(vectors)
        for i, u in enumerate(vectors):
            for j in range(i, len(vectors)):
                cross = abs(periodic_cross(u, vectors[j], n))
                totals[i] += cross
                if j != i:
                    totals[j] += cross
        return totals

    return _weights(ms, cross_sums)


def paper_weights(
    ms: ModuliSet, padding_constant: float, padding_exponent: float
) -> Weights:
    """The paper's weights: M(u) = N ||u||^2 + C N^eps for each weighted
    family vector u, with explicit positive padding C N^eps."""
    n = ms.context.target
    if padding_constant <= 0:
        raise ValueError("padding_constant must be positive")
    try:
        pad = padding_constant * float(n) ** padding_exponent
    except OverflowError:
        pad = math.inf
    if not math.isfinite(pad):
        raise ValueError(
            f"padding C N^eps = {padding_constant!r} * {n}^{padding_exponent!r}"
            " is not finite"
        )
    return _weights(ms, lambda vecs: [n * local_product(v, v) + pad for v in vecs])


def _projection(
    h: Summary, ms: ModuliSet, weights: Weights
) -> dict[tuple[int, int], Fraction]:
    """h's projection onto the weighted family: {(q, side): [h|u~]} over the
    weighted vectors u, side 0 for eta and 1 for kappa, in member order and
    eta before kappa."""
    if h.length != ms.context.target:
        raise ValueError("length mismatch")
    return {
        (q, side): _dot(h, ms.vectors[q][side])
        for q in ms.members
        for side, table in enumerate((weights.m_phi, weights.m_psi))
        if q in table
    }


def estimate_inner(f: Summary, g: Summary, ms: ModuliSet, weights: Weights):
    """<f|g> = sum over the weighted vectors u of [f|u~][u~|g] / M(u): the
    weighted bilinear approximation to [f|g] over the family."""
    f_dots = _projection(f, ms, weights)
    g_dots = f_dots if g is f else _projection(g, ms, weights)
    tables = (weights.m_phi, weights.m_psi)
    total = 0
    for (q, side), a in f_dots.items():
        total += a * g_dots[q, side] / tables[side][q]
    return total


def bessel_defect(h: Summary, ms: ModuliSet, weights: Weights):
    """[h|h] minus the family's captured energy; non-negative under
    exact-cross-sum weights."""
    return h.inner() - estimate_inner(h, h, ms, weights)


def predicted_main_terms(ms: ModuliSet, q: int, phi_qprime: int) -> dict[str, float]:
    """First-order predictions for the four global products against the
    lifted model vectors, from the local cross products and phi(q').

    The diff-vector/log-weight prediction is +N [kappa|rho*]: expanding
    [psi*_q | f] over classes gives the same sign as the sum-vector case.
    """
    ctx = ms.context
    n = ctx.target
    fq = ms.factored[q]
    eta, kappa = ms.vectors[q]
    # theta = t(q) (eta + kappa) is mirror_density_star and rho = c (eta -
    # kappa) prime_density_star (tests/oracles.py), c = gate mu(g1) /
    # (phi(q') phi(g1)), gated to 0 unless q2^2 divides q' (verify checks
    # both entrywise); [eta|kappa] = 0 (model-norm-identities), so each
    # product is a multiple of a norm
    g1, _ = progression_split(ctx, fq)
    _, q2 = cubefree_split(fq)
    gate = int(ctx.modulus % (q2.value * q2.value) == 0)
    t = star_scale(fq)
    c = Fraction(gate * mobius(g1), phi_qprime * euler_phi(g1))
    eta_sq, kappa_sq = local_product(eta, eta), local_product(kappa, kappa)
    # theta is in units of 6/pi^2, so its products are divided by pi^2/6
    return {
        "f_phi": n * float(c * eta_sq),
        "phi_g": n * (float(t * eta_sq) / PI_SQ_OVER_6),
        "f_psi": n * float(-c * kappa_sq),
        "psi_g": n * (float(t * kappa_sq) / PI_SQ_OVER_6),
    }


def per_q_breakdown(
    f: Summary,
    g: Summary,
    ms: ModuliSet,
    weights: Weights,
    phi_qprime: int,
) -> list[dict]:
    """One row per modulus: norms, weights, the four exact products, the
    row's contribution to <f|g>, and the predicted main terms."""
    f_dots = _projection(f, ms, weights)
    g_dots = _projection(g, ms, weights)
    sides = (("phi", weights.m_phi), ("psi", weights.m_psi))
    rows = []
    for q in ms.members:
        eta, kappa = ms.vectors[q]
        predicted = predicted_main_terms(ms, q, phi_qprime)
        row = {
            "q": q,
            "exceptional": q in ms.exceptional,
            "degenerate": q in ms.degenerate,
            "eta_norm_sq": float(local_product(eta, eta)),
            "kappa_norm_sq": float(local_product(kappa, kappa)),
            "m_phi": float(weights.m_phi.get(q, 0.0)),
            "m_psi": float(weights.m_psi.get(q, 0.0)),
            **dict.fromkeys(("f_phi", "phi_g", "f_psi", "psi_g", "contribution"), 0.0),
            **{f"predicted_{key}": value for key, value in predicted.items()},
        }
        for side, (kind, table) in enumerate(sides):
            if q in table:
                a, b = f_dots[q, side], g_dots[q, side]
                row[f"f_{kind}"] = float(a)
                row[f"{kind}_g"] = float(b)
                row["contribution"] += float(a * b / table[q])
        rows.append(row)
    return rows
