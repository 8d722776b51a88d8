"""Bilinear estimator over a family of local model vectors.

The machinery: a set of cubefree moduli q = q1 * q2^2, the periodized model
vectors sum/diff lifted to [1, N], dominating weights M per vector, and the
rank-|family| bilinear form <f|g> that approximates the true inner product
[f|g].  With exact-cross-sum weights the Bessel-type inequality
sum M^-1 |[h|u]|^2 <= [h|h] holds for every h, because every product here
is computed in exact rational arithmetic.

Every product the estimator takes of a global function h on [1, N] is a
linear reduction: [h|h], and h's class sums modulo each family modulus,
against which [h|u~] is q products with u's numerators.  So h is never
materialised: a Summary holds those reductions, as Python ints over h's one
denominator, and is built in bounded memory.  The log-weighted function f
comes from one windowed scan of its progression (`counting.log_class_sums`,
int64 log numerators over 2**53); the square-free mirror g from the
sieve-free Moebius counter (`counting.squarefree_class_counts`).  The true
product [f|g] is `count_representations`' lambda_weighted, which the CLI
reads directly.  Model vectors hold int64 numerators over 2, and the cross
product of two periodic vectors is an integer sum over one lcm period, plus
a remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from sqfrep.arith import (
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
    LocalVector,
    ProgressionContext,
    alignment_term,
    local_product,
    model_diff,
    model_sum,
    progression_split,
)

EXACT_MODE = "exact-cross-sum"
PAPER_MODE = "paper-form"


@dataclass(frozen=True)
class ModuliSet:
    """All cubefree q = q1 * q2^2 with q1 <= q1_bound, q2 <= q2_bound and
    q1 q2 square-free, plus the two distinguished subsets and the local
    vectors behind the family.

    exceptional: q whose difference vector vanishes (its square-free part
    away from the context modulus divides the target, and the rest divides
    target - residue).  degenerate: q whose sum vector vanishes instead;
    possible because one of the two split parts is even.  vectors: q ->
    (sum vector eta, difference vector kappa), built once with the set.
    """

    q1_bound: int
    q2_bound: int
    context: ProgressionContext
    members: tuple[int, ...]
    exceptional: frozenset[int]
    degenerate: frozenset[int]
    vectors: Mapping[int, tuple[LocalVector, LocalVector]] = field(compare=False)


@dataclass(frozen=True)
class Weights:
    """Dominating weight per family vector; strictly positive by contract."""

    m_phi: Mapping[int, object]
    m_psi: Mapping[int, object]
    mode: str

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
    sums = {}
    for q in moduli:
        counts = squarefree_class_counts(target - 1, q, tables)
        sums[q] = [counts[(target - r) % q] for r in range(q)]
    (count,) = squarefree_class_counts(target - 1, 1, tables)
    return Summary(target, 1, count, sums)


def _local_dots(
    h: Summary, modulus: int, vectors: Sequence[LocalVector]
) -> list[Fraction]:
    """[h | periodized v] = sum over n <= length of h(n) v(n mod modulus)
    for each vector v of that modulus, exact: h's class sums mod modulus
    dotted with every vector's numerators in Python ints."""
    if any(v.modulus != modulus for v in vectors):
        raise ValueError("every vector must have the given modulus")
    sums = h.class_sums[modulus]
    return [
        Fraction(
            sum(s * e for s, e in zip(sums, v.numerators.tolist())),
            h.denominator * v.denominator,
        )
        for v in vectors
    ]


def build_moduli_set(
    q1_bound: int, q2_bound: int, ctx: ProgressionContext, tables: SieveTables
) -> ModuliSet:
    """Enumerate the moduli family, classify each member and build its
    model vectors."""
    if q1_bound < 1 or q2_bound < 1:
        raise ValueError("bounds must be at least 1")
    members = []
    for q2 in range(1, q2_bound + 1):
        f2 = factorize(q2, tables)
        if not f2.is_squarefree:
            continue
        for q1 in range(1, q1_bound + 1):
            f1 = factorize(q1, tables)
            if not f1.is_squarefree or math.gcd(q1, q2) != 1:
                continue
            members.append(q1 * q2 * q2)
    members.sort()
    exceptional = []
    degenerate = []
    vectors = {}
    for q in members:
        fq = factorize(q, tables)
        c = alignment_term(ctx, fq)
        phi = euler_phi(fq)
        if c == phi:
            exceptional.append(q)
        elif c == -phi:
            degenerate.append(q)
        vectors[q] = (model_sum(ctx, fq, tables), model_diff(ctx, fq, tables))
    return ModuliSet(
        q1_bound=q1_bound,
        q2_bound=q2_bound,
        context=ctx,
        members=tuple(members),
        exceptional=frozenset(exceptional),
        degenerate=frozenset(degenerate),
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


def compute_weights(
    ms: ModuliSet,
    mode: str = EXACT_MODE,
    padding_constant: float | None = None,
    padding_exponent: float | None = None,
) -> Weights:
    """Dominating weights for each family vector.

    exact-cross-sum: M(u) = sum over family vectors v of |[u~|v~]| with the
    lifts taken over [1, target]; this is what makes the Bessel inequality
    unconditional.  paper-form: M(u) = N ||u||^2 + C N^eps with explicit
    positive padding.
    """
    n = ms.context.target
    phi_members = [q for q in ms.members if q not in ms.degenerate]
    psi_members = [q for q in ms.members if q not in ms.exceptional]
    if mode == EXACT_MODE:
        if padding_constant is not None or padding_exponent is not None:
            raise ValueError("padding applies to paper-form only")
        vectors = [("phi", q, ms.vectors[q][0]) for q in phi_members]
        vectors += [("psi", q, ms.vectors[q][1]) for q in psi_members]
        # periodic_cross is symmetric: each unordered pair is computed once
        # and its magnitude added to both sides
        totals = [Fraction(0)] * len(vectors)
        for i, (_, _, vec) in enumerate(vectors):
            for j in range(i, len(vectors)):
                cross = abs(periodic_cross(vec, vectors[j][2], n))
                totals[i] += cross
                if j != i:
                    totals[j] += cross
        m_phi = {}
        m_psi = {}
        for (kind, q, _), total in zip(vectors, totals):
            if kind == "phi":
                m_phi[q] = total
            else:
                m_psi[q] = total
        return Weights(m_phi=m_phi, m_psi=m_psi, mode=mode)
    if mode == PAPER_MODE:
        if padding_constant is None or padding_exponent is None:
            raise ValueError("paper-form needs padding_constant and padding_exponent")
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
        m_phi = {
            q: n * local_product(ms.vectors[q][0], ms.vectors[q][0]).coeff + pad
            for q in phi_members
        }
        m_psi = {
            q: n * local_product(ms.vectors[q][1], ms.vectors[q][1]).coeff + pad
            for q in psi_members
        }
        return Weights(m_phi=m_phi, m_psi=m_psi, mode=mode)
    raise ValueError(f"unknown weight mode {mode!r}")


def _family_products(f: Summary, g: Summary, ms: ModuliSet, weights: Weights):
    """For each family modulus q in order: q, its (eta, kappa), and one
    (kind, [f|u~], [g|u~], M(u)) per weighted vector u of q, "phi" for eta
    before "psi" for kappa."""
    if not f.length == g.length == ms.context.target:
        raise ValueError("length mismatch")
    for q, (eta, kappa) in ms.vectors.items():
        kept = [
            (kind, vec, table[q])
            for kind, vec, table in (
                ("phi", eta, weights.m_phi),
                ("psi", kappa, weights.m_psi),
            )
            if q in table
        ]
        vectors = [vec for _, vec, _ in kept]
        f_dots = _local_dots(f, q, vectors)
        g_dots = f_dots if g is f else _local_dots(g, q, vectors)
        yield q, eta, kappa, [
            (kind, a, b, m) for (kind, _, m), a, b in zip(kept, f_dots, g_dots)
        ]


def estimate_inner(f: Summary, g: Summary, ms: ModuliSet, weights: Weights):
    """<f|g>: the weighted bilinear approximation to [f|g] over the family."""
    total = 0
    for *_, products in _family_products(f, g, ms, weights):
        for _, a, b, m in products:
            total += a * b / m
    return total


def bessel_defect(h: Summary, ms: ModuliSet, weights: Weights):
    """[h|h] minus the family's captured energy; non-negative under
    exact-cross-sum weights."""
    return h.inner() - estimate_inner(h, h, ms, weights)


def predicted_main_terms(
    ms: ModuliSet, q: int, tables: SieveTables
) -> dict[str, float]:
    """First-order predictions for the four global products against the
    lifted model vectors, from the local cross products.

    The diff-vector/log-weight prediction is +N [kappa|rho*]: expanding
    [psi*_q | f] over classes gives the same sign as the sum-vector case.
    """
    ctx = ms.context
    n = ctx.target
    fq = factorize(q, tables)
    eta, kappa = ms.vectors[q]
    # eta + kappa = mirror_density_star / t(q) and eta - kappa = rho_weight
    # prime_density_star_ungated (verify checks both entrywise); the gated
    # density is the ungated one when q2^2 divides q', and zero otherwise
    g1, _ = progression_split(ctx, fq)
    _, q2 = cubefree_split(fq)
    gate = int(ctx.modulus % (q2.value * q2.value) == 0)
    t = star_scale(fq)
    theta = LocalVector.from_numerators(
        q, t.numerator * (eta.numerators + kappa.numerators), 2 * t.denominator, 1
    )
    rho = LocalVector.from_numerators(
        q,
        gate * mobius(g1) * (eta.numerators - kappa.numerators),
        2 * euler_phi(factorize(ctx.modulus, tables)) * euler_phi(g1),
        0,
    )
    return {
        "f_phi": n * local_product(eta, rho).to_float(),
        "phi_g": n * local_product(eta, theta).to_float(),
        "f_psi": n * local_product(kappa, rho).to_float(),
        "psi_g": n * local_product(kappa, theta).to_float(),
    }


def per_q_breakdown(
    f: Summary,
    g: Summary,
    ms: ModuliSet,
    weights: Weights,
    tables: SieveTables,
) -> list[dict]:
    """One row per modulus: norms, weights, the four exact products, the
    row's contribution to <f|g>, and the predicted main terms."""
    rows = []
    for q, eta, kappa, products in _family_products(f, g, ms, weights):
        predicted = predicted_main_terms(ms, q, tables)
        row = {
            "q": q,
            "exceptional": q in ms.exceptional,
            "degenerate": q in ms.degenerate,
            "eta_norm_sq": float(local_product(eta, eta).coeff),
            "kappa_norm_sq": float(local_product(kappa, kappa).coeff),
            "m_phi": float(weights.m_phi[q]) if q in weights.m_phi else 0.0,
            "m_psi": float(weights.m_psi[q]) if q in weights.m_psi else 0.0,
            "f_phi": 0.0,
            "phi_g": 0.0,
            "f_psi": 0.0,
            "psi_g": 0.0,
            "contribution": 0.0,
            "predicted_f_phi": predicted["f_phi"],
            "predicted_phi_g": predicted["phi_g"],
            "predicted_f_psi": predicted["f_psi"],
            "predicted_psi_g": predicted["psi_g"],
        }
        contribution = 0.0
        for kind, a, b, m in products:
            row[f"f_{kind}"] = float(a)
            row[f"{kind}_g"] = float(b)
            contribution += float(a * b / m)
        row["contribution"] = contribution
        rows.append(row)
    return rows
