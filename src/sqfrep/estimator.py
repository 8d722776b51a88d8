"""Bilinear estimator over a family of local model vectors.

The machinery: a set of cubefree moduli q = q1 * q2^2, the periodized model
vectors sum/diff lifted to [1, N], dominating weights M per vector, and the
rank-|family| bilinear form <f|g> that approximates the true inner product
[f|g].  With exact-cross-sum weights the Bessel-type inequality
sum M^-1 |[h|u]|^2 <= [h|h] holds for every h, because every product here
is computed in exact rational arithmetic.

A global function on [1, N] is integers over one known denominator, in one
of two forms: a SparseFunction (int64 numerators at strictly increasing
indices over its own denominator; the canonical log-weighted function holds
its float logs over 2**53) or a dense 1-d integer array over denominator 1
(the 0/1 mirror indicator).  No element is ever a Fraction: an inner product
is an integer sum of numerator products over the product of the
denominators, taken in int64 while a stated bound keeps it exact and in
Python ints beyond.  Model vectors hold int64 numerators over 2, so [h|u~]
is q products of h's class sums mod q with u's numerators, and the cross
product of two periodic vectors is an integer sum over one lcm period, plus
a remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from sqfrep.arith import (
    NUMERATOR_BOUND,
    CapacityError,
    SieveTables,
    cubefree_split,
    euler_phi,
    factorize,
    mobius,
    require_int64,
    star_scale,
)
from sqfrep.counting import (
    LOG_BITS,
    LOG_SCALE,
    exact_class_sums,
    exact_sum,
    prime_power_logs,
    squarefree_flags,
)
from sqfrep.localmodel import (
    LocalVector,
    ProgressionContext,
    alignment_term,
    local_product,
    model_diff,
    model_sum,
    progression_split,
)

MATERIALIZE_CAP = 10**7

EXACT_MODE = "exact-cross-sum"
PAPER_MODE = "paper-form"


@dataclass(frozen=True)
class ModuliSet:
    """All cubefree q = q1 * q2^2 with q1 <= q1_bound, q2 <= q2_bound and
    q1 q2 square-free, plus the two distinguished subsets.

    exceptional: q whose difference vector vanishes (its square-free part
    away from the context modulus divides the target, and the rest divides
    target - residue).  degenerate: q whose sum vector vanishes instead;
    possible because one of the two split parts is even.
    """

    q1_bound: int
    q2_bound: int
    context: ProgressionContext
    members: tuple[int, ...]
    exceptional: frozenset[int]
    degenerate: frozenset[int]


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


@dataclass(frozen=True, eq=False)
class SparseFunction:
    """A function on [1, length] that is zero off the stored indices.

    indices is a strictly increasing int64 array in [1, length]; the value
    at indices[i] is numerators[i] / denominator, an int64 numerator below
    NUMERATOR_BOUND in magnitude over one positive int denominator, so sums
    of values are exact integer sums.  A function built from floats has
    denominator LOG_SCALE, and float_values gives its floats back without
    loss.
    """

    length: int
    indices: np.ndarray
    numerators: np.ndarray
    denominator: int

    def __post_init__(self) -> None:
        if not (
            self.indices.dtype == self.numerators.dtype == np.int64
            and self.indices.ndim == 1
            and self.indices.shape == self.numerators.shape
        ):
            raise ValueError("indices and numerators must be aligned int64 arrays")
        if not (isinstance(self.denominator, int) and self.denominator >= 1):
            raise ValueError("denominator must be an int of at least 1")
        if self.indices.size and not (
            1 <= self.indices[0]
            and self.indices[-1] <= self.length
            and np.all(self.indices[1:] > self.indices[:-1])
        ):
            raise ValueError("indices must increase strictly within [1, length]")
        if _max_abs(self.numerators) >= NUMERATOR_BOUND:
            raise ValueError("numerators must stay below 2**62 in magnitude")

    @property
    def float_values(self) -> np.ndarray:
        return self.numerators / float(self.denominator)

    @classmethod
    def from_floats(
        cls, length: int, indices: Sequence[int], values: Sequence[float]
    ) -> "SparseFunction":
        """Raises ValueError for a value that is not a multiple of 2**-53
        or whose numerator would reach NUMERATOR_BOUND."""
        scaled = np.ldexp(np.asarray(values, dtype=np.float64), LOG_BITS)
        if not np.all(np.abs(scaled) < NUMERATOR_BOUND) or np.any(
            scaled != np.trunc(scaled)
        ):
            raise ValueError("values must be multiples of 2**-53 below 2**9")
        return cls(
            length,
            np.asarray(indices, dtype=np.int64),
            scaled.astype(np.int64),
            LOG_SCALE,
        )


# A dense global function is a 1-d integer array, index i holding n = i + 1.
GlobalValues = Union[SparseFunction, np.ndarray]


def _check_cap(target: int) -> None:
    if target < 1:
        raise ValueError("target must be positive")
    if target > MATERIALIZE_CAP:
        raise CapacityError(
            f"refusing to materialize a global function of length {target}"
        )


def lambda_progression_function(
    ctx: ProgressionContext, tables: SieveTables
) -> SparseFunction:
    """The log-weighted indicator: log p at every prime power p^k <= target
    lying in the context progression, zero elsewhere."""
    _check_cap(ctx.target)
    if ctx.target > tables.limit**2:
        raise CapacityError("sieve tables do not cover the target")
    indices, numerators = prime_power_logs(
        ctx.target, ctx.residue, ctx.modulus, tables
    )
    return SparseFunction(ctx.target, indices, numerators, LOG_SCALE)


def squarefree_mirror_function(target: int, tables: SieveTables) -> np.ndarray:
    """Dense 0/1 array h[n-1] = 1 iff target - n is square-free, n in
    [1, target]; the n = target slot is 0 by the mu^2(0) = 0 convention."""
    _check_cap(target)
    if target - 1 > tables.limit**2:
        raise CapacityError("sieve tables do not cover the target")
    # index i holds m = i, and n = target - m; reversing maps to n-1.
    return squarefree_flags(target, tables)[::-1].copy()


def _max_abs(a: np.ndarray) -> int:
    """max |a[i]| as a Python int; 0 for an empty array."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _length(h: GlobalValues) -> int:
    """The length of a global function; TypeError for anything else."""
    if isinstance(h, SparseFunction):
        return h.length
    if isinstance(h, np.ndarray) and h.ndim == 1 and np.can_cast(h.dtype, np.int64):
        return len(h)
    raise TypeError("a global function is a SparseFunction or a 1-d integer array")


def _product_sum(a: np.ndarray, b: np.ndarray) -> int:
    """sum a[i] b[i], exact.  While every product is below NUMERATOR_BOUND
    the int64 products are summed in limbs (exact for fewer than 2**31
    terms); beyond that, in Python ints."""
    if len(a) < 1 << 31 and _max_abs(a) * _max_abs(b) < NUMERATOR_BOUND:
        return exact_sum(a.astype(np.int64, copy=False) * b)
    return sum(x * y for x, y in zip(a.tolist(), b.tolist()))


def global_inner(f: GlobalValues, g: GlobalValues) -> Fraction:
    """[f|g] = sum over n <= length of f(n) g(n), exact."""
    if _length(f) != _length(g):
        raise ValueError("length mismatch")
    if isinstance(g, SparseFunction) and not isinstance(f, SparseFunction):
        f, g = g, f
    if isinstance(g, SparseFunction):
        _, i, j = np.intersect1d(
            f.indices, g.indices, assume_unique=True, return_indices=True
        )
        return Fraction(
            _product_sum(f.numerators[i], g.numerators[j]),
            f.denominator * g.denominator,
        )
    if isinstance(f, SparseFunction):
        return Fraction(_product_sum(f.numerators, g[f.indices - 1]), f.denominator)
    # every partial sum of the int64 dot is below length * max|f| * max|g|;
    # [h|h] widens h once
    if len(f) * _max_abs(f) * _max_abs(g) < 1 << 63:
        a = f.astype(np.int64, copy=False)
        b = a if g is f else g.astype(np.int64, copy=False)
        return Fraction(int(np.dot(a, b)))
    return Fraction(_product_sum(f, g))


def _class_sums(h: GlobalValues, modulus: int) -> tuple[list[int], int]:
    """Exact per-class sums over one denominator: out[r] / denominator is
    the sum of h(n) over n ≡ r (mod modulus)."""
    if isinstance(h, SparseFunction):
        sums = exact_class_sums(h.numerators, h.indices % modulus, modulus)
        return sums, h.denominator
    # index i holds n = i + 1; every int64 class sum is below
    # length * max|h|, and Python ints take the sums beyond that
    classes = [h[(r - 1) % modulus :: modulus] for r in range(modulus)]
    if len(h) * _max_abs(h) < 1 << 63:
        return [int(c.sum()) for c in classes], 1
    return [sum(c.tolist()) for c in classes], 1


def _local_dots(
    h: GlobalValues, modulus: int, vectors: Sequence[LocalVector], length: int
) -> list[Fraction]:
    """[h | periodized v] = sum over n <= length of h(n) v(n mod modulus)
    for each vector v of that modulus, exact.  The class sums of h are
    taken once and dotted with every vector's numerators in Python ints,
    because the class sums of a log-weighted function exceed int64."""
    if _length(h) != length:
        raise ValueError("length mismatch")
    if any(v.modulus != modulus for v in vectors):
        raise ValueError("every vector must have the given modulus")
    sums, denominator = _class_sums(h, modulus)
    return [
        Fraction(
            sum(s * e for s, e in zip(sums, v.numerators.tolist())),
            denominator * v.denominator,
        )
        for v in vectors
    ]


def build_moduli_set(
    q1_bound: int, q2_bound: int, ctx: ProgressionContext, tables: SieveTables
) -> ModuliSet:
    """Enumerate the moduli family and classify each member."""
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
    for q in members:
        fq = factorize(q, tables)
        c = alignment_term(ctx, fq, tables)
        phi = euler_phi(fq)
        if c == phi:
            exceptional.append(q)
        elif c == -phi:
            degenerate.append(q)
    return ModuliSet(
        q1_bound=q1_bound,
        q2_bound=q2_bound,
        context=ctx,
        members=tuple(members),
        exceptional=frozenset(exceptional),
        degenerate=frozenset(degenerate),
    )


def model_family(ms: ModuliSet, tables: SieveTables) -> dict:
    """The local vectors behind the family: q -> (sum vector, diff vector)."""
    return {
        q: (
            model_sum(ms.context, factorize(q, tables), tables),
            model_diff(ms.context, factorize(q, tables), tables),
        )
        for q in ms.members
    }


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
    tables: SieveTables,
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
    family = model_family(ms, tables)
    phi_members = [q for q in ms.members if q not in ms.degenerate]
    psi_members = [q for q in ms.members if q not in ms.exceptional]
    if mode == EXACT_MODE:
        if padding_constant is not None or padding_exponent is not None:
            raise ValueError("padding applies to paper-form only")
        vectors = [("phi", q, family[q][0]) for q in phi_members]
        vectors += [("psi", q, family[q][1]) for q in psi_members]
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
            q: n * local_product(family[q][0], family[q][0]).coeff + pad
            for q in phi_members
        }
        m_psi = {
            q: n * local_product(family[q][1], family[q][1]).coeff + pad
            for q in psi_members
        }
        return Weights(m_phi=m_phi, m_psi=m_psi, mode=mode)
    raise ValueError(f"unknown weight mode {mode!r}")


def _family_products(
    f: GlobalValues,
    g: GlobalValues,
    ms: ModuliSet,
    weights: Weights,
    tables: SieveTables,
):
    """For each family modulus q in order: q, its (eta, kappa), and one
    (kind, [f|u~], [g|u~], M(u)) per weighted vector u of q, "phi" for eta
    before "psi" for kappa.  Each function's class sums are taken once per
    modulus, and only once when g is f."""
    n = ms.context.target
    for q, (eta, kappa) in model_family(ms, tables).items():
        kept = [
            (kind, vec, table[q])
            for kind, vec, table in (
                ("phi", eta, weights.m_phi),
                ("psi", kappa, weights.m_psi),
            )
            if q in table
        ]
        vectors = [vec for _, vec, _ in kept]
        f_dots = _local_dots(f, q, vectors, n)
        g_dots = f_dots if g is f else _local_dots(g, q, vectors, n)
        yield q, eta, kappa, [
            (kind, a, b, m) for (kind, _, m), a, b in zip(kept, f_dots, g_dots)
        ]


def estimate_inner(
    f: GlobalValues,
    g: GlobalValues,
    ms: ModuliSet,
    weights: Weights,
    tables: SieveTables,
):
    """<f|g>: the weighted bilinear approximation to [f|g] over the family."""
    total = 0
    for *_, products in _family_products(f, g, ms, weights, tables):
        for _, a, b, m in products:
            total += a * b / m
    return total


def bessel_defect(
    h: GlobalValues, ms: ModuliSet, weights: Weights, tables: SieveTables
):
    """[h|h] minus the family's captured energy; non-negative under
    exact-cross-sum weights."""
    return global_inner(h, h) - estimate_inner(h, h, ms, weights, tables)


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
    eta, kappa = model_sum(ctx, fq, tables), model_diff(ctx, fq, tables)
    # eta + kappa = mirror_density_star / t(q) and eta - kappa = rho_weight
    # prime_density_star_ungated (verify checks both entrywise); the gated
    # density is the ungated one when q2^2 divides q', and zero otherwise
    g1, _ = progression_split(ctx, fq, tables)
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
    f: GlobalValues,
    g: GlobalValues,
    ms: ModuliSet,
    weights: Weights,
    tables: SieveTables,
) -> list[dict]:
    """One row per modulus: norms, weights, the four exact products, the
    row's contribution to <f|g>, and the predicted main terms."""
    rows = []
    for q, eta, kappa, products in _family_products(f, g, ms, weights, tables):
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
