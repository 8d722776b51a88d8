"""Bilinear estimator over a family of local model vectors.

The machinery: a set of cubefree moduli q = q1 * q2^2, the periodized model
vectors sum/diff lifted to [1, N], dominating weights M per vector, and the
rank-|family| bilinear form <f|g> that approximates the true inner product
[f|g].  With exact-cross-sum weights the Bessel-type inequality
sum M^-1 |[h|u]|^2 <= [h|h] holds for every h, because every product here
is computed in exact rational arithmetic: the canonical log-weighted
function stores its float logs as exact int64 numerators over 2**53, the
mirror indicator is a 0/1 array, model vectors hold int64 numerators over
2, and the cross product of two periodic vectors is an integer sum of
numerator products over one lcm period, plus a remainder.
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

    indices is a sorted int64 array; the value at indices[i] is
    numerators[i] / LOG_SCALE, an int64 numerator below NUMERATOR_BOUND in
    magnitude, so sums of values are exact integer sums.  Every value is a
    float, which float_values gives back without loss.
    """

    length: int
    indices: np.ndarray
    numerators: np.ndarray

    def __post_init__(self) -> None:
        if self.indices.shape != self.numerators.shape:
            raise ValueError("index/value arrays must align")
        if self.indices.size and not (
            1 <= self.indices[0] and self.indices[-1] <= self.length
        ):
            raise ValueError("indices must lie in [1, length]")

    @property
    def float_values(self) -> np.ndarray:
        return np.ldexp(self.numerators.astype(np.float64), -LOG_BITS)

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
            length, np.asarray(indices, dtype=np.int64), scaled.astype(np.int64)
        )


GlobalValues = Union[SparseFunction, np.ndarray, Sequence]


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
    return SparseFunction(ctx.target, indices, numerators)


def squarefree_mirror_function(target: int, tables: SieveTables) -> np.ndarray:
    """Dense 0/1 array h[n-1] = 1 iff target - n is square-free, n in
    [1, target]; the n = target slot is 0 by the mu^2(0) = 0 convention."""
    _check_cap(target)
    if target - 1 > tables.limit**2:
        raise CapacityError("sieve tables do not cover the target")
    # index i holds m = i, and n = target - m; reversing maps to n-1.
    return squarefree_flags(target, tables)[::-1].copy()


def _class_sums(h: GlobalValues, modulus: int) -> tuple[list, int]:
    """Exact per-class sums over one scale: out[r] / scale is the sum of
    h(n) over n ≡ r (mod modulus)."""
    if isinstance(h, SparseFunction):
        sums = exact_class_sums(h.numerators, h.indices % modulus, modulus)
        return sums, LOG_SCALE
    if isinstance(h, np.ndarray) and h.dtype != object:
        # index i holds n = i + 1
        return [
            int(h[(r - 1) % modulus :: modulus].sum()) for r in range(modulus)
        ], 1
    out = [Fraction(0)] * modulus
    for i, v in enumerate(h):
        if v:
            out[(i + 1) % modulus] += Fraction(v)
    return out, 1


def _local_dot(h: GlobalValues, vec: LocalVector, length: int) -> Fraction:
    """[h | periodized vec] = sum over n <= length of h(n) vec(n mod q),
    exact: q products of class sums and numerators, in Python ints because
    the class sums of a log-weighted function exceed int64."""
    if isinstance(h, SparseFunction):
        if h.length != length:
            raise ValueError("length mismatch")
    elif len(h) != length:
        raise ValueError("length mismatch")
    sums, scale = _class_sums(h, vec.modulus)
    total = sum(s * e for s, e in zip(sums, vec.numerators.tolist()))
    return Fraction(total) / (scale * vec.denominator)


def global_inner(f: GlobalValues, g: GlobalValues):
    """[f|g] = sum f(n) g(n), exact for the representations used here."""
    if isinstance(f, np.ndarray) and isinstance(g, SparseFunction):
        f, g = g, f
    if isinstance(f, SparseFunction) and isinstance(g, SparseFunction):
        if f.length != g.length:
            raise ValueError("length mismatch")
        _, i, j = np.intersect1d(
            f.indices, g.indices, assume_unique=True, return_indices=True
        )
        # products of numerators overflow int64: multiply as Python ints
        total = sum(
            a * b for a, b in zip(f.numerators[i].tolist(), g.numerators[j].tolist())
        )
        return Fraction(total, LOG_SCALE * LOG_SCALE)
    if isinstance(f, SparseFunction):
        if f.length != len(g):
            raise ValueError("length mismatch")
        if isinstance(g, np.ndarray) and g.dtype != object:
            # group by the value of g so every sum stays an exact limb sum
            weights = g[f.indices - 1].astype(np.int64)
            total = sum(
                v * exact_sum(f.numerators[weights == v])
                for v in sorted(set(weights.tolist()) - {0})
            )
            return Fraction(total, LOG_SCALE)
        total = sum(
            v * Fraction(g[n - 1])
            for n, v in zip(f.indices.tolist(), f.numerators.tolist())
        )
        return Fraction(total, LOG_SCALE)
    if len(f) != len(g):
        raise ValueError("length mismatch")
    if (
        isinstance(f, np.ndarray)
        and isinstance(g, np.ndarray)
        and f.dtype != object
        and g.dtype != object
    ):
        return int(np.dot(f.astype(np.int64), g.astype(np.int64)))
    return sum(Fraction(x) * Fraction(y) for x, y in zip(f, g) if x and y)


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


def estimate_inner(
    f: GlobalValues,
    g: GlobalValues,
    ms: ModuliSet,
    weights: Weights,
    tables: SieveTables,
):
    """<f|g>: the weighted bilinear approximation to [f|g] over the family."""
    n = ms.context.target
    family = model_family(ms, tables)
    total = 0
    for q, (eta, kappa) in family.items():
        if q in weights.m_phi:
            total += (
                _local_dot(f, eta, n) * _local_dot(g, eta, n) / weights.m_phi[q]
            )
        if q in weights.m_psi:
            total += (
                _local_dot(f, kappa, n) * _local_dot(g, kappa, n) / weights.m_psi[q]
            )
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
    n = ms.context.target
    family = model_family(ms, tables)
    rows = []
    for q, (eta, kappa) in family.items():
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
        if q in weights.m_phi:
            f_phi = _local_dot(f, eta, n)
            phi_g = _local_dot(g, eta, n)
            row["f_phi"] = float(f_phi)
            row["phi_g"] = float(phi_g)
            contribution += float(f_phi * phi_g / weights.m_phi[q])
        if q in weights.m_psi:
            f_psi = _local_dot(f, kappa, n)
            psi_g = _local_dot(g, kappa, n)
            row["f_psi"] = float(f_psi)
            row["psi_g"] = float(psi_g)
            contribution += float(f_psi * psi_g / weights.m_psi[q])
        row["contribution"] = contribution
        rows.append(row)
    return rows
