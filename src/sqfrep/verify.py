"""Exact identity suites behind the `verify` subcommand.

Every check is an exact equality of rationals, or of integers after
clearing denominators; floats appear only in the exponential-sum oracles,
which compare against the rational value with a slack far below 1.

The checks are row reductions: a check whose cases are residues compares
whole residue rows, or stacks of rows over progression contexts, as int64
arrays and records them with `_Recorder.bulk`; a check whose case is one
(context, q) pair, or one call of a scalar function, records it with
`_Recorder.check`.  The defining-sum oracles the checks compare against
(the divisor-sum rows of the square-free and prime densities and the
alignment term) live in `sqfrep.oracle`, so a closed form is never checked
against a copy of itself.  Divisor detection and the adjoint identity run
on the shipped kernels instead: the sieve's Moebius table and the scans'
class sums.  Every int64 reduction has a bound stated next to it, or
checked with `require_int64`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

import numpy as np

from sqfrep.arith import (
    DEFAULT_SEED,
    MAX_Q1_BOUND,
    MAX_Q2_BOUND,
    MAX_Q_BOUND,
    MAX_QPRIME_BOUND,
    MAX_R_BOUND,
    Draws,
    FactoredInt,
    SieveTables,
    cubefree_split,
    divisors,
    euler_phi,
    factorize,
    mobius,
    ramanujan_row,
    ramanujan_sum,
    ramanujan_table,
    require_int64,
    star_scale,
)
from sqfrep.counting import exact_class_sums
from sqfrep.estimator import (
    bessel_defect,
    build_moduli_set,
    compute_weights,
    estimate_inner,
    periodic_cross,
)
from sqfrep.localmodel import (
    LocalVector,
    ProgressionContext,
    local_product,
    model_diff,
    model_sum,
    progression_split,
)
from sqfrep.oracle import (
    alignment_term,
    dense_summary,
    scaled_prime_density_rows,
    scaled_star_rows,
    squarefree_star_row,
    totient,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity sweep."""

    name: str
    cases: int
    failures: int
    counterexample: str | None
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Recorder:
    """Counts cases and keeps the first counterexample."""

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures = 0
        self.example: str | None = None
        self.start = time.perf_counter()

    def check(self, ok: bool, describe) -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
            if self.example is None:
                self.example = describe() if callable(describe) else str(describe)

    def bulk(self, bad: np.ndarray, describe, cases: int | None = None) -> None:
        """Record the failures tallied in bad (a flag or a count per entry),
        one case per entry unless cases says otherwise; describe receives
        the index of the first nonzero entry in row-major order."""
        self.cases += bad.size if cases is None else cases
        failures = int(bad.sum())
        if failures:
            self.failures += failures
            if self.example is None:
                first = np.unravel_index(np.flatnonzero(bad)[0], bad.shape)
                self.example = describe(*first)

    def result(self) -> CheckResult:
        return CheckResult(
            name=self.name,
            cases=self.cases,
            failures=self.failures,
            counterexample=self.example,
            elapsed=time.perf_counter() - self.start,
        )


def _require(value: int, cap: int, what: str) -> None:
    if not 1 <= value <= cap:
        raise ValueError(f"{what} must lie in [1, {cap}], got {value}")


def _cubefree_values(top: int, tables: SieveTables) -> list[FactoredInt]:
    return [
        f
        for q in range(1, top + 1)
        if (f := factorize(q, tables)).is_cubefree
    ]


# ---------------------------------------------------------------------------
# arithmetic suite


# The arithmetic suite's fixed sweeps; only the modulus range r_bound is
# set by the caller.  ARITH_N: the n of the closed-form, magnitude and
# divisor-sum checks; ARITH_MULT_R and ARITH_MULT_N: the r, s and n of
# multiplicativity; ARITH_ORACLE: both r and n of the exponential oracle;
# ARITH_DETECT: the a of divisor-detection; ARITH_ORTH: the k of
# orthogonality.
ARITH_N = 300
ARITH_MULT_R = 300
ARITH_MULT_N = 100
ARITH_ORACLE = 100
ARITH_DETECT = 500
ARITH_ORTH = 200

# the local suite's model-vector, product and double-Moebius checks run
# over q <= min(q_bound, PRODUCT_Q_CAP); the adjoint identity and
# almost-orthogonality draw TRIALS random cases
PRODUCT_Q_CAP = 200
TRIALS = 100


def run_arith_suite(tables: SieveTables, *, r_bound: int = 300) -> list[CheckResult]:
    _require(r_bound, MAX_R_BOUND, "r_bound")
    results = []
    factored = [factorize(r, tables) for r in range(1, r_bound + 1)]
    rows = {f.value: ramanujan_table(f) for f in factored}
    # phi[m] and mu[m] for m = 1..r_bound; every value compared below is at
    # most r_bound^2 in magnitude
    phi = np.array([0] + [euler_phi(f) for f in factored], dtype=np.int64)
    mu = np.array([0] + [mobius(f) for f in factored], dtype=np.int64)
    ns = np.arange(ARITH_N + 1, dtype=np.int64)

    # Hoelder: c_r(n) = mu(m) phi(r) / phi(m) with m = r / (r, n), where
    # phi(m) divides phi(r)
    rec = _Recorder("ramanujan-closed-form")
    for f in factored:
        m = f.value // np.gcd(ns, f.value)
        got = rows[f.value][ns % f.value]
        rec.bulk(
            got * phi[m] != mu[m] * phi[f.value],
            lambda n, f=f, m=m: (
                f"r={f.value} n={n}: expected "
                f"{Fraction(int(mu[m[n]] * phi[f.value]), int(phi[m[n]]))}"
            ),
        )
    results.append(rec.result())

    # the totient form of |c_r(n)| needs square-free r; composite prime
    # powers only satisfy the gcd bound
    rec = _Recorder("ramanujan-magnitude")
    for f in factored:
        g = np.gcd(ns, f.value)
        got = np.abs(rows[f.value][ns % f.value])
        ok = got == phi[g] if f.is_squarefree else got <= g
        rec.bulk(
            ~ok, lambda n, f=f, got=got: f"r={f.value} n={n}: |c|={int(got[n])}"
        )
    results.append(rec.result())

    # c_r(n) = sum of d mu(r/d) over divisors d of r that divide n
    rec = _Recorder("ramanujan-divisor-sum")
    for f in factored:
        want = np.zeros(len(ns), dtype=np.int64)
        for d in divisors(f):
            want += d * mu[f.value // d] * (ns % d == 0)
        rec.bulk(
            rows[f.value][ns % f.value] != want,
            lambda n, f=f, want=want: f"r={f.value} n={n}: expected {int(want[n])}",
        )
    results.append(rec.result())

    rec = _Recorder("ramanujan-multiplicativity")
    small = [f for f in factored if f.value <= ARITH_MULT_R]
    mult_ns = np.arange(ARITH_MULT_N + 1, dtype=np.int64)
    for fr in small:
        row_r = rows[fr.value][mult_ns % fr.value]
        for fs in small:
            if fs.value <= fr.value or math.gcd(fr.value, fs.value) != 1:
                continue
            merged = FactoredInt(
                fr.value * fs.value, tuple(sorted(fr.factors + fs.factors))
            )
            prod = row_r * rows[fs.value][mult_ns % fs.value]
            rec.bulk(
                ramanujan_row(merged, mult_ns) != prod,
                lambda n, fr=fr, fs=fs: f"r={fr.value} s={fs.value} n={n}",
            )
    results.append(rec.result())

    # one grid of roots of unity per r: rows n, columns the units a mod r
    rec = _Recorder("ramanujan-exponential-oracle")
    oracle_ns = np.arange(ARITH_ORACLE + 1, dtype=np.int64)
    for f in factored:
        if f.value > ARITH_ORACLE:
            continue
        a = np.arange(1, f.value + 1, dtype=np.int64)
        units = a[np.gcd(a, f.value) == 1]
        angles = (oracle_ns[:, None] * units) % f.value / f.value
        z = np.exp(2j * np.pi * angles).sum(axis=1)
        want = rows[f.value][oracle_ns % f.value]
        ok = (np.abs(z.imag) < 1e-6) & (np.abs(z.real - want) < 1e-6)
        rec.bulk(~ok, lambda n, f=f, z=z: f"r={f.value} n={n}: sum={complex(z[n])}")
    results.append(rec.result())

    # sum of mu(j) over the divisors j of a / d, mu from the sieve's table:
    # 1 exactly when d = a.  Row d of the divisors x divisors grid flags the
    # j dividing a / d; a <= 500 has at most 24 divisors, so int8 holds it
    rec = _Recorder("divisor-detection")
    for a in range(1, ARITH_DETECT + 1):
        divs = np.array(divisors(factorize(a, tables)), dtype=np.int64)
        got = ((a // divs)[:, None] % divs == 0) @ tables.mobius[divs]
        rec.bulk(
            got != (divs == a),
            lambda i, a=a, divs=divs, got=got: f"a={a} d={divs[i]}: {got[i]}",
        )
    results.append(rec.result())

    rec = _Recorder("ramanujan-orthogonality")
    orth_ns = np.arange(ARITH_ORTH + 21, dtype=np.int64)
    for k in range(1, ARITH_ORTH + 1):
        total = sum(
            ramanujan_row(factorize(d, tables), orth_ns)
            for d in divisors(factorize(k, tables))
        )
        want = np.where(orth_ns % k == 0, k, 0)
        rec.bulk(
            total != want, lambda r, k=k, total=total: f"k={k} r={r}: {int(total[r])}"
        )
    results.append(rec.result())
    return results


# ---------------------------------------------------------------------------
# local-model suite


def _model_mismatches(
    ctx: ProgressionContext,
    q: FactoredInt,
    eta: LocalVector,
    kappa: LocalVector,
    star_row: tuple[np.ndarray, int],
) -> int:
    """Entries of eta = model_sum and kappa = model_diff whose doubles differ
    from the defining route mirror_density_star / t(q) +/- c_{g1}(a)
    c_{m2}(a - a'), which is prime_density_star_ungated times its rho
    weight phi(q') phi(g1) / mu(g1) (both per-entry forms are in
    tests/oracles.py)."""
    qv = q.value
    a = np.arange(qv, dtype=np.int64)
    star_num, star_den = star_row
    mirror = star_num[(ctx.target - a) % qv]  # times 6/pi^2, over star_den
    g1, m2 = progression_split(ctx, q)
    ungated = ramanujan_row(g1, a) * ramanujan_row(m2, np.abs(a - ctx.residue))
    lift = 1 / (star_den * star_scale(q))
    bad = 0
    for vec, sign in ((eta, 1), (kappa, -1)):
        # 2 vec = lift * mirror + sign * ungated, denominators cleared
        lhs = 2 * vec.numerators * lift.denominator
        rhs = vec.denominator * (
            lift.numerator * mirror + sign * lift.denominator * ungated
        )
        bad += int(np.count_nonzero(lhs != rhs))
    return bad


def _twist_closed_form(ctx: ProgressionContext, q: FactoredInt) -> Fraction:
    """Multiplicative closed form of the twisted root-of-unity sum, for
    cubefree q: one factor per prime power p^e of q."""
    out = Fraction(1)
    for p, e in q.factors:
        fp = FactoredInt(p**e, ((p, e),))
        if ctx.modulus % fp.value == 0:
            out *= fp.value * ramanujan_sum(fp, ctx.target - ctx.residue)
        elif e == 1:
            out *= Fraction(-p * ramanujan_sum(fp, ctx.target), p - 1)
        else:
            return Fraction(0)
    return out


def _unit_contexts(qprime_bound: int, target: int) -> list[ProgressionContext]:
    return [
        ProgressionContext(target, ap, qp)
        for qp in range(1, qprime_bound + 1)
        for ap in range(qp)
        if math.gcd(ap, qp) == 1
    ]


def _sample_contexts(qprime_bound: int) -> list[ProgressionContext]:
    """A small mixed bag: both target parities, several modulus shapes."""
    shapes = [(1, 1), (2, 1), (6, 5), (9, 2), (12, 7), (30, 23)]
    return [
        ProgressionContext(target, ap, qp)
        for target in (10_007, 10_008)
        for qp, ap in shapes
        if qp <= qprime_bound
    ]


def _modulus_groups(contexts: list[ProgressionContext]) -> list[tuple[int, slice]]:
    """(modulus, slice of contexts) for each run of one modulus."""
    out = []
    start = 0
    for modulus, run in groupby(contexts, key=lambda c: c.modulus):
        size = len(list(run))
        out.append((modulus, slice(start, start + size)))
        start += size
    return out


def _context_label(ctx: ProgressionContext, f: FactoredInt) -> str:
    return f"q={f.value} qprime={ctx.modulus} aprime={ctx.residue}"


def run_local_suite(
    tables: SieveTables,
    *,
    q_bound: int = 400,
    qprime_bound: int = 30,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    _require(q_bound, MAX_Q_BOUND, "q_bound")
    _require(qprime_bound, MAX_QPRIME_BOUND, "qprime_bound")
    results = []
    cubefree = _cubefree_values(q_bound, tables)
    product_q_bound = min(q_bound, PRODUCT_Q_CAP)
    cubefree_products = [f for f in cubefree if f.value <= product_q_bound]
    sample_ctx = _sample_contexts(qprime_bound)
    small_ctx = _unit_contexts(min(qprime_bound, 12), 10_007)
    star_rows = {f.value: squarefree_star_row(f) for f in cubefree_products}

    # star numerators are below 2^omega rad(q)^2 and the scale's
    # denominator below rad(q)^2, so both sides stay below 2^45 for q <= 1000
    rec = _Recorder("squarefree-density-star-closed-form")
    for f in cubefree:
        num, den = star_rows.get(f.value) or squarefree_star_row(f)
        scale = star_scale(f)
        rec.bulk(
            num * scale.denominator
            != den * scale.numerator * ramanujan_table(f),
            lambda a, f=f: f"q={f.value} a={a}",
        )
    results.append(rec.result())

    rec = _Recorder("density-periodicity")
    probe = ProgressionContext(10_007, 1, 2)
    for f in cubefree:
        if f.value > 60:
            continue
        qv = f.value
        sq_row, _ = squarefree_star_row(f, periods=2)
        pr_row, _ = scaled_star_rows([probe], f, periods=2)
        rec.bulk(
            (sq_row[:qv] != sq_row[qv:]) | (pr_row[0, :qv] != pr_row[0, qv:]),
            lambda a, f=f: f"q={f.value} a={a}",
        )
    results.append(rec.result())

    # numerators are at most q phi(q') and denominators at most phi(q), so
    # both products stay below 2^40 for q <= 900 and q' <= 12
    rec = _Recorder("prime-density-multiplicativity")
    cubefree_30 = [f for f in cubefree if f.value <= 30]
    rows = {f.value: scaled_prime_density_rows(small_ctx, f) for f in cubefree_30}
    pairs = []
    bad = []
    for f1 in cubefree_30:
        n1, d1 = rows[f1.value]
        for f2 in cubefree_30:
            if f2.value < f1.value or math.gcd(f1.value, f2.value) != 1:
                continue
            n2, d2 = rows[f2.value]
            qv = f1.value * f2.value
            f12 = FactoredInt(qv, tuple(sorted(f1.factors + f2.factors)))
            n12, d12 = scaled_prime_density_rows(small_ctx, f12)
            a = np.arange(qv, dtype=np.int64)
            lhs = n12 * (d1 * d2)[:, None]
            rhs = n1[:, a % f1.value] * n2[:, a % f2.value] * d12[:, None]
            pairs.append((f1, f2))
            bad.append(np.count_nonzero(lhs != rhs, axis=1))
    rec.bulk(
        np.stack(bad, axis=1),  # contexts x pairs: the first failure is context-major
        lambda c, p: (
            f"q1={pairs[p][0].value} q2={pairs[p][1].value} "
            f"qprime={small_ctx[c].modulus} aprime={small_ctx[c].residue}"
        ),
        cases=len(small_ctx) * sum(f1.value * f2.value for f1, f2 in pairs),
    )
    results.append(rec.result())

    # one stack of rows per q over every unit context; the closed form
    # depends on the context through q' (the split, the gate) and a'
    rec = _Recorder("prime-density-star-closed-form")
    contexts = _unit_contexts(qprime_bound, 10_007)
    groups = _modulus_groups(contexts)
    residues = np.array([c.residue for c in contexts], dtype=np.int64)
    bad = np.zeros((len(contexts), len(cubefree)), dtype=np.int64)
    for j, f in enumerate(cubefree):
        qv = f.value
        num, den = scaled_star_rows(contexts, f)
        # |c_{g1} c_{m2}| <= phi(g1) phi(m2) = phi(q) bounds both sides
        require_int64((int(np.abs(num).max(initial=0)) + den) * euler_phi(f))
        _, q2f = cubefree_split(f)
        a = np.arange(qv, dtype=np.int64)
        for modulus, rows_of in groups:
            part = num[rows_of]
            if modulus % (q2f.value**2) == 0:
                g1, m2 = progression_split(contexts[rows_of.start], f)
                c1 = ramanujan_table(g1)[a % g1.value]
                c2 = ramanujan_table(m2)[(a - residues[rows_of, None]) % m2.value]
                mismatch = part * euler_phi(g1) != den * mobius(g1) * c1 * c2
            else:
                mismatch = part != 0
            bad[rows_of, j] = np.count_nonzero(mismatch, axis=1)
    rec.bulk(
        bad,
        lambda c, j: _context_label(contexts[c], cubefree[j]),
        cases=len(contexts) * sum(f.value for f in cubefree),
    )
    results.append(rec.result())

    rec = _Recorder("mirror-norm-identity")
    # the mirror vector depends on the context only through its target
    mirror_norms = {}
    for ctx in sample_ctx[:4]:
        for f in cubefree_products:
            key = (ctx.target, f.value)
            if key not in mirror_norms:
                num, den = star_rows[f.value]
                a = np.arange(f.value, dtype=np.int64)
                theta = LocalVector(f.value, num[(ctx.target - a) % f.value], den)
                mirror_norms[key] = local_product(theta, theta)
            scale = star_scale(f)
            rec.check(
                mirror_norms[key] == scale * scale * euler_phi(f),
                lambda f=f, ctx=ctx: f"q={f.value} qprime={ctx.modulus}",
            )
    results.append(rec.result())

    # one star stack per q over the small contexts, read again by
    # prime-model-twist-closed-form
    rec = _Recorder("prime-norm-identity")
    phi_small = [totient(ctx.modulus, tables) for ctx in small_ctx]
    small_stacks = [scaled_star_rows(small_ctx, f) for f in cubefree_products]
    ok = np.zeros((len(small_ctx), len(cubefree_products)), dtype=bool)
    for j, f in enumerate(cubefree_products):
        num, den = small_stacks[j]
        require_int64(f.value * int(np.abs(num).max(initial=0)) ** 2)
        squares = (num * num).sum(axis=1).tolist()
        q1f, q2f = cubefree_split(f)
        for c, ctx in enumerate(small_ctx):
            phi_qp = phi_small[c]
            got = Fraction(squares[c], f.value * den * den * phi_qp * phi_qp)
            if ctx.modulus % (q2f.value**2) == 0:
                # phi(q2^2) = q2 phi(q2), and phi(gcd(q1, q')) from q1's primes
                phi_shared = math.prod(
                    p - 1 for p, _ in q1f.factors if ctx.modulus % p == 0
                )
                want = Fraction(
                    q2f.value * euler_phi(q2f) * phi_shared**2,
                    phi_qp**2 * euler_phi(q1f),
                )
            else:
                want = Fraction(0)
            ok[c, j] = got == want
    rec.bulk(~ok, lambda c, j: _context_label(small_ctx[c], cubefree_products[j]))
    results.append(rec.result())

    # model-norm-identities also checks every model-vector entry against
    # its defining route, with the square-free side from divisor sums
    rec_norm = _Recorder("model-norm-identities")
    rec_sandwich = _Recorder("model-norm-sandwich")
    for ctx in sample_ctx:
        for f in cubefree_products:
            eta = model_sum(ctx, f, tables)
            kappa = model_diff(ctx, f, tables)
            phi_q = euler_phi(f)
            align = alignment_term(ctx, f)
            nsum = local_product(eta, eta)
            ndiff = local_product(kappa, kappa)
            cross = local_product(eta, kappa)
            ok = (
                nsum == Fraction(phi_q + align, 2)
                and ndiff == Fraction(phi_q - align, 2)
                and cross == 0
                and _model_mismatches(ctx, f, eta, kappa, star_rows[f.value]) == 0
            )
            rec_norm.check(
                ok, lambda f=f, ctx=ctx: f"q={f.value} qprime={ctx.modulus}"
            )
            for norm in (nsum, ndiff):
                rec_sandwich.check(
                    norm == 0 or Fraction(phi_q, 4) <= norm <= phi_q,
                    lambda f=f, norm=norm: f"q={f.value} norm={norm}",
                )
    results.append(rec_norm.result())
    results.append(rec_sandwich.result())

    # [theta|rho*] = t(q)/(q den phi(q')) * sum c_q(N-a) num[a]; |c_q| <= q.
    # One star stack per q over the sample contexts, read again by
    # prime-model-twist-exponential
    rec = _Recorder("mirror-prime-cross-product")
    phi_sample = [totient(ctx.modulus, tables) for ctx in sample_ctx]
    sample_stacks = [scaled_star_rows(sample_ctx, f) for f in cubefree_products]
    targets = np.array([ctx.target for ctx in sample_ctx], dtype=np.int64)
    ok = np.zeros((len(sample_ctx), len(cubefree_products)), dtype=bool)
    for j, f in enumerate(cubefree_products):
        qv = f.value
        num, den = sample_stacks[j]
        require_int64(qv * qv * int(np.abs(num).max(initial=0)))
        a = np.arange(qv, dtype=np.int64)
        mirror = ramanujan_table(f)[(targets[:, None] - a) % qv]
        dots = (num * mirror).sum(axis=1).tolist()
        _, q2f = cubefree_split(f)
        for c, ctx in enumerate(sample_ctx):
            got = star_scale(f) * Fraction(dots[c], qv * den * phi_sample[c])
            if ctx.modulus % (q2f.value**2) == 0:
                g1, _ = progression_split(ctx, f)
                want = star_scale(f) * Fraction(
                    alignment_term(ctx, f),
                    phi_sample[c] * mobius(g1) * euler_phi(g1),
                )
            else:
                want = Fraction(0)
            ok[c, j] = got == want
    rec.bulk(~ok, lambda c, j: _context_label(sample_ctx[c], cubefree_products[j]))
    results.append(rec.result())

    # every small context shares the target 10_007, so one mirror row per q
    rec = _Recorder("prime-model-twist-closed-form")
    ok = np.zeros((len(small_ctx), len(cubefree_products)), dtype=bool)
    for j, f in enumerate(cubefree_products):
        qv = f.value
        num, den = small_stacks[j]
        require_int64(qv * qv * int(np.abs(num).max(initial=0)))
        mirror = ramanujan_table(f)[(10_007 - np.arange(qv)) % qv]
        dots = (num @ mirror).tolist()
        for c, ctx in enumerate(small_ctx):
            ok[c, j] = Fraction(dots[c], den) == _twist_closed_form(ctx, f)
    rec.bulk(~ok, lambda c, j: _context_label(small_ctx[c], cubefree_products[j]))
    results.append(rec.result())

    # the root-of-unity double sum, sum over units r of e(rN/q) times the
    # DFT of the sharpened row at r, against the same closed form; twist_q
    # is a prefix of cubefree_products, so sample_stacks[j] is q's stack
    rec = _Recorder("prime-model-twist-exponential")
    twist_ctx = sample_ctx[:6]
    twist_q = [f for f in cubefree_products if f.value <= 36]
    targets = np.array([ctx.target for ctx in twist_ctx], dtype=np.int64)
    ok = np.zeros((len(twist_ctx), len(twist_q)), dtype=bool)
    for j, f in enumerate(twist_q):
        qv = f.value
        num, den = sample_stacks[j]
        num = num[: len(twist_ctx)]
        a = np.arange(qv, dtype=np.int64)
        r = np.arange(1, qv + 1, dtype=np.int64)
        r = r[np.gcd(r, qv) == 1]
        # contexts x residues x units; summed elementwise, since a complex
        # matmul would load BLAS for a few hundred products
        roots = np.exp(-2j * np.pi * ((a[:, None] * r) % qv) / qv)
        dft = (num[:, :, None] * roots).sum(axis=1) / den
        twist = np.exp(2j * np.pi * ((targets[:, None] * r) % qv) / qv)
        total = (twist * dft).sum(axis=1)
        for c, ctx in enumerate(twist_ctx):
            want = float(_twist_closed_form(ctx, f))
            ok[c, j] = abs(total[c].imag) < 1e-8 and abs(total[c].real - want) < 1e-8
    rec.bulk(
        ~ok, lambda c, j: f"q={twist_q[j].value} qprime={twist_ctx[c].modulus}"
    )
    results.append(rec.result())

    # sum over d1 | m, d2 | n of mu(m/d1) mu(n/d2) gcd(d1, d2) is the entry
    # (m, n) of D G D^T, with D[m, d] = mu(m/d) for d | m and G the gcd
    # matrix; each entry is below 2^omega(m) 2^omega(n) product_q_bound
    rec = _Recorder("double-moebius-identity")
    moebius_rows = np.zeros(
        (len(cubefree_products), product_q_bound + 1), dtype=np.int64
    )
    for i, f in enumerate(cubefree_products):
        for d in divisors(f):
            moebius_rows[i, d] = tables.mobius[f.value // d]
    k = np.arange(product_q_bound + 1, dtype=np.int64)
    totals = moebius_rows @ np.gcd(k[:, None], k) @ moebius_rows.T
    want = np.diag([euler_phi(f) for f in cubefree_products])
    rec.bulk(
        totals != want,
        lambda i, j: (
            f"m={cubefree_products[i].value} n={cubefree_products[j].value}: "
            f"{int(totals[i, j])}"
        ),
    )
    results.append(rec.result())

    # the plain sum side is an int64 dot over the lcm L <= 60 of the entry
    # denominators: below 1000 * 20 * 9 * 60
    rec = _Recorder("adjoint-identity")
    rng = Draws(seed)
    for _ in range(TRIALS):
        q = rng.integers(1, 21)
        length = rng.integers(q, 1001)
        j = rng.integers(-20, 21, size=length)
        entries = tuple(
            Fraction(int(p), int(r))
            for p, r in zip(rng.integers(-9, 10, size=q), rng.integers(1, 7, size=q))
        )
        lcm = math.lcm(*(e.denominator for e in entries))
        scaled = np.array(
            [e.numerator * (lcm // e.denominator) for e in entries], dtype=np.int64
        )
        # j's class sums from the scans' kernel, scaled by q: their local
        # product with h is the plain sum of j(n) h(n mod q)
        ns = np.arange(1, length + 1)
        [(_, sums)] = exact_class_sums(j, ns, [q])
        collected = LocalVector(q, [q * s for s in sums], 1)
        got = local_product(collected, LocalVector(q, scaled, lcm))
        want = Fraction(int(np.dot(j, scaled[ns % q])), lcm)
        rec.check(got == want, lambda q=q, length=length: f"q={q} N={length}")
    results.append(rec.result())
    return results


# ---------------------------------------------------------------------------
# estimator suite


def run_estimator_suite(
    tables: SieveTables,
    *,
    q1_bound: int = 6,
    q2_bound: int = 2,
    length_bound: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    _require(q1_bound, MAX_Q1_BOUND, "q1_bound")
    _require(q2_bound, MAX_Q2_BOUND, "q2_bound")
    results = []
    rng = Draws(seed)
    contexts = [
        ProgressionContext(length_bound, 1, 1),
        ProgressionContext(max(length_bound - 1, 10), 1, 2),
        ProgressionContext(max(length_bound - 3, 11), 2, 5),
        ProgressionContext(max(length_bound // 2, 12), 5, 6),
    ]

    rec = _Recorder("almost-orthogonality")
    per_ctx = max(1, TRIALS // len(contexts))
    for ctx in contexts:
        ms = build_moduli_set(q1_bound, q2_bound, ctx, tables)
        w = compute_weights(ms)
        vectors = [(ms.vectors[q][0], m) for q, m in w.m_phi.items()]
        vectors += [(ms.vectors[q][1], m) for q, m in w.m_psi.items()]
        crosses = [
            [periodic_cross(u, v, ctx.target) for v, _ in vectors]
            for u, _ in vectors
        ]
        # the form is integer once the crosses and weights are scaled by the
        # lcm of their denominators (4, from the half-integer model entries)
        # and xi = p/r with r <= 4 by 12
        scale = math.lcm(
            *(c.denominator for row in crosses for c in row),
            *(m.denominator for _, m in vectors),
        )
        cross = np.array(
            [[int(c * scale) for c in row] for row in crosses], dtype=np.int64
        ).reshape(len(vectors), len(vectors))
        weight = np.array([int(m * scale) for _, m in vectors], dtype=np.int64)
        top = max(int(np.abs(cross).max(initial=0)), int(weight.max(initial=0)))
        require_int64(len(vectors) ** 2 * 108**2 * top)
        for _ in range(per_ctx):
            p = rng.integers(-9, 10, size=len(vectors))
            r = rng.integers(1, 5, size=len(vectors))
            x = p * (12 // r)
            rec.check(
                int(x @ cross @ x) <= int((x * x) @ weight),
                lambda ctx=ctx: f"qprime={ctx.modulus} N={ctx.target}",
            )
    results.append(rec.result())

    rec = _Recorder("bessel-defect-nonnegative")
    for ctx in contexts:
        short = ProgressionContext(min(ctx.target, 800), ctx.residue, ctx.modulus)
        ms = build_moduli_set(q1_bound, q2_bound, short, tables)
        w = compute_weights(ms)
        for _ in range(5):
            h = dense_summary(rng.integers(-9, 10, size=short.target), 1, ms.members)
            defect = bessel_defect(h, ms, w)
            rec.check(defect >= 0, lambda ctx=short: f"N={ctx.target}")
    results.append(rec.result())

    rec = _Recorder("estimate-symmetry-bilinearity")
    ctx = ProgressionContext(240, 1, 1)
    ms = build_moduli_set(min(q1_bound, 4), min(q2_bound, 2), ctx, tables)
    w = compute_weights(ms)
    for _ in range(10):
        f1 = rng.integers(-5, 6, size=240)
        f2 = rng.integers(-5, 6, size=240)
        g = rng.integers(-5, 6, size=240)
        a, b = Fraction(3, 7), Fraction(-2, 9)
        # a f1 + b f2 = (27 f1 - 14 f2) / 63, exactly
        combo = dense_summary(27 * f1 - 14 * f2, 63, ms.members)
        f1, f2, g = (dense_summary(h, 1, ms.members) for h in (f1, f2, g))
        lhs = estimate_inner(combo, g, ms, w)
        rhs = a * estimate_inner(f1, g, ms, w) + b * estimate_inner(f2, g, ms, w)
        sym = estimate_inner(g, f1, ms, w) == estimate_inner(f1, g, ms, w)
        rec.check(lhs == rhs and sym, "bilinearity failed")
    results.append(rec.result())

    rec = _Recorder("exceptional-membership")
    for ctx in contexts:
        ms = build_moduli_set(q1_bound, q2_bound, ctx, tables)
        # the classification read off the vectors against the alignment
        # term, and against the vectors' norms
        for q, (eta, kappa) in ms.vectors.items():
            fq = ms.factored[q]
            phi = euler_phi(fq)
            align = alignment_term(ctx, fq)
            norm = local_product(kappa, kappa)
            zero_eta = local_product(eta, eta) == 0
            ok = (align == phi) == (norm == 0) == (q in ms.exceptional)
            ok = ok and (align == -phi) == zero_eta == (q in ms.degenerate)
            if q not in ms.exceptional:
                ok = ok and norm >= Fraction(phi, 4)
            rec.check(
                ok, lambda q=q, ctx=ctx: f"q={q} qprime={ctx.modulus}"
            )
    results.append(rec.result())
    return results


SUITES = {
    "arith": run_arith_suite,
    "local": run_local_suite,
    "estimator": run_estimator_suite,
}
