"""Exact identity suites behind the `verify` subcommand.

Every check is an exact equality of rationals, or of integers after
clearing denominators; floats appear only in the exponential-sum oracles,
which compare against the rational value with a slack far below 1.  The
heavy sweeps clear denominators and run on int64 arrays.  Magnitudes stay
far below 2^63 for the documented bound caps; the one place that depends
on an lcm of totients asserts it.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sqfrep.arith import (
    FactoredInt,
    SieveTables,
    cubefree_split,
    divisors,
    divisors_with_cofactor_mobius,
    euler_phi,
    factorize,
    mobius,
    mobius_divisor_indicator,
    ramanujan_row,
    ramanujan_sum,
    ramanujan_table,
    star_scale,
)
from sqfrep.estimator import (
    build_moduli_set,
    compute_weights,
    estimate_inner,
    model_family,
    periodic_cross,
)
from sqfrep.localmodel import (
    LocalVector,
    ProgressionContext,
    collect,
    local_product,
    mirror_density_star,
    model_diff,
    model_sum,
    prime_density_star,
    prime_model_twist,
    progression_split,
    squarefree_density_star,
)

DEFAULT_SEED = 20260819

# documented caps: the suites are exhaustive small-range sweeps, not scans
MAX_R_BOUND = 1000
MAX_Q_BOUND = 1000
MAX_QPRIME_BOUND = 100


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

    def bulk(self, total: int, bad_count: int, describe) -> None:
        self.cases += total
        if bad_count:
            self.failures += bad_count
            if self.example is None:
                self.example = describe() if callable(describe) else str(describe)

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


def _holder_value(r: FactoredInt, n: int, tables: SieveTables) -> Fraction:
    m = r.value // math.gcd(r.value, n)
    fm = factorize(m, tables)
    mu = mobius(fm)
    if mu == 0:
        return Fraction(0)
    return Fraction(mu * euler_phi(r), euler_phi(fm))


def run_arith_suite(
    tables: SieveTables,
    *,
    r_bound: int = 300,
    n_bound: int = 300,
    mult_r_bound: int = 300,
    mult_n_bound: int = 100,
    oracle_bound: int = 100,
    detect_bound: int = 500,
    orth_bound: int = 200,
) -> list[CheckResult]:
    for value, what in (
        (r_bound, "r_bound"),
        (n_bound, "n_bound"),
        (mult_r_bound, "mult_r_bound"),
        (detect_bound, "detect_bound"),
        (orth_bound, "orth_bound"),
    ):
        _require(value, MAX_R_BOUND, what)
    results = []
    factored = [factorize(r, tables) for r in range(1, r_bound + 1)]
    rows = {f.value: ramanujan_table(f) for f in factored}

    rec = _Recorder("ramanujan-closed-form")
    for f in factored:
        row = rows[f.value]
        for n in range(0, n_bound + 1):
            want = _holder_value(f, n, tables)
            rec.check(
                int(row[n % f.value]) == want,
                lambda f=f, n=n, w=want: f"r={f.value} n={n}: expected {w}",
            )
    results.append(rec.result())

    # the totient form of |c_r(n)| needs square-free r; composite prime
    # powers only satisfy the gcd bound
    rec = _Recorder("ramanujan-magnitude")
    for f in factored:
        row = rows[f.value]
        for n in range(0, n_bound + 1):
            g = math.gcd(f.value, n)
            got = abs(int(row[n % f.value]))
            if f.is_squarefree:
                ok = got == euler_phi(factorize(g, tables))
            else:
                ok = got <= max(g, 1)
            rec.check(ok, lambda f=f, n=n, got=got: f"r={f.value} n={n}: |c|={got}")
    results.append(rec.result())

    rec = _Recorder("ramanujan-divisor-sum")
    for f in factored:
        row = rows[f.value]
        for n in range(0, n_bound + 1):
            g = factorize(math.gcd(f.value, n) if n else f.value, tables)
            want = sum(
                d * mobius(factorize(f.value // d, tables)) for d in divisors(g)
            )
            rec.check(
                int(row[n % f.value]) == want,
                lambda f=f, n=n, w=want: f"r={f.value} n={n}: expected {w}",
            )
    results.append(rec.result())

    rec = _Recorder("ramanujan-multiplicativity")
    small = [f for f in factored if f.value <= mult_r_bound]
    for fr in small:
        row_r = rows[fr.value]
        for fs in small:
            if fs.value <= fr.value or math.gcd(fr.value, fs.value) != 1:
                continue
            merged = FactoredInt(
                fr.value * fs.value, tuple(sorted(fr.factors + fs.factors))
            )
            row_s = rows[fs.value]
            for n in range(0, mult_n_bound + 1):
                prod = int(row_r[n % fr.value]) * int(row_s[n % fs.value])
                rec.check(
                    ramanujan_sum(merged, n) == prod,
                    lambda fr=fr, fs=fs, n=n: f"r={fr.value} s={fs.value} n={n}",
                )
    results.append(rec.result())

    rec = _Recorder("ramanujan-exponential-oracle")
    for f in factored:
        if f.value > oracle_bound:
            continue
        row = rows[f.value]
        units = [a for a in range(1, f.value + 1) if math.gcd(a, f.value) == 1]
        for n in range(0, oracle_bound + 1):
            z = sum(cmath.exp(2j * cmath.pi * a * n / f.value) for a in units)
            ok = abs(z.imag) < 1e-6 and abs(z.real - int(row[n % f.value])) < 1e-6
            rec.check(ok, lambda f=f, n=n, z=z: f"r={f.value} n={n}: sum={z}")
    results.append(rec.result())

    rec = _Recorder("divisor-detection")
    for a in range(1, detect_bound + 1):
        fa = factorize(a, tables)
        for d in divisors(fa):
            got = mobius_divisor_indicator(fa, d)
            rec.check(
                got == (1 if d == a else 0),
                lambda a=a, d=d, got=got: f"a={a} d={d}: {got}",
            )
    results.append(rec.result())

    rec = _Recorder("ramanujan-orthogonality")
    for k in range(1, orth_bound + 1):
        fk = factorize(k, tables)
        divs = [factorize(d, tables) for d in divisors(fk)]
        for r in range(0, orth_bound + 21):
            total = sum(ramanujan_sum(fd, r) for fd in divs)
            want = k if r % k == 0 else 0
            rec.check(
                total == want, lambda k=k, r=r, t=total: f"k={k} r={r}: {t}"
            )
    results.append(rec.result())
    return results


# ---------------------------------------------------------------------------
# local-model suite


def _phi_int(n: int, tables: SieveTables) -> int:
    return euler_phi(factorize(n, tables))


def _scaled_prime_density_row(
    ctx: ProgressionContext, qv: int, tables: SieveTables
) -> tuple[np.ndarray, int]:
    """phi(q') * (prime local density) over all residues mod qv, as an
    integer array over a shared denominator."""
    a = np.arange(qv, dtype=np.int64)
    share = math.gcd(qv, ctx.modulus)
    mask = (np.gcd(a, qv) == 1) & ((a - ctx.residue) % share == 0)
    scalar = Fraction(
        qv * _phi_int(ctx.modulus, tables),
        _phi_int(math.lcm(qv, ctx.modulus), tables),
    )
    return mask.astype(np.int64) * scalar.numerator, scalar.denominator


def _scaled_star_row(
    ctx: ProgressionContext, q: FactoredInt, tables: SieveTables
) -> tuple[np.ndarray, int]:
    """phi(q') * (Moebius-inverted prime density) over all residues mod q,
    as integers over a shared denominator."""
    qv = q.value
    terms = []
    for d, cof_mu in divisors_with_cofactor_mobius(q):
        if cof_mu == 0:
            continue
        num, den = _scaled_prime_density_row(ctx, d.value, tables)
        terms.append((cof_mu, num, den, d.value))
    shared = math.lcm(*(den for _, _, den, _ in terms))
    assert shared < 1 << 40, "denominator blow-up; bounds exceed documented caps"
    a = np.arange(qv, dtype=np.int64)
    total = np.zeros(qv, dtype=np.int64)
    for cof_mu, num, den, dv in terms:
        total += cof_mu * (shared // den) * num[a % dv]
    return total, shared


def _squarefree_density_row(d: FactoredInt) -> tuple[np.ndarray, int]:
    """squarefree_density(d, a) / (6/pi^2) over all residues mod d, as
    integers over prod (p^2 - 1) for p | d."""
    a = np.arange(d.value, dtype=np.int64)
    num = np.ones(d.value, dtype=np.int64)
    for p, e in d.factors:
        if e == 1:
            num *= np.where(a % p == 0, p * (p - 1), p * p)
        else:
            num *= np.where(a % (p * p) == 0, 0, p * p)
    return num, math.prod(p * p - 1 for p, _ in d.factors)


def _squarefree_star_row(q: FactoredInt) -> tuple[np.ndarray, int]:
    """squarefree_density_star(q, a) / (6/pi^2) over all residues mod q from
    its defining Moebius sum over divisors, as integers over a shared
    denominator."""
    shared = math.prod(p * p - 1 for p, _ in q.factors)
    a = np.arange(q.value, dtype=np.int64)
    total = np.zeros(q.value, dtype=np.int64)
    for d, cof_mu in divisors_with_cofactor_mobius(q):
        num, den = _squarefree_density_row(d)
        total += cof_mu * (shared // den) * num[a % d.value]
    return total, shared


def _model_mismatches(
    ctx: ProgressionContext,
    q: FactoredInt,
    eta: LocalVector,
    kappa: LocalVector,
    star_row: tuple[np.ndarray, int],
    tables: SieveTables,
) -> int:
    """Entries of eta = model_sum and kappa = model_diff that differ from the
    defining route (mirror_density_star / t(q) +/- rho_weight
    prime_density_star_ungated)/2, rho_weight = phi(q') phi(g1) / mu(g1)."""
    qv = q.value
    a = np.arange(qv, dtype=np.int64)
    star_num, star_den = star_row
    mirror = star_num[(ctx.target - a) % qv]  # times 6/pi^2, over star_den
    g1, m2 = progression_split(ctx, q, tables)
    mu_g1 = mobius(g1)
    # prime_density_star_ungated: the Ramanujan-sum product over its denominator
    ungated = mu_g1 * (
        ramanujan_row(g1, a) * ramanujan_row(m2, np.abs(a - ctx.residue))
    )
    ungated_den = _phi_int(ctx.modulus, tables) * euler_phi(g1)
    lift = 1 / (star_den * star_scale(q))
    weight = Fraction(ungated_den, mu_g1) / ungated_den  # rho_weight / den
    bad = 0
    for vec, sign in ((eta, 1), (kappa, -1)):
        # 2 vec = lift * mirror + sign * weight * ungated, denominators cleared
        lhs = 2 * vec.numerators * (lift.denominator * weight.denominator)
        rhs = vec.denominator * (
            lift.numerator * weight.denominator * mirror
            + sign * weight.numerator * lift.denominator * ungated
        )
        bad += int(np.count_nonzero(lhs != rhs))
    return bad


def _twist_closed_form(
    ctx: ProgressionContext, q: FactoredInt, tables: SieveTables
) -> Fraction:
    """Multiplicative closed form of the twisted root-of-unity sum."""
    out = Fraction(1)
    for p, e in q.factors:
        fp = factorize(p if e == 1 else p * p, tables)
        if e == 1:
            if ctx.modulus % p == 0:
                out *= p * ramanujan_sum(fp, ctx.target - ctx.residue)
            else:
                out *= Fraction(-p * ramanujan_sum(fp, ctx.target), p - 1)
        else:
            if ctx.modulus % (p * p) == 0:
                out *= p * p * ramanujan_sum(fp, ctx.target - ctx.residue)
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


def _mirror_vector(
    ctx: ProgressionContext, q: FactoredInt
) -> LocalVector:
    return LocalVector(
        q.value,
        tuple(mirror_density_star(ctx, q, a).coeff for a in range(q.value)),
        1,
    )


def run_local_suite(
    tables: SieveTables,
    *,
    q_bound: int = 400,
    qprime_bound: int = 30,
    product_q_bound: int = 200,
    pair_bound: int = 200,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    _require(q_bound, MAX_Q_BOUND, "q_bound")
    _require(product_q_bound, MAX_Q_BOUND, "product_q_bound")
    _require(pair_bound, MAX_Q_BOUND, "pair_bound")
    _require(qprime_bound, MAX_QPRIME_BOUND, "qprime_bound")
    results = []
    cubefree = _cubefree_values(q_bound, tables)
    cubefree_products = [f for f in cubefree if f.value <= product_q_bound]
    sample_ctx = _sample_contexts(qprime_bound)

    rec = _Recorder("squarefree-density-star-closed-form")
    for f in cubefree:
        row = ramanujan_table(f)
        scale = star_scale(f)
        for a in range(f.value):
            got = squarefree_density_star(f, a)
            rec.check(
                got.pi_power == 1 and got.coeff == scale * int(row[a]),
                lambda f=f, a=a: f"q={f.value} a={a}",
            )
    results.append(rec.result())

    rec = _Recorder("density-periodicity")
    probe = ProgressionContext(10_007, 1, 2)
    for f in cubefree:
        if f.value > 60:
            continue
        for a in range(f.value):
            same = (
                squarefree_density_star(f, a)
                == squarefree_density_star(f, a + f.value)
                and prime_density_star(probe, f, a, tables)
                == prime_density_star(probe, f, a + f.value, tables)
            )
            rec.check(same, lambda f=f, a=a: f"q={f.value} a={a}")
    results.append(rec.result())

    rec = _Recorder("prime-density-multiplicativity")
    cubefree_30 = [f for f in cubefree if f.value <= 30]
    for ctx in _unit_contexts(min(qprime_bound, 12), 97):
        rows = {
            f.value: _scaled_prime_density_row(ctx, f.value, tables)
            for f in cubefree_30
        }
        for f1 in cubefree_30:
            n1, d1 = rows[f1.value]
            for f2 in cubefree_30:
                if f2.value < f1.value or math.gcd(f1.value, f2.value) != 1:
                    continue
                n2, d2 = rows[f2.value]
                qv = f1.value * f2.value
                n12, d12 = _scaled_prime_density_row(ctx, qv, tables)
                a = np.arange(qv, dtype=np.int64)
                lhs = n12 * (d1 * d2)
                rhs = n1[a % f1.value] * n2[a % f2.value] * d12
                rec.bulk(
                    qv,
                    int(np.count_nonzero(lhs != rhs)),
                    lambda f1=f1, f2=f2, ctx=ctx: (
                        f"q1={f1.value} q2={f2.value} "
                        f"qprime={ctx.modulus} aprime={ctx.residue}"
                    ),
                )
    results.append(rec.result())

    rec = _Recorder("prime-density-star-closed-form")
    for ctx in _unit_contexts(qprime_bound, 10_007):
        for f in cubefree:
            qv = f.value
            num, den = _scaled_star_row(ctx, f, tables)
            g1, m2 = progression_split(ctx, f, tables)
            _, q2f = cubefree_split(f)
            mu_g1 = mobius(g1)
            a = np.arange(qv, dtype=np.int64)
            if ctx.modulus % (q2f.value**2) == 0:
                c1 = ramanujan_table(g1)[a % g1.value].astype(np.int64)
                c2 = ramanujan_table(m2)[(a - ctx.residue) % m2.value].astype(
                    np.int64
                )
                lhs = num * euler_phi(g1)
                rhs = den * mu_g1 * c1 * c2
            else:
                lhs = num
                rhs = np.zeros(qv, dtype=np.int64)
            rec.bulk(
                qv,
                int(np.count_nonzero(lhs != rhs)),
                lambda qv=qv, ctx=ctx: (
                    f"q={qv} qprime={ctx.modulus} aprime={ctx.residue}"
                ),
            )
    results.append(rec.result())

    rec = _Recorder("mirror-norm-identity")
    # the mirror vector depends on the context only through its target
    mirror_norms = {}
    for ctx in sample_ctx[:4]:
        for f in cubefree_products:
            key = (ctx.target, f.value)
            if key not in mirror_norms:
                theta = _mirror_vector(ctx, f)
                mirror_norms[key] = local_product(theta, theta)
            norm = mirror_norms[key]
            scale = star_scale(f)
            rec.check(
                norm.pi_power == 2 and norm.coeff == scale * scale * euler_phi(f),
                lambda f=f, ctx=ctx: f"q={f.value} qprime={ctx.modulus}",
            )
    results.append(rec.result())

    rec = _Recorder("prime-norm-identity")
    for ctx in _unit_contexts(min(qprime_bound, 12), 10_007):
        phi_qp = _phi_int(ctx.modulus, tables)
        for f in cubefree_products:
            num, den = _scaled_star_row(ctx, f, tables)
            q1f, q2f = cubefree_split(f)
            got = Fraction(
                sum(int(x) * int(x) for x in num.tolist()),
                f.value * den * den * phi_qp * phi_qp,
            )
            if ctx.modulus % (q2f.value**2) == 0:
                shared = math.gcd(q1f.value, ctx.modulus)
                want = Fraction(
                    _phi_int(q2f.value**2, tables) * _phi_int(shared, tables) ** 2,
                    phi_qp**2 * euler_phi(q1f),
                )
            else:
                want = Fraction(0)
            rec.check(
                got == want,
                lambda f=f, ctx=ctx: (
                    f"q={f.value} qprime={ctx.modulus} aprime={ctx.residue}"
                ),
            )
    results.append(rec.result())

    # model-norm-identities also checks every model-vector entry against
    # its defining route, with the square-free side from divisor sums
    rec_norm = _Recorder("model-norm-identities")
    rec_sandwich = _Recorder("model-norm-sandwich")
    star_rows = {f.value: _squarefree_star_row(f) for f in cubefree_products}
    for ctx in sample_ctx:
        for f in cubefree_products:
            eta = model_sum(ctx, f, tables)
            kappa = model_diff(ctx, f, tables)
            g1, m2 = progression_split(ctx, f, tables)
            phi_q = euler_phi(f)
            align = int(ramanujan_table(g1)[ctx.target % g1.value]) * int(
                ramanujan_table(m2)[(ctx.target - ctx.residue) % m2.value]
            )
            nsum = local_product(eta, eta).coeff
            ndiff = local_product(kappa, kappa).coeff
            cross = local_product(eta, kappa).coeff
            ok = (
                nsum == Fraction(phi_q + align, 2)
                and ndiff == Fraction(phi_q - align, 2)
                and cross == 0
                and _model_mismatches(ctx, f, eta, kappa, star_rows[f.value], tables)
                == 0
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

    rec = _Recorder("mirror-prime-cross-product")
    for ctx in sample_ctx:
        phi_qp = _phi_int(ctx.modulus, tables)
        for f in cubefree_products:
            qv = f.value
            num, den = _scaled_star_row(ctx, f, tables)
            row = ramanujan_table(f)
            mirror = row[(ctx.target - np.arange(qv)) % qv].astype(np.int64)
            # [theta|rho*] = t(q)/(q den phi(q')) * sum c_q(N-a) num[a]
            got = star_scale(f) * Fraction(
                int(np.dot(num, mirror)), qv * den * phi_qp
            )
            g1, m2 = progression_split(ctx, f, tables)
            _, q2f = cubefree_split(f)
            if ctx.modulus % (q2f.value**2) == 0:
                align = int(ramanujan_table(g1)[ctx.target % g1.value]) * int(
                    ramanujan_table(m2)[(ctx.target - ctx.residue) % m2.value]
                )
                want = star_scale(f) * Fraction(
                    align, phi_qp * mobius(g1) * euler_phi(g1)
                )
            else:
                want = Fraction(0)
            rec.check(
                got == want,
                lambda f=f, ctx=ctx: (
                    f"q={f.value} qprime={ctx.modulus} aprime={ctx.residue}"
                ),
            )
    results.append(rec.result())

    rec = _Recorder("prime-model-twist-closed-form")
    for ctx in _unit_contexts(min(qprime_bound, 12), 10_007):
        for f in cubefree_products:
            num, den = _scaled_star_row(ctx, f, tables)
            row = ramanujan_table(f)
            mirror = row[(ctx.target - np.arange(f.value)) % f.value].astype(
                np.int64
            )
            got = Fraction(int(np.dot(num, mirror)), den)
            rec.check(
                got == _twist_closed_form(ctx, f, tables),
                lambda f=f, ctx=ctx: (
                    f"q={f.value} qprime={ctx.modulus} aprime={ctx.residue}"
                ),
            )
    results.append(rec.result())

    rec = _Recorder("prime-model-twist-exponential")
    for ctx in sample_ctx[:6]:
        for f in cubefree_products:
            if f.value > 36:
                continue
            qv = f.value
            total = 0j
            for r in range(1, qv + 1):
                if math.gcd(r, qv) != 1:
                    continue
                h = sum(
                    float(prime_density_star(ctx, f, a, tables))
                    * cmath.exp(-2j * cmath.pi * r * a / qv)
                    for a in range(qv)
                )
                total += cmath.exp(2j * cmath.pi * r * ctx.target / qv) * h
            total *= _phi_int(ctx.modulus, tables)
            want = float(prime_model_twist(ctx, f, tables))
            ok = abs(total.imag) < 1e-8 and abs(total.real - want) < 1e-8
            rec.check(ok, lambda f=f, ctx=ctx: f"q={f.value} qprime={ctx.modulus}")
    results.append(rec.result())

    rec = _Recorder("double-moebius-identity")
    cubefree_pairs = [f for f in cubefree if f.value <= pair_bound]
    divmob = {
        f.value: [
            (d, mu)
            for d in divisors(f)
            if (mu := mobius(factorize(f.value // d, tables)))
        ]
        for f in cubefree_pairs
    }
    for fm in cubefree_pairs:
        for fn in cubefree_pairs:
            total = sum(
                mu1 * mu2 * math.gcd(d1, d2)
                for d1, mu1 in divmob[fm.value]
                for d2, mu2 in divmob[fn.value]
            )
            want = euler_phi(fm) if fm.value == fn.value else 0
            rec.check(
                total == want,
                lambda fm=fm, fn=fn, t=total: f"m={fm.value} n={fn.value}: {t}",
            )
    results.append(rec.result())

    rec = _Recorder("adjoint-identity")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        q = int(rng.integers(1, 21))
        length = int(rng.integers(q, 1001))
        j = rng.integers(-20, 21, size=length).tolist()
        entries = tuple(
            Fraction(int(p), int(r))
            for p, r in zip(rng.integers(-9, 10, size=q), rng.integers(1, 7, size=q))
        )
        h = LocalVector(q, entries, 0)
        got = local_product(collect(j, q), h).coeff
        want = sum(Fraction(v) * entries[(i + 1) % q] for i, v in enumerate(j))
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
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    _require(q1_bound, 20, "q1_bound")
    _require(q2_bound, 5, "q2_bound")
    _require(length_bound, 10**6, "length_bound")
    results = []
    rng = np.random.default_rng(seed)
    contexts = [
        ProgressionContext(length_bound, 1, 1),
        ProgressionContext(max(length_bound - 1, 10), 1, 2),
        ProgressionContext(max(length_bound - 3, 11), 2, 5),
        ProgressionContext(max(length_bound // 2, 12), 5, 6),
    ]

    rec = _Recorder("almost-orthogonality")
    per_ctx = max(1, trials // len(contexts))
    for ctx in contexts:
        ms = build_moduli_set(q1_bound, q2_bound, ctx, tables)
        w = compute_weights(ms, tables)
        fam = model_family(ms, tables)
        vectors = [(fam[q][0], w.m_phi[q]) for q in ms.members if q in w.m_phi]
        vectors += [(fam[q][1], w.m_psi[q]) for q in ms.members if q in w.m_psi]
        crosses = [
            [periodic_cross(u, v, ctx.target) for v, _ in vectors]
            for u, _ in vectors
        ]
        for _ in range(per_ctx):
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
            rec.check(
                lhs <= rhs, lambda ctx=ctx: f"qprime={ctx.modulus} N={ctx.target}"
            )
    results.append(rec.result())

    rec = _Recorder("bessel-defect-nonnegative")
    for ctx in contexts:
        short = ProgressionContext(min(ctx.target, 800), ctx.residue, ctx.modulus)
        ms = build_moduli_set(q1_bound, q2_bound, short, tables)
        w = compute_weights(ms, tables)
        for _ in range(5):
            h = rng.integers(-9, 10, size=short.target)
            defect = int(np.dot(h, h)) - estimate_inner(h, h, ms, w, tables)
            rec.check(defect >= 0, lambda ctx=short: f"N={ctx.target}")
    results.append(rec.result())

    rec = _Recorder("estimate-symmetry-bilinearity")
    ctx = ProgressionContext(240, 1, 1)
    ms = build_moduli_set(min(q1_bound, 4), min(q2_bound, 2), ctx, tables)
    w = compute_weights(ms, tables)
    for _ in range(10):
        f1 = rng.integers(-5, 6, size=240)
        f2 = rng.integers(-5, 6, size=240)
        g = rng.integers(-5, 6, size=240)
        a, b = Fraction(3, 7), Fraction(-2, 9)
        combo = [a * x + b * y for x, y in zip(f1.tolist(), f2.tolist())]
        lhs = estimate_inner(combo, g, ms, w, tables)
        rhs = a * estimate_inner(f1, g, ms, w, tables) + b * estimate_inner(
            f2, g, ms, w, tables
        )
        sym = estimate_inner(g, f1, ms, w, tables) == estimate_inner(
            f1, g, ms, w, tables
        )
        rec.check(lhs == rhs and sym, "bilinearity failed")
    results.append(rec.result())

    rec = _Recorder("exceptional-membership")
    for ctx in contexts:
        ms = build_moduli_set(q1_bound, q2_bound, ctx, tables)
        fam = model_family(ms, tables)
        for q, (_, kappa) in fam.items():
            norm = local_product(kappa, kappa).coeff
            ok = (norm == 0) == (q in ms.exceptional)
            if q not in ms.exceptional:
                ok = ok and norm >= Fraction(euler_phi(factorize(q, tables)), 4)
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


def run_suites(names, tables: SieveTables) -> list[CheckResult]:
    out = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        out.extend(SUITES[name](tables))
    return out
