"""End-to-end acceptance runs at full scale.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (run with -s or -rA to see them).  Budgeted criteria measure wall
time and peak memory; everything else is exact arithmetic or a pinned
tolerance.  Heavier than the unit suites: the whole module takes a few
minutes.
"""

import math
import statistics
import time

import numpy as np
import pytest

from sqfrep.arith import Draws, factorize
from sqfrep.counting import (
    count_representations,
    segmented_prime_sieve,
    window_length,
)
from sqfrep.estimator import (
    build_moduli_set,
    compute_weights,
    estimate_inner,
    log_summary,
    mirror_summary,
)
from sqfrep.localmodel import PI_SQ_OVER_6, ProgressionContext
from sqfrep.series import singular_series, singular_series_eulerform
from sqfrep.verify import (
    DEFAULT_SEED,
    run_arith_suite,
    run_estimator_suite,
    run_local_suite,
)
from oracles import squarefree_count_in_ap, squarefree_density


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


@pytest.fixture(scope="module")
def lemma_results(tables):
    start = time.perf_counter()
    results = run_arith_suite(tables) + run_local_suite(tables)
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def estimator_results(tables):
    return run_estimator_suite(tables)


# Case counts of every lemma check at default bounds: the sweep ranges the
# suites promise, whatever route a check takes through them.
DEFAULT_CASES = {
    "ramanujan-closed-form": 90300,
    "ramanujan-magnitude": 90300,
    "ramanujan-divisor-sum": 90300,
    "ramanujan-multiplicativity": 2767097,
    "ramanujan-exponential-oracle": 10100,
    "divisor-detection": 3190,
    "ramanujan-orthogonality": 44200,
    "squarefree-density-star-closed-form": 66288,
    "density-periodicity": 1525,
    "prime-density-multiplicativity": 2165036,
    "prime-density-star-closed-form": 18428064,
    "mirror-norm-identity": 668,
    "prime-norm-identity": 7682,
    "model-norm-identities": 2004,
    "model-norm-sandwich": 4008,
    "mirror-prime-cross-product": 2004,
    "prime-model-twist-closed-form": 7682,
    "prime-model-twist-exponential": 186,
    "double-moebius-identity": 27889,
    "adjoint-identity": 100,
}


def test_exact_lemma_suites(lemma_results):
    """Every identity check at full default bounds, exact, inside 10 min,
    with the pinned case count of each check."""
    results, elapsed = lemma_results
    broken = [r.name for r in results if not r.passed]
    cases = sum(r.cases for r in results)
    counts = {r.name: r.cases for r in results}
    ok = not broken and elapsed <= 600.0 and counts == DEFAULT_CASES
    _line(
        "exact-lemma-suite",
        ok,
        f"{len(results)} checks, {cases} exact cases, {elapsed:.1f}s"
        + (f", broken: {broken}" if broken else ""),
    )
    assert counts == DEFAULT_CASES
    assert ok, broken or f"over budget: {elapsed:.1f}s"


def test_adjoint_and_defect_positivity(lemma_results, estimator_results):
    """Adjoint identity exact on 100 seeded cases; estimator defect never
    negative with exact cross-sum weights."""
    by_name = {r.name: r for r in lemma_results[0] + estimator_results}
    adjoint = by_name["adjoint-identity"]
    defect = by_name["bessel-defect-nonnegative"]
    ok = adjoint.passed and adjoint.cases >= 100 and defect.passed
    _line(
        "adjoint-and-defect",
        ok,
        f"adjoint exact on {adjoint.cases} cases, "
        f"defect >= 0 on {defect.cases} function/family pairs",
    )
    assert ok


def test_squarefree_density_in_progressions(tables):
    """Counts at N = 10^6 track (N/q) times the local density for every
    class mod q <= 20, within 30 sqrt(N/q)."""
    target = 10**6
    rel = abs(1.0 / PI_SQ_OVER_6 - 0.6079271018540266)
    digits_ok = rel < 1e-15
    worst = 0.0
    checked = 0
    for q in range(1, 21):
        fq = factorize(q, tables)
        for a in range(q):
            count = squarefree_count_in_ap(target, a, q, tables)
            density = float(squarefree_density(fq, (target - a) % q)) / PI_SQ_OVER_6
            gap = abs(count - (target / q) * density)
            worst = max(worst, gap / math.sqrt(target / q))
            checked += 1
    ok = digits_ok and worst <= 30.0
    _line(
        "squarefree-ap-density",
        ok,
        f"{checked} classes, worst gap {worst:.2f} sqrt(N/q), "
        f"constant off by {rel:.1e}",
    )
    assert ok


def test_count_tracks_series_prediction(tables):
    """Desk-scale check: weighted counts over all unit classes mod q <= 12
    stay within 5% of the series prediction in the median, improve with N,
    and vanish exactly on obstructed classes."""

    def sweep(target):
        fn = factorize(target, tables)
        ratios = []
        obstructed = 0
        zeros_exact = True
        for q in range(1, 13):
            fq = factorize(q, tables)
            for a in range(q):
                if math.gcd(a, q) != 1:
                    continue
                sv = singular_series(fn, a, fq)
                res = count_representations(target, a, q, tables)
                if sv.vanished:
                    obstructed += 1
                    zeros_exact = zeros_exact and (
                        res.unweighted == 0
                        and res.weighted == 0.0
                        and sv.value == 0.0
                    )
                else:
                    ratios.append(res.weighted / (sv.value * target))
        med = statistics.median(abs(r - 1.0) for r in ratios)
        return med, obstructed, zeros_exact, len(ratios)

    start = time.perf_counter()
    med_big, obstructed, zeros_exact, classes = sweep(10**6)
    elapsed = time.perf_counter() - start
    med_small, _, _, _ = sweep(10**5)
    ok = (
        med_big < 0.05
        and med_big < med_small
        and elapsed <= 120.0
        and obstructed >= 1
        and zeros_exact
    )
    _line(
        "count-vs-series",
        ok,
        f"median |ratio-1| {med_big:.4f} at 10^6 vs {med_small:.4f} at 10^5 "
        f"over {classes} classes, {obstructed} obstructed all exactly zero, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_unit_modulus_constant(tables):
    """Modulus 1: the two series forms agree within their tails, and at
    N = 2^k the value matches an independent prime-product oracle
    truncated at 10^7."""
    target = 2**20
    fn = factorize(target, tables)
    one = factorize(1, tables)
    rud = singular_series(fn, 0, one)
    eul = singular_series_eulerform(fn, 0, one)
    scale = max(abs(rud.value), abs(eul.value))
    forms_ok = abs(rud.value - eul.value) <= (rud.tail_bound + eul.tail_bound) * scale

    # Independent oracle: 2 prod_p (1 - 1/(p(p-1))) over p <= 10^7, built
    # from the segmented sieve and a log-sum, nothing shared with series.py.
    cutoff = 10**7
    log_sum = 0.0
    lo = 0
    while lo < cutoff + 1:
        hi = min(lo + window_length(), cutoff + 1)
        flags = segmented_prime_sieve(lo, hi, tables)
        p = np.nonzero(flags)[0] + lo
        p = p.astype(np.float64)
        log_sum += float(np.log1p(-1.0 / (p * (p - 1.0))).sum())
        lo = hi
    oracle = 2.0 * math.exp(log_sum)
    truncation = 2.0 / cutoff
    allowance = 2.0 * (rud.tail_bound + truncation) * abs(oracle)
    gap = abs(rud.value - oracle)
    oracle_ok = gap <= allowance
    ok = forms_ok and oracle_ok
    _line(
        "unit-modulus-constant",
        ok,
        f"forms differ by {abs(rud.value - eul.value):.2e}, oracle gap "
        f"{gap:.2e} <= {allowance:.2e}, value {rud.value:.12f}",
    )
    assert ok


def test_series_forms_agree_on_grid(tables):
    """500 seeded cases with q <= 50 and N near 10^4: both evaluation
    orders agree within their summed tail bounds."""
    rng = Draws(DEFAULT_SEED)
    cutoff = 10**4
    worst = 0.0
    cases = 0
    while cases < 500:
        n = rng.integers(10**4, 10**4 + 51)
        q = rng.integers(1, 51)
        a = rng.integers(0, q)
        if math.gcd(a, q) != 1:
            continue
        rud = singular_series(factorize(n, tables), a, factorize(q, tables), cutoff)
        eul = singular_series_eulerform(
            factorize(n, tables), a, factorize(q, tables), cutoff
        )
        assert rud.vanished == eul.vanished, (n, q, a)
        scale = max(abs(rud.value), abs(eul.value))
        if scale:
            budget = (rud.tail_bound + eul.tail_bound) * scale
            worst = max(worst, abs(rud.value - eul.value) / budget)
        cases += 1
    ok = worst <= 1.0
    _line(
        "series-two-forms",
        ok,
        f"{cases} cases, worst gap at {worst:.3f} of the summed tails",
    )
    assert ok


def test_estimator_three_way_agreement(tables):
    """Exact-weight estimate at N = 10^5 lands within 15% of both the true
    bilinear product and the series prediction, closer than at N = 10^4."""

    def discrepancy(target):
        ctx = ProgressionContext(target, 0, 1)
        ms = build_moduli_set(8, 2, ctx, tables)
        f = log_summary(ctx, ms.members, tables)
        g = mirror_summary(target, ms.members, tables)
        w = compute_weights(ms)
        direct = count_representations(target, 0, 1, tables).lambda_weighted
        approx = float(estimate_inner(f, g, ms, w))
        sv = singular_series(factorize(target, tables), 0, factorize(1, tables))
        series_n = sv.value * target
        return max(abs(approx / direct - 1.0), abs(approx / series_n - 1.0))

    small = discrepancy(10**4)
    big = discrepancy(10**5)
    ok = big <= 0.15 and big < small
    _line(
        "estimator-agreement",
        ok,
        f"discrepancy {big:.4f} at 10^5 vs {small:.4f} at 10^4 "
        f"(families up to 8 * 2^2, exact weights)",
    )
    assert ok


def test_counting_performance_budget(tables):
    """N = 10^8 with modulus 7 finishes inside 60 s and 2 GB, and thread
    count never changes a bit of the result."""
    import resource
    import time

    started = time.perf_counter()
    lone = count_representations(10**8, 3, 7, tables, threads=1)
    lone_s = time.perf_counter() - started
    started = time.perf_counter()
    many = count_representations(10**8, 3, 7, tables, threads=3)
    many_s = time.perf_counter() - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    identical = (
        lone.weighted == many.weighted
        and lone.unweighted == many.unweighted
        and lone.lambda_weighted == many.lambda_weighted
    )
    within_time = lone_s <= 60.0 and many_s <= 60.0
    within_memory = peak_kb <= 2 * 1024 * 1024
    ok = identical and within_time and within_memory
    _line(
        "counting-budget",
        ok,
        f"{lone_s:.2f}s single / {many_s:.2f}s threaded, "
        f"peak rss {peak_kb / 1024:.0f} MB, unweighted {lone.unweighted}, "
        f"bit-identical across threads: {identical}",
    )
    assert ok
