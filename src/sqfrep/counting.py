"""Ground-truth counting by segmented sieve.

Everything here is a brute-force oracle: the weighted representation count,
its von Mangoldt variant, square-free counts along progressions, and the
prime-power tally psi restricted to a progression.  All of them, and the
estimator's global functions, come from one windowed scan: windows of a
bounded size are sieved one at a time, so the memory footprint never
depends on the target.

Sums of logarithms are exact and rounded once.  For n >= 2 the double
log n is an integer multiple of 2**-53 below 2**5, so it is stored as the
int64 numerator log n * 2**53; numerators are summed exactly and the total
is rounded to a float at the very end.  A result is therefore the correctly
rounded sum of its terms, bit-identical for every thread count and every
window size.

Both segmented sieves strike through one helper, _strike.  The first
offset of every base prime (or prime square) in the window is computed at
once as an int64 array.  A step shorter than 1/32 of the window is struck
as one numpy slice; every longer step lands at most 32 times, and all of
those hits are cleared in one vectorised pass, so a small window costs a
few numpy calls rather than a Python loop over every base prime.

`compare` needs every unit class a mod q for many q.  count_classes makes
one scan of [2, N) for all of them: each window's hits are reduced to exact
per-class sums for every modulus, so the cost is one sieve, not one per
class, and no hit is kept past its window.

The base tables must reach the square root of the largest value touched: a
window is accepted only while hi - 1 <= tables.limit**2.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import add
from typing import Iterator

import numpy as np

from sqfrep.arith import CapacityError, SieveTables, require_int64

DEFAULT_WINDOW = 1 << 20

# A log weight is the int64 numerator of value * LOG_SCALE.
LOG_BITS = 53
LOG_SCALE = 1 << LOG_BITS
# Numerators stay below arith.NUMERATOR_BOUND = 2**62 in magnitude, so the
# high limb (x >> 32) is below 2**30 in magnitude and the low limb
# (x & 0xFFFFFFFF) below 2**32: int64 sums of either limb are exact for
# fewer than 2**31 terms.  A log below 2**5 has a numerator below 2**58.
_LOW_LIMB = (1 << 32) - 1
_NO_HITS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class CountResult:
    """One weighted count: log-weighted over primes, the raw count, and the
    von-Mangoldt-weighted total that also sees prime powers."""

    target: int
    residue: int
    modulus: int
    weighted: float
    unweighted: int
    lambda_weighted: float
    elapsed: float


def window_length() -> int:
    """Sieve window size in integers; SQFREP_MAX_WINDOW_BYTES caps the
    transient allocation (roughly eight bytes per integer of window)."""
    raw = os.environ.get("SQFREP_MAX_WINDOW_BYTES")
    if raw is None:
        return DEFAULT_WINDOW
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"SQFREP_MAX_WINDOW_BYTES={raw!r} is not an integer") from exc
    if cap <= 0:
        raise ValueError("SQFREP_MAX_WINDOW_BYTES must be positive")
    return max(1 << 10, cap // 8)


def _check_window(lo: int, hi: int, tables: SieveTables) -> None:
    if lo < 0 or hi <= lo:
        raise ValueError(f"bad window [{lo}, {hi})")
    if hi - 1 > tables.limit**2:
        raise CapacityError(
            f"window reaches {hi - 1}, beyond limit^2 = {tables.limit**2}"
        )


def _base_primes(top: int, tables: SieveTables) -> np.ndarray:
    pos = int(np.searchsorted(tables.primes, top, side="right"))
    return tables.primes[:pos]


# A step shorter than 1/_SLICE_SPLIT of the window is struck as one slice;
# every longer step lands at most _SLICE_SPLIT times in the window.
_SLICE_SPLIT = 32


def _strike(out: np.ndarray, offsets: np.ndarray, steps: np.ndarray) -> None:
    """Clear out[o], out[o + s], out[o + 2s], ... for every first offset o
    >= 0 and its step s; steps ascend.

    Short steps are one numpy slice each.  All the longer ones are struck
    in one pass: the gaps between consecutive hits, step by step, are laid
    out with one np.repeat, their running sum gives every hit, and one
    fancy-indexed store clears them.

    The offsets are int64, computed from lo, p^2 and ceil(lo/p) p for
    base primes p <= sqrt(hi - 1).  _check_window bounds hi - 1 by
    tables.limit**2, so each of these is below tables.limit**2 +
    tables.limit; _sieve_primes checks that bound against 2**63 (build_sieve
    keeps the limit below 2**31, so the check only fails for hand-built
    tables).  Hit positions lie in [0, out.size).
    """
    length = out.size
    short = int(steps.searchsorted(-(-length // _SLICE_SPLIT)))
    for off, step in zip(offsets[:short].tolist(), steps[:short].tolist()):
        out[off::step] = False
    offsets, steps = offsets[short:], steps[short:]
    near = offsets < length
    off, step = offsets[near], steps[near]
    if off.size:
        hits = (length - 1 - off) // step + 1
        last = off + (hits - 1) * step
        gaps = step.repeat(hits)
        # each step's first hit follows the previous step's last one
        gaps[(hits.cumsum() - hits)[1:]] = off[1:] - last[:-1]
        gaps[0] = off[0]
        out[gaps.cumsum()] = False


def _sieve_primes(lo: int, hi: int, tables: SieveTables) -> np.ndarray:
    """The base primes of the window [lo, hi), after checking it."""
    _check_window(lo, hi, tables)
    require_int64(tables.limit**2 + tables.limit)
    return _base_primes(math.isqrt(hi - 1), tables)


def segmented_squarefree_sieve(lo: int, hi: int, tables: SieveTables) -> np.ndarray:
    """Boolean flags for [lo, hi): True where the value is square-free.

    Strikes multiples of p^2 for p up to sqrt(hi-1); the value 0 counts as
    not square-free.
    """
    squares = _sieve_primes(lo, hi, tables) ** 2
    out = np.ones(hi - lo, dtype=bool)
    if lo == 0:
        out[0] = False
    _strike(out, -lo % squares, squares)
    return out


def segmented_prime_sieve(lo: int, hi: int, tables: SieveTables) -> np.ndarray:
    """Boolean flags for [lo, hi): True where the value is prime."""
    primes = _sieve_primes(lo, hi, tables)
    out = np.ones(hi - lo, dtype=bool)
    for v in (0, 1):
        if lo <= v < hi:
            out[v - lo] = False
    _strike(out, np.maximum(primes**2, -(-lo // primes) * primes) - lo, primes)
    return out


def proper_prime_powers(top: int, tables: SieveTables) -> tuple[np.ndarray, np.ndarray]:
    """Sorted proper prime powers p^k <= top (k >= 2) with their log p."""
    vals: list[int] = []
    logs: list[float] = []
    for p in _base_primes(math.isqrt(max(top, 1)), tables).tolist():
        v = p * p
        if v > top:
            break
        lg = math.log(p)
        while v <= top:
            vals.append(v)
            logs.append(lg)
            v *= p
    order = sorted(range(len(vals)), key=vals.__getitem__)
    return (
        np.array([vals[i] for i in order], dtype=np.int64),
        np.array([logs[i] for i in order], dtype=np.float64),
    )


def log_numerators(values: np.ndarray) -> np.ndarray:
    """The exact int64 numerators of log n, for integers n >= 2."""
    return np.ldexp(np.log(values.astype(np.float64)), LOG_BITS).astype(np.int64)


def exact_sum(numerators: np.ndarray) -> int:
    """The exact sum of int64 numerators below NUMERATOR_BOUND."""
    return (int(np.add.reduce(numerators >> 32)) << 32) + int(
        np.add.reduce(numerators & _LOW_LIMB)
    )


def exact_class_sums(
    numerators: np.ndarray, classes: np.ndarray, count: int
) -> list[int]:
    """out[r] = exact sum of the numerators whose class is r, r < count."""
    high = np.zeros(count, dtype=np.int64)
    low = np.zeros(count, dtype=np.int64)
    np.add.at(high, classes, numerators >> 32)
    np.add.at(low, classes, numerators & _LOW_LIMB)
    return [(h << 32) + l for h, l in zip(high.tolist(), low.tolist())]


def _scan(
    lo: int, hi: int, residue: int, modulus: int, sieve, reduce, threads: int = 1
) -> Iterator:
    """Yield reduce(w_lo, flags) for every window [w_lo, w_hi) of [lo, hi),
    in order.

    Windows are window_length() integers long and run on `threads` workers.
    flags is sieve(w_lo, w_hi), cleared off the lane n ≡ residue (mod modulus).
    """
    length = window_length()
    # lane[s + i] is True iff s + i ≡ 0 (mod modulus); shared, read-only.
    lane = np.zeros(length + modulus, dtype=bool)
    lane[::modulus] = True

    def work(w_lo: int):
        w_hi = min(w_lo + length, hi)
        flags = sieve(w_lo, w_hi)
        if modulus > 1:
            shift = (w_lo - residue) % modulus
            flags &= lane[shift : shift + w_hi - w_lo]
        return reduce(w_lo, flags)

    starts = range(lo, hi, length)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            yield from ex.map(work, starts)
    else:
        yield from map(work, starts)


def _log_scan(
    top: int,
    residue: int,
    modulus: int,
    tables: SieveTables,
    reduce,
    threads: int = 1,
    mirror: int | None = None,
) -> Iterator:
    """reduce(hits, numerators, power_values, power_numerators) per window
    over the prime powers n = p^k <= top on the lane, in order.

    numerators are those of log p; power_values and power_numerators list,
    as Python ints, the proper powers among the hits and their numerators.
    With a mirror, only n with mirror - n square-free are hits.
    """
    power_vals, power_logs = proper_prime_powers(top, tables)
    power_nums = np.ldexp(power_logs, LOG_BITS).astype(np.int64)
    # Most windows hold no proper power; bisecting a list finds that cheaply.
    power_list = power_vals.tolist()

    def powers_in(lo: int, hi: int) -> slice:
        return slice(bisect_left(power_list, lo), bisect_left(power_list, hi))

    def sieve(lo: int, hi: int) -> np.ndarray:
        flags = segmented_prime_sieve(lo, hi, tables)
        span = powers_in(lo, hi)
        if span.start < span.stop:
            flags[power_vals[span] - lo] = True
        if mirror is not None:
            # Square-freeness of mirror - n, reversed so index i is n = lo + i.
            flags &= segmented_squarefree_sieve(
                mirror - hi + 1, mirror - lo + 1, tables
            )[::-1]
        return flags

    def window(lo: int, flags: np.ndarray):
        hits = np.flatnonzero(flags) + lo
        nums = log_numerators(hits)
        kept_vals, kept_nums = [], []
        span = powers_in(lo, lo + flags.size)
        if span.start < span.stop:
            kept = flags[power_vals[span] - lo]
            vals, pnums = power_vals[span][kept], power_nums[span][kept]
            nums[np.searchsorted(hits, vals)] = pnums
            kept_vals, kept_nums = vals.tolist(), pnums.tolist()
        return reduce(hits, nums, kept_vals, kept_nums)

    return _scan(2, top + 1, residue, modulus, sieve, window, threads)


def _check_unit(residue: int, modulus: int) -> int:
    residue %= modulus
    if math.gcd(residue, modulus) != 1:
        raise ValueError(f"class {residue} is not a unit mod {modulus}")
    return residue


def _check_coverage(target: int, tables: SieveTables) -> None:
    if target > tables.limit**2:
        raise CapacityError(
            f"target {target} beyond sieve coverage {tables.limit**2}"
        )


def count_representations(
    target: int, residue: int, modulus: int, tables: SieveTables, threads: int = 1
) -> CountResult:
    """Sum mu^2(target - p) log p over primes p ≡ residue (mod modulus),
    2 <= p <= target - 1, in natural logs.

    lambda_weighted additionally admits proper prime powers n <= target in
    the progression (still damped by mu^2(target - n)); target - n = 0 is
    not square-free, so n = target never contributes.
    """
    residue = _check_unit(residue, modulus)
    if target < 3:
        raise ValueError("target must be at least 3")
    _check_coverage(target, tables)
    started = time.perf_counter()

    def window(hits, nums, power_vals, power_nums):
        return hits.size - len(power_vals), exact_sum(nums), sum(power_nums)

    unweighted = total = extra = 0
    for hits, sums, powers in _log_scan(
        target - 1, residue, modulus, tables, window, threads, mirror=target
    ):
        unweighted += hits
        total += sums
        extra += powers
    return CountResult(
        target=target,
        residue=residue,
        modulus=modulus,
        weighted=(total - extra) / LOG_SCALE,
        unweighted=unweighted,
        lambda_weighted=total / LOG_SCALE,
        elapsed=time.perf_counter() - started,
    )


def count_classes(
    target: int, moduli, tables: SieveTables, threads: int = 1
) -> dict[tuple[int, int], CountResult]:
    """count_representations for every unit class a mod q and every q in
    moduli, keyed (q, a) in the order of moduli and then of a.

    One scan of [2, target) on modulus 1 finds every hit; each window is
    reduced to exact per-class sums for every q, so no hit outlives its
    window.  Every result carries the elapsed time of the whole scan.
    """
    moduli = list(dict.fromkeys(moduli))
    if any(q < 1 for q in moduli):
        raise ValueError("moduli must be positive")
    if target < 3:
        raise ValueError("target must be at least 3")
    _check_coverage(target, tables)
    started = time.perf_counter()

    def window(hits, nums, power_vals, power_nums):
        per_q = []
        for q in moduli:
            classes = hits % q
            per_q.append(
                (
                    np.bincount(classes, minlength=q).tolist(),
                    exact_class_sums(nums, classes, q),
                )
            )
        return per_q, power_vals, power_nums

    counts = {q: [0] * q for q in moduli}
    totals = {q: [0] * q for q in moduli}
    extras = {q: [0] * q for q in moduli}
    for per_q, power_vals, power_nums in _log_scan(
        target - 1, 0, 1, tables, window, threads, mirror=target
    ):
        for q, (window_counts, window_sums) in zip(moduli, per_q):
            counts[q] = list(map(add, counts[q], window_counts))
            totals[q] = list(map(add, totals[q], window_sums))
            for v, num in zip(power_vals, power_nums):
                counts[q][v % q] -= 1
                extras[q][v % q] += num
    elapsed = time.perf_counter() - started
    return {
        (q, a): CountResult(
            target=target,
            residue=a,
            modulus=q,
            weighted=(totals[q][a] - extras[q][a]) / LOG_SCALE,
            unweighted=counts[q][a],
            lambda_weighted=totals[q][a] / LOG_SCALE,
            elapsed=elapsed,
        )
        for q in moduli
        for a in range(q)
        if math.gcd(a, q) == 1
    }


def squarefree_count_in_ap(
    target: int, residue: int, modulus: int, tables: SieveTables, threads: int = 1
) -> int:
    """Count n in [1, target] with n ≡ residue (mod modulus) and
    target - n square-free (so n = target drops out via mu^2(0) = 0)."""
    if modulus < 1 or target < 1:
        raise ValueError("target and modulus must be positive")
    # Count over m = target - n instead: m in [0, target), one fixed class.
    parts = _scan(
        0,
        target,
        target - residue,
        modulus,
        lambda lo, hi: segmented_squarefree_sieve(lo, hi, tables),
        lambda lo, flags: int(np.count_nonzero(flags)),
        threads,
    )
    return sum(parts)


def squarefree_flags(hi: int, tables: SieveTables) -> np.ndarray:
    """Boolean flags for [0, hi), True where the value is square-free,
    sieved window by window."""
    return np.concatenate(
        list(
            _scan(
                0,
                hi,
                0,
                1,
                lambda lo, w_hi: segmented_squarefree_sieve(lo, w_hi, tables),
                lambda lo, flags: flags,
            )
        )
    )


def prime_power_logs(
    target: int, residue: int, modulus: int, tables: SieveTables
) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers n = p^k <= target with n ≡ residue (mod modulus), in
    increasing order, and the numerators of their weights log p."""
    parts = list(
        _log_scan(
            target, residue, modulus, tables, lambda hits, nums, *powers: (hits, nums)
        )
    )
    return (
        np.concatenate([_NO_HITS, *(p[0] for p in parts)]),
        np.concatenate([_NO_HITS, *(p[1] for p in parts)]),
    )


def psi_in_ap(
    target: int, residue: int, modulus: int, tables: SieveTables, threads: int = 1
) -> float:
    """Chebyshev psi along a progression: sum of log p over prime powers
    p^k <= target with p^k ≡ residue (mod modulus)."""
    residue = _check_unit(residue, modulus)
    if target < 1:
        raise ValueError("target must be positive")
    _check_coverage(target, tables)
    parts = _log_scan(
        target,
        residue,
        modulus,
        tables,
        lambda hits, nums, *powers: exact_sum(nums),
        threads,
    )
    return sum(parts) / LOG_SCALE
