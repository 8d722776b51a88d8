"""Ground-truth counting by segmented sieve.

Everything here is a brute-force oracle: the weighted representation count,
its von Mangoldt variant, square-free counts along progressions, and the
prime-power tally psi restricted to a progression, with the class sums and
squares of its log weights that the estimator reads of its log-weighted
function.  All of them come from one windowed scan: windows of a bounded
size are sieved one at a time, so the memory footprint never depends on the
target.

One count needs no sieve: squarefree_class_counts counts the square-free
m <= X in every class mod q from the Moebius table, Q(X) = sum over d of
mu(d) floor(X / d^2) (Hardy & Wright, section 18.6) split by class, in
O(q sqrt(X)) integer work.  The estimator's square-free mirror reads it, and
it shares no code with the sieves, so each checks the other.

A scan walks lane indices, not integers.  Its lane is the progression
first + step*j, 0 <= j < count, that the result needs (n ≡ a mod q for a
count mod q), and a window is a run of consecutive lane indices, so no
integer off the lane is ever sieved.  Each base prime strikes one residue
class of lane indices; its first member and its period are solved once per
scan, and a window only shifts them.  The square-free mirror target - n
of an ascending lane is the descending lane target - first - step*j,
struck at the same indices.  The public window sieves are the step-1 case
of the same code.

A prime lane holds only the odd members of its class.  The prime 2 strikes
every even n but 2 itself, so sieving them is wasted work: the lane is
n ≡ r (mod lcm(2, q)) from 3 on, and its mirror descends with the same
step.  The powers of two in the class, at most log2(N) of them, form the
even head, checked directly (mu^2(N - 2^k) by trial against the base
primes) and reduced once before the first window.  For an odd q this halves
the lane: `count --n 120000000 --q 7` sieves 9 windows of 2**20 entries,
not 17; at the 8 KiB cap `count --n 8000000 --q 3` sieves 1,303 windows of
1 Ki, not 2,605; `compare --n 3000000` sieves 2, not 3.  In-process on a
2-core x86 VM (Python 3.11, numpy 2.4, medians of 9 calls), those take
0.026 s with 1 thread and 0.027 s with 2 (0.054 and 0.055 s before),
0.038 s (0.073 s) and 0.013 s (0.028 s).

Sums of logarithms are exact and rounded once.  For n >= 2 the double
log n is an integer multiple of 2**-53 below 2**5, so it is stored as the
int64 numerator log n * 2**53; numerators are summed exactly and the total
is rounded to a float at the very end.  A result is therefore the correctly
rounded sum of its terms, bit-identical for every thread count and every
window size.

Every sieve strikes through one _StrikePlan, built once per scan before
any worker starts.  It holds the (period, anchor, lane) table of one lane,
or of two: a count's prime lane and its square-free mirror, which share
their lane indices and so their windows.  Each window sieves the lanes
into one buffer of k rows.  Periods below 1/32 of the window are struck
as one numpy slice each; every longer period lands at most 32 times, and
all of those hits, of both lanes, are cleared by two vectorised stores, so
a small window costs a few numpy calls rather than a Python loop over
every base prime, and two lanes cost hardly more than one.  The count
then ANDs the mirror row into the prime row in place.

An odd lane carries about twice the hits per entry, so a window's hits
are reduced in pieces of 2**18 lane entries, which keeps their arrays
smaller than the whole-window arrays of a lane with even entries.

`compare` needs every unit class a mod q for many q.  count_classes makes
one scan of [2, N) for all of them: each window's hits are reduced to exact
per-class sums for every modulus, so the cost is one sieve, not one per
class, and no hit is kept past its window.  A window bins its hits once per
maximal modulus (one dividing no other in the set: 7 to 12 for 1..12),
with float64 bincounts of 32-bit limbs, exact in chunks of fewer than
2**21 hits, and folds every divisor modulus out of those sums.

The base tables must reach the square root of the largest value touched: a
lane is accepted only while its largest value is at most tables.limit**2.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import Iterator

import numpy as np

from sqfrep.arith import CapacityError, SieveTables, require_int64

DEFAULT_WINDOW = 1 << 20

# A log weight is the int64 numerator of value * LOG_SCALE.
LOG_BITS = 53
LOG_SCALE = 1 << LOG_BITS
# Numerators stay below arith.NUMERATOR_BOUND = 2**62 in magnitude, so the
# high limb (x >> 32) is at most 2**30 in magnitude and the low limb
# (x & 0xFFFFFFFF) below 2**32: int64 sums of either limb are exact for
# fewer than 2**31 terms, and so they are for values of magnitude 2**62
# too.  A log below 2**5 has a numerator below 2**58.
_LOW_LIMB = (1 << 32) - 1
_LOW_31 = (1 << 31) - 1


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
    """Sieve window size in lane entries: a scan mod q covers q integers per
    entry.  SQFREP_MAX_WINDOW_BYTES caps the transient allocation (roughly
    eight bytes per entry of window)."""
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


# A period shorter than 1/_SLICE_SPLIT of the window is struck as one slice;
# every longer period lands at most _SLICE_SPLIT times in the window.
_SLICE_SPLIT = 32


class _LaneSieve:
    """The strike table of one lane, the values first + step*j at lane
    indices 0 <= j < count: with exponent 1 its composites are struck, with
    exponent 2 its values that are not square-free.

    A base prime p strikes the indices whose value p**exponent divides (for
    primes, only values of at least p*p).  With g = gcd(step, p**exponent)
    those indices are empty unless g divides first, and are otherwise one
    class modulo the period p**exponent / g, so non-unit classes and primes
    dividing step need no special case.  Its first member (the anchor) and
    its period are solved once per lane; a window starting at index w then
    strikes from anchor - w if that is >= 0, else from (anchor - w) mod
    period.  `cleared` holds the lane indices no base prime strikes but
    that are still not flagged (0 and 1 for primes, 0 for square-free).

    Overflow: the lane is checked to lie in [0, tables.limit**2], and only
    base primes p <= tables.limit strike it.  A square anchor is below its
    period p*p; a prime anchor lies within one period p past the index of
    the value p*p, which is at most p*p; and a window start is a lane index,
    at most tables.limit**2.  So every anchor, period and offset is below
    tables.limit**2 + tables.limit in magnitude.  A _StrikePlan of k lanes
    and windows of `length` adds to an offset a stride below length, clips
    the sum to the window, and adds a lane base of at most
    (k - 1) * (length + 1), so it checks tables.limit**2 + tables.limit +
    k * (length + 1) with require_int64 before any lane is solved
    (build_sieve keeps the limit below 2**31, so the check only fails for
    hand-built tables or windows of about 2**62 entries).
    """

    def __init__(
        self, first: int, step: int, count: int, exponent: int, tables: SieveTables
    ) -> None:
        if count < 1 or step == 0:
            raise ValueError(f"empty lane: {count} values of step {step}")
        if count == 1:
            # one value has no step; 1 keeps any modulus out of int64 products
            step = 1
        last = first + step * (count - 1)
        _check_window(min(first, last), max(first, last) + 1, tables)
        primes = _base_primes(math.isqrt(max(first, last)), tables)
        powers = primes**exponent
        # first + step*j ≡ 0 (mod p**exponent)  <=>  c + a*j ≡ 0 with a > 0
        c, a = (first, step) if step > 0 else (-first, -step)
        if a == 1:
            periods, anchors = powers, -c % powers
        else:
            solved = []
            for p, power in zip(primes.tolist(), powers.tolist()):
                g = math.gcd(a, power)
                if c % g == 0:
                    period = power // g
                    anchor = -(c // g) * pow(a // g, -1, period) % period
                    solved.append((period, anchor, p))
            # periods ascend: p**exponent / g can undercut a smaller
            # prime's period
            table = np.array(sorted(solved), dtype=np.int64).reshape(-1, 3)
            periods, anchors, primes = table.T.copy()
        if exponent == 1:
            # strike composites only: from the lane index of p*p on, which
            # needs an ascending lane; 0 and 1 are not prime
            start = np.maximum(-((first - primes**2) // step), 0)
            anchors = start + (anchors - start) % periods
            self.cleared = range(max(0, -((first - 2) // step)))
        else:
            # 0 is not square-free (nor struck when no base prime reaches 4)
            zero = -first // step
            self.cleared = range(zero, zero + 1) if first % step == 0 else range(0)
        self.anchors, self.periods = anchors, periods


class _StrikePlan:
    """Flags for k = 1 or 2 lanes of `count` values each, sieved together
    into one k x (length + 1) buffer per window of at most `length` lane
    indices.  `lanes` lists each lane as (first, step, exponent), as for
    _LaneSieve.

    The lanes' (period, anchor, lane) tables are concatenated and cut once,
    by period, into three groups, lane by lane inside each.  A period below
    length / 32 is struck as one numpy slice per window, so that each slice
    strikes a row already in cache.  A period below length lands at most
    ceil(length / period) <= 32 times in a window: every such hit of every
    lane, j * period past its period's offset, is laid out once, and a
    window shifts them all by their offsets and clears them in one store.  A
    longer period lands at most once, and those hits are a second store.
    The stores clip each hit to column n of a window of n entries, a sink
    that no caller reads, so no hit needs a mask.

    The plan is read-only once built, so workers share it.
    """

    def __init__(self, lanes, count: int, tables: SieveTables, length: int) -> None:
        require_int64(tables.limit**2 + tables.limit + len(lanes) * (length + 1))
        solved = [_LaneSieve(f, s, count, e, tables) for f, s, e in lanes]
        self.width = width = length + 1
        self.cleared = [lane.cleared for lane in solved]
        # each lane's periods ascend, so two cuts split them into the three
        # groups; parts lists (row, span of its table) group by group
        bounds = (-(-length // _SLICE_SPLIT), length)
        cuts = [
            (0, *lane.periods.searchsorted(bounds).tolist(), None) for lane in solved
        ]
        parts = [
            (row, slice(cut[group], cut[group + 1]))
            for group in range(3)
            for row, cut in enumerate(cuts)
        ]
        periods = [solved[row].periods[span] for row, span in parts]
        self.periods = np.concatenate(periods)
        self.anchors = np.concatenate(
            [solved[row].anchors[span] for row, span in parts]
        )
        bases = np.repeat([row * width for row, _ in parts], [p.size for p in periods])
        k = len(solved)
        self.slices = [p.tolist() for p in periods[:k]]
        self.sliced = sliced = sum(p.size for p in periods[:k])
        self.repeated = repeated = sliced + sum(p.size for p in periods[k : 2 * k])
        # the j-th hit of each repeated period, j < ceil(length / period)
        hits = -(-length // self.periods[sliced:repeated])
        self.entry = np.repeat(np.arange(sliced, repeated), hits)
        first_hit = np.repeat(hits.cumsum() - hits, hits)
        jumps = np.arange(self.entry.size) - first_hit
        self.strides = jumps * self.periods[self.entry]
        self.repeated_bases = bases[self.entry]
        self.once_bases = bases[repeated:]

    def flags(self, lo: int, hi: int) -> np.ndarray:
        """A k x (hi - lo) view of the flags for the lane indices [lo, hi),
        one row per lane; hi - lo is at most the plan's length.

        Every base prime of a lane strikes every window: one whose power
        exceeds the window's values finds nothing to strike there."""
        n = hi - lo
        out = np.ones((len(self.cleared), self.width), dtype=bool)
        shift = self.anchors - lo
        offsets = np.maximum(shift, shift % self.periods)
        sliced = iter(offsets[: self.sliced].tolist())
        for row, periods in zip(out, self.slices):
            # zip stops at the row's last period, so `sliced` moves on to
            # the next row's offsets
            for period, off in zip(periods, sliced):
                row[off::period] = False
        flat = out.reshape(-1)
        hits = offsets[self.entry]
        hits += self.strides
        np.minimum(hits, n, out=hits)
        hits += self.repeated_bases
        flat[hits] = False
        once = np.minimum(offsets[self.repeated :], n)
        once += self.once_bases
        flat[once] = False
        for row, cleared in zip(out, self.cleared):
            row[max(cleared.start - lo, 0) : max(cleared.stop - lo, 0)] = False
        return out[:, :n]


def segmented_squarefree_sieve(lo: int, hi: int, tables: SieveTables) -> np.ndarray:
    """Boolean flags for [lo, hi): True where the value is square-free.

    Strikes multiples of p^2 for p up to sqrt(hi-1); the value 0 counts as
    not square-free.
    """
    return _StrikePlan([(lo, 1, 2)], hi - lo, tables, hi - lo).flags(0, hi - lo)[0]


def segmented_prime_sieve(lo: int, hi: int, tables: SieveTables) -> np.ndarray:
    """Boolean flags for [lo, hi): True where the value is prime."""
    return _StrikePlan([(lo, 1, 1)], hi - lo, tables, hi - lo).flags(0, hi - lo)[0]


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
    logs = values.astype(np.float64)
    np.log(logs, out=logs)
    # scaling by a power of two is exact: these are the bits of np.ldexp
    logs *= LOG_SCALE
    return logs.astype(np.int64)


def exact_sum(numerators: np.ndarray) -> int:
    """The exact sum of fewer than 2**31 int64 values, each at most 2**62 =
    NUMERATOR_BOUND in magnitude."""
    return (int(np.add.reduce(numerators >> 32)) << 32) + int(
        np.add.reduce(numerators & _LOW_LIMB)
    )


def square_sum(numerators: np.ndarray) -> int:
    """The exact sum of the squares of fewer than 2**31 int64 values, each
    at most 2**62 = NUMERATOR_BOUND in magnitude.  With x = h 2**31 + l,
    |h| <= 2**31 and 0 <= l < 2**31, so each of h h, h l and l l is at most
    2**62 in magnitude and exact_sum adds them exactly."""
    high, low = numerators >> 31, numerators & _LOW_31
    return (
        (exact_sum(high * high) << 62)
        + (exact_sum(high * low) << 32)
        + exact_sum(low * low)
    )


# A float64 bincount adds its weights in input order, so its class sums are
# exact while every partial sum is an integer below 2**53 in magnitude.  The
# limbs of a numerator below NUMERATOR_BOUND lie below 2**32 in magnitude,
# so that holds for fewer than 2**21 terms per bincount.  Chunks of
# CLASS_SUM_TERMS stay far below that, and keep a chunk's float limbs and
# classes at 256 KiB each on long inputs, such as the estimator's log-weighted
# function (about 665,000 terms at N = 1e7).
CLASS_SUM_TERMS = 1 << 15


def exact_class_sums(numerators: np.ndarray, values: np.ndarray, moduli) -> list:
    """For each q in moduli, (counts, sums): counts[r] values are ≡ r
    (mod q), and sums[r] is the exact sum of their numerators, each below
    NUMERATOR_BOUND.

    Only a maximal modulus (one dividing no other in the set) is binned;
    each modulus is folded out of a maximal one that it divides.  Every
    binned entry is below len(values) * 2**32, so fewer than 2**31 values
    keep them in int64."""
    require_int64(len(values) << 32)
    moduli = list(moduli)
    maximal = [
        m for m in dict.fromkeys(moduli) if all(o == m or o % m for o in moduli)
    ]
    bins = {m: np.zeros((3, m), dtype=np.int64) for m in maximal}
    for start in range(0, len(values), CLASS_SUM_TERMS):
        chunk = slice(start, start + CLASS_SUM_TERMS)
        # bincount weighs in float64: cast each limb once, not per modulus
        limbs = [
            (numerators[chunk] >> 32).astype(np.float64),
            (numerators[chunk] & _LOW_LIMB).astype(np.float64),
        ]
        classes = np.empty(len(limbs[0]), dtype=np.int64)
        for m, (counts, *sums) in bins.items():
            np.remainder(values[chunk], m, out=classes)
            counts += np.bincount(classes, minlength=m)
            for row, limb in zip(sums, limbs):
                row += np.bincount(classes, limb, m).astype(np.int64)
    out = []
    for q in moduli:
        folded = bins[next(m for m in maximal if m % q == 0)].reshape(3, -1, q)
        counts, high, low = folded.sum(1).tolist()
        out.append((counts, [(h << 32) + l for h, l in zip(high, low)]))
    return out


# Windows shorter than this run on one worker.  A long window is mostly
# numpy work that releases the GIL; a short one is mostly Python and per-call
# overhead, which threads take turns at.  Measured in-process on a 2-core
# x86 VM (Python 3.11, numpy 2.4, medians of 5 and of 7 runs), 2 threads
# against 1 on count_representations over odd lanes at N = 1.2e8 mod 7 and
# 1e8 mod 1: 0.45-1.01x the speed for windows of 2**10 to 2**16 entries,
# 0.99-1.35x at 2**18, 1.09-1.53x at 2**19 and 1.13-1.69x at the default
# 2**20.  8e6 mod 3, two to six windows of about 1 ms from 2**18 on, ran at
# 0.68-1.19x there.
MIN_THREADED_WINDOW = 1 << 19


def scan_workers(threads: int, windows: int, length: int) -> int:
    """Workers for a scan of `windows` windows of `length` lane entries:
    never more than there are windows, and one for windows shorter than
    MIN_THREADED_WINDOW."""
    if length < MIN_THREADED_WINDOW:
        return 1
    return max(1, min(threads, windows))


def _scan(
    count: int, sieve, reduce, threads: int = 1, length: int | None = None
) -> Iterator:
    """Yield reduce(lo, sieve(lo, hi)) for every window [lo, hi) of the lane
    indices [0, count), in order.

    Windows are `length` lane entries long (by default window_length(), the
    length a _StrikePlan was built for) and run on up to `threads` workers
    (see scan_workers).
    """
    if length is None:
        length = window_length()

    def work(lo: int):
        return reduce(lo, sieve(lo, min(lo + length, count)))

    starts = range(0, count, length)
    workers = scan_workers(threads, len(starts), length)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            yield from ex.map(work, starts)
    else:
        yield from map(work, starts)


# A window's hits are reduced in pieces of at most this many lane entries,
# while its flag buffer lives.  An odd lane carries about twice the hits per
# entry; a piece's hit arrays, a few hundred KiB, stay in cache, and
# whole-window ones made count_representations(120000000, 3, 7) take 0.036
# s against 0.026 s (pieces of 2**17 to 2**19 gave 0.026-0.034 s).  Freeing
# the buffer before the hits are reduced was measured and rejected: its
# 2 MiB hole then takes the reduction's small allocations, the next
# window's buffer grows the heap, and a two-thread count at N = 1.2e8 mod 7
# peaked 2 MB higher in about one run in ten.
_PIECE = 1 << 18


def _is_squarefree(m: int, tables: SieveTables) -> bool:
    """mu^2(m) for 1 <= m <= tables.limit**2, by trial against the base
    primes."""
    return not np.any(m % _base_primes(math.isqrt(m), tables) ** 2 == 0)


def _log_scan(
    top: int,
    residue: int,
    modulus: int,
    tables: SieveTables,
    reduce,
    threads: int = 1,
    mirror: int | None = None,
) -> Iterator:
    """reduce(hits, numerators, power_values, power_numerators) over the
    prime powers n = p^k <= top with n ≡ residue (mod modulus): first once
    for the even head, the powers of two in the class, then once per piece
    of each window of the odd lane, in order.

    hits are the values n; numerators are those of log p; power_values and
    power_numerators list, as Python ints, the proper powers among the hits
    and their numerators.  With a mirror, only n with mirror - n square-free
    are hits.

    The prime 2 strikes every even n but 2 itself, so the lane holds only
    the odd members of the class, n ≡ r (mod lcm(2, modulus)); the even
    head holds at most log2(top) values, each checked directly.
    """
    step = modulus if modulus % 2 == 0 else 2 * modulus
    # the odd members of the class; an even modulus and residue have none
    odd = residue if residue % 2 else residue + modulus
    first = 3 + (odd - 3) % step
    count = (top - first) // step + 1 if odd % 2 else 0
    head = [
        v
        for v in (1 << k for k in range(1, top.bit_length()))
        if (v - residue) % modulus == 0
        and (mirror is None or _is_squarefree(mirror - v, tables))
    ]
    # log 2 is the float np.log gives at the prime 2, and math.log(2) at its
    # proper powers, as for every other prime
    two = int(log_numerators(np.array([2]))[0])
    power = int(np.ldexp(math.log(2), LOG_BITS))
    powers = [v for v in head if v > 2]
    leading = reduce(
        np.array(head, dtype=np.int64),
        np.array([two if v == 2 else power for v in head], dtype=np.int64),
        powers,
        [power] * len(powers),
    )
    if count < 1:
        return iter((leading,))
    # one value has no step; 1 keeps any modulus out of int64 products
    step = step if count > 1 else 1
    lanes = [(first, step, 1)]
    if mirror is not None:
        lanes.append((mirror - first, -step, 2))
    length = window_length()
    plan = _StrikePlan(lanes, count, tables, length)
    power_vals, power_logs = proper_prime_powers(top, tables)
    on_lane = (power_vals - first) % step == 0
    power_vals = power_vals[on_lane]
    power_nums = np.ldexp(power_logs[on_lane], LOG_BITS).astype(np.int64)
    power_idx = (power_vals - first) // step
    # Most windows hold no proper power; bisecting a list finds that cheaply.
    power_list = power_idx.tolist()

    def powers_in(lo: int, hi: int) -> slice:
        return slice(bisect_left(power_list, lo), bisect_left(power_list, hi))

    def sieve(lo: int, hi: int) -> np.ndarray:
        rows = plan.flags(lo, hi)
        flags = rows[0]
        span = powers_in(lo, hi)
        if span.start < span.stop:
            flags[power_idx[span] - lo] = True
        if mirror is not None:
            flags &= rows[1]
        return flags

    def window(lo: int, flags: np.ndarray) -> list:
        """reduce over each piece of at most _PIECE lane entries, in order."""
        parts = []
        for start in range(0, flags.size, _PIECE):
            piece = flags[start : start + _PIECE]
            at = lo + start
            hits = piece.nonzero()[0]
            hits *= step
            hits += first + step * at
            nums = log_numerators(hits)
            kept_vals, kept_nums = [], []
            span = powers_in(at, at + piece.size)
            if span.start < span.stop:
                kept = piece[power_idx[span] - at]
                vals, pnums = power_vals[span][kept], power_nums[span][kept]
                nums[np.searchsorted(hits, vals)] = pnums
                kept_vals, kept_nums = vals.tolist(), pnums.tolist()
            parts.append(reduce(hits, nums, kept_vals, kept_nums))
        return parts

    windows = _scan(count, sieve, window, threads, length)
    return chain((leading,), chain.from_iterable(windows))


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
        return exact_class_sums(nums, hits, moduli), power_vals, power_nums

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
    # Count over m = target - n instead: the lane m ≡ target - residue in
    # [0, target).
    first = (target - residue) % modulus
    count = -(-(target - first) // modulus)
    if count < 1:
        return 0
    length = window_length()
    plan = _StrikePlan([(first, modulus, 2)], count, tables, length)

    def window(lo: int, flags: np.ndarray) -> int:
        return int(np.count_nonzero(flags[0]))

    return sum(_scan(count, plan.flags, window, threads, length))


def log_class_sums(
    target: int,
    residue: int,
    modulus: int,
    moduli,
    tables: SieveTables,
    threads: int = 1,
) -> tuple[list[list[int]], int]:
    """Over the prime powers n = p^k <= target with n ≡ residue (mod
    modulus), weighted by the numerators of log p: for each q in moduli the
    exact per-class sums, sums[r] over n ≡ r (mod q), and the exact sum of
    the squared numerators."""
    if target < 1:
        raise ValueError("target must be positive")
    _check_coverage(target, tables)
    moduli = list(moduli)

    def piece(hits, nums, *powers):
        sums = [sums for _, sums in exact_class_sums(nums, hits, moduli)]
        return sums, square_sum(nums)

    totals = [[0] * q for q in moduli]
    squares = 0
    for sums, square in _log_scan(target, residue, modulus, tables, piece, threads):
        totals = [list(map(add, total, part)) for total, part in zip(totals, sums)]
        squares += square
    return totals, squares


def psi_in_ap(
    target: int, residue: int, modulus: int, tables: SieveTables, threads: int = 1
) -> float:
    """Chebyshev psi along a progression: sum of log p over prime powers
    p^k <= target with p^k ≡ residue (mod modulus)."""
    residue = _check_unit(residue, modulus)
    ((total,),), _ = log_class_sums(target, residue, modulus, [1], tables, threads)
    return total / LOG_SCALE


# squarefree_class_counts handles about this many (d, c) terms per block,
# so its transient arrays stay near 1 MiB each whatever the modulus.
_COUNTER_BLOCK = 1 << 17


def squarefree_class_counts(top: int, modulus: int, tables: SieveTables) -> list[int]:
    """counts[r] is the number of square-free m in [1, top] with m ≡ r
    (mod modulus), with no sieve.

    m is square-free exactly when sum over d^2 | m of mu(d) is 1, so
    counts[r] = sum over square-free d <= sqrt(top) of mu(d) times the
    number of k in [1, top // d^2] with d^2 k ≡ r: for each c in [1,
    modulus], (top // d^2 - c) // modulus + 1 values of k ≡ c land on
    r = d^2 c mod modulus.  That is exact integer arithmetic over the Moebius
    table, vectorised over d in blocks of about _COUNTER_BLOCK terms.  Every
    term is below top in magnitude, and so is every partial sum, since the
    sum of top / d^2 over d >= 1 is below 2 top."""
    if top < 0 or modulus < 1:
        raise ValueError("top must be non-negative and modulus positive")
    _check_coverage(top, tables)
    require_int64(2 * top + modulus * modulus)
    mu = tables.mobius[: math.isqrt(top) + 1]
    roots = np.flatnonzero(mu).astype(np.int64)
    steps = np.arange(1, modulus + 1, dtype=np.int64)
    counts = np.zeros(modulus, dtype=np.int64)
    block = max(1, _COUNTER_BLOCK // modulus)
    for start in range(0, roots.size, block):
        d = roots[start : start + block]
        squares = d * d
        ks = (top // squares)[:, None] - steps
        ks //= modulus
        ks += 1
        ks *= mu[d].astype(np.int64)[:, None]
        classes = (squares % modulus)[:, None] * steps
        classes %= modulus
        np.add.at(counts, classes.ravel(), ks.ravel())
    return counts.tolist()
