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
scan, for every base prime at once by an int64 extended Euclidean
algorithm, and a window only shifts them.  The square-free mirror target - n
of an ascending lane is the descending lane target - first - step*j,
struck at the same indices.  The public window sieves are the step-1 case
of the same code.

A prime lane holds only the odd members of its class.  The prime 2 strikes
every even n but 2 itself, so sieving them is wasted work: the lane is
n ≡ r (mod lcm(2, q)) from 3 on, and its mirror descends with the same
step.  The prime 2, if the class holds it, is the even head, checked
directly and reduced once before the first window.  For an odd q this
halves the lane: `count --n 120000000 --q 7` sieves 9 windows of 2**20
entries.

Sums of logarithms are exact and rounded once.  For n >= 2 the double
log n is an integer multiple of 2**-53 below 2**5, so it is stored as the
int64 numerator log n * 2**53; numerators are summed exactly and the total
is rounded to a float at the very end.  A result is therefore the correctly
rounded sum of its terms, bit-identical for every thread count and every
window size.  Every numerator comes from one source, log_numerators (numpy's
log): a lane hit p, the even head 2 and a proper power p^k all weigh the
numerator of log p.

Every sieve strikes through one _StrikePlan, built once per scan before
any worker starts.  It holds the (period, anchor) table of one lane, or of
two: a count's prime lane and its square-free mirror, which share their
lane indices and so their windows.  Both lanes strike one row of one byte
per lane entry, so a count's row comes out as prime(n) and mu^2(N - n)
with no second row to AND in.  Periods below 1/32 of the window are
struck as one numpy slice each; every longer period lands at most 32
times, and all of those hits, of both lanes, are cleared by one gathered
store, so a small window costs a few numpy calls rather than a Python
loop over every base prime, and two lanes cost hardly more than one.

A prime lane's hits are exactly its primes.  The von Mangoldt variants
also need the proper prime powers p^k, k >= 2, which are few (5 against
6.8 million prime hits for count_representations(10**9, 3, 7)), so
_proper_powers lists those of the class once per scan, beside it, with
mu^2(N - p^k) by trial division, and _progression_sums reduces it once.

An odd lane carries about twice the hits per entry, so a window's hits
are reduced in pieces of 2**18 lane entries in all, split across the
scan's workers.  Each worker refills one row for the whole scan, so a
scan holds one row and one piece's arrays per worker: tracemalloc peaks
of count_representations(120000000, 3, 7) are 2.1 MiB with 1 thread and
2.9-3.1 MiB with 2.

count_representations, count_classes and log_class_sums are
views of one reduction, _progression_sums, of one lane, with or without
the mirror, at a list of moduli: each piece's hits, and the proper powers
once, are reduced to exact per-class counts and numerator sums at the
maximal moduli (those dividing no other in the set: 7 to 12 for 1..12),
and every modulus is folded out of a multiple once the scan ends (_fold),
so the cost is one sieve, not one per class, and no hit outlives its
piece.  The list [1] takes a plain count and sum, and only log_class_sums
squares the numerators (for [f|f]): binning [1] made a count mod 7 at
1.2e8 half again as slow, and squaring every piece a fifth.  Class sums
bin their values with float64 bincounts of 32-bit limbs, exact in chunks
of fewer than 2**21 hits, once per group of maximal moduli whose lcm
stays at most CLASS_BIN_LIMIT: twice for 1..12 (mod 2,520 and 132).

The base tables must reach the square root of the largest value touched: a
lane is accepted only while its largest value is at most tables.limit**2.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import Iterator

import numpy as np

from sqfrep.arith import CapacityError, SieveTables, require_int64, require_unit

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
    """One weighted count, held exactly: the raw count, and the numerators
    over LOG_SCALE of the log sums over the primes and over the proper
    prime powers.  The floats are derived, each rounded once."""

    unweighted: int
    prime_numerator: int
    power_numerator: int

    @property
    def weighted(self) -> float:
        """The log-weighted count over primes."""
        return self.prime_numerator / LOG_SCALE

    @property
    def lambda_weighted(self) -> float:
        """The von-Mangoldt-weighted total that also sees prime powers."""
        return (self.prime_numerator + self.power_numerator) / LOG_SCALE


def window_length() -> int:
    """Sieve window size in lane entries: a scan mod q covers q integers per
    entry, and a scan's windows are the smaller of this and its lane.
    SQFREP_MAX_WINDOW_BYTES caps the transient allocation (roughly eight
    bytes per entry of window)."""
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
            f"{hi - 1} is beyond the sieve coverage limit^2 = {tables.limit**2}"
        )


def _base_primes(top: int, tables: SieveTables) -> np.ndarray:
    pos = int(np.searchsorted(tables.primes, top, side="right"))
    return tables.primes[:pos]


# A period shorter than 1/_SLICE_SPLIT of the window is struck as one slice;
# every longer period lands at most _SLICE_SPLIT times in the window.
_SLICE_SPLIT = 32


def _inverses(units: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """units**-1 mod moduli elementwise, for coprime pairs with 0 <= units <
    moduli < 2**62: the extended Euclidean algorithm, one step of every
    unfinished pair per pass.  Every remainder and every Bezout coefficient
    is at most the modulus in magnitude, and so is each product q * r and q
    * s, so no int64 overflows.  A pass count is that of the slowest pair:
    after the first step the remainders are below the unit, so a lane of
    step a takes at most about 1.44 log2(a) + 2 passes."""
    r0, r1 = moduli.copy(), units.copy()
    s0, s1 = np.zeros_like(moduli), np.ones_like(moduli)
    live = np.flatnonzero(r1)
    while live.size:
        a0, a1, b0, b1 = r0[live], r1[live], s0[live], s1[live]
        q = a0 // a1
        r0[live], r1[live] = a1, a0 - q * a1
        s0[live], s1[live] = b1, b0 - q * b1
        live = live[r1[live] != 0]
    return s0 % moduli


def _mulmod(x: np.ndarray, y: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """x * y mod moduli elementwise, for 0 <= x, y < moduli < 2**62.  With
    b bits in the largest modulus, y is taken in chunks of s = 63 - b bits,
    top chunk first, so each partial product stays below 2**63; for moduli
    below 2**31 (every period of a value up to 2**31) that is one product."""
    bits = int(moduli.max(initial=1)).bit_length()
    step = 63 - bits
    out = np.zeros_like(x)
    for shift in reversed(range(0, bits, step)):
        out <<= step
        out %= moduli
        out += x * ((y >> shift) & ((1 << step) - 1)) % moduli
        out %= moduli
    return out


def _lane_table(
    first: int, step: int, count: int, exponent: int, tables: SieveTables
) -> tuple[np.ndarray, np.ndarray, range]:
    """The strike table of one lane, the values first + step*j at lane
    indices 0 <= j < count: with exponent 1 its composites are struck, with
    exponent 2 its values that are not square-free.  Returns (periods,
    anchors, cleared), the periods in base-prime order.

    A base prime p strikes the indices whose value p**exponent divides (for
    primes, only values of at least p*p).  With g = gcd(step, p**exponent)
    those indices are empty unless g divides first, and are otherwise one
    class modulo the period p**exponent / g, so non-unit classes and primes
    dividing step need no special case.  Its first member (the anchor) and
    its period are solved once per lane, for every base prime at once
    (_inverses, _mulmod); a window starting at index w then strikes from
    anchor - w if that is >= 0, else from (anchor - w) mod period.
    `cleared` holds the lane indices no base prime strikes but that are
    still not flagged (0 and 1 for primes, 0 for square-free).

    Overflow: the lane is checked to lie in [0, tables.limit**2], and only
    base primes p <= tables.limit strike it.  A square anchor is below its
    period p*p; a prime anchor lies within one period p past the index of
    the value p*p, which is at most p*p; and a window start is a lane index,
    at most tables.limit**2.  So every anchor, period and offset is below
    tables.limit**2 + tables.limit in magnitude.  A _StrikePlan with windows
    of `length` adds to an offset a stride below length and clips the sum to
    the window, so it checks tables.limit**2 + tables.limit + length + 1
    with require_int64 before any lane is solved (build_sieve keeps the
    limit below 2**31, so the check only fails for hand-built tables or
    windows of about 2**62 entries).
    """
    if count < 1 or step == 0:
        raise ValueError(f"empty lane: {count} values of step {step}")
    if count == 1:
        # one value has no step; 1 keeps any modulus out of int64 products
        step = 1
    last = first + step * (count - 1)
    _check_window(min(first, last), max(first, last) + 1, tables)
    primes = _base_primes(math.isqrt(max(first, last)), tables).astype(np.int64)
    powers = primes**exponent
    # first + step*j ≡ 0 (mod p**exponent)  <=>  c + a*j ≡ 0 with a > 0,
    # and with g = gcd(a, p**exponent) dividing c, (a/g) j ≡ -c/g modulo
    # the period p**exponent / g
    c, a = (first, step) if step > 0 else (-first, -step)
    g = np.gcd(powers, a)
    solvable = c % g == 0
    primes, g = primes[solvable], g[solvable]
    periods = powers[solvable] // g
    anchors = _mulmod(
        -(c // g) % periods, _inverses(a // g % periods, periods), periods
    )
    if exponent == 1:
        # strike composites only: from the lane index of p*p on, which
        # needs an ascending lane; 0 and 1 are not prime
        start = np.maximum(-((first - primes**2) // step), 0)
        anchors = start + (anchors - start) % periods
        return periods, anchors, range(max(0, -((first - 2) // step)))
    # 0 is not square-free (nor struck when no base prime reaches 4)
    zero = -first // step
    return periods, anchors, range(zero, zero + 1) if first % step == 0 else range(0)


class _StrikePlan:
    """Flags for one or two lanes of `count` values each that share their
    lane indices, struck into one row: an index stays flagged only where
    every lane's value passes.  A count's prime lane and its square-free
    mirror are two such lanes, so their row is prime(n) and mu^2(N - n) at
    once.  `lanes` lists each lane as (first, step, exponent), as for
    _lane_table; windows hold at most `length` lane indices.

    The lanes' (period, anchor) tables are merged, sorted by period once,
    and cut once into two groups.  A period below length / 32 is struck as
    one numpy slice per window.  Every longer period lands at most
    ceil(length / period) <= 32 times in a window, once when the period is
    at least length: every such hit, j * period past its period's offset,
    is laid out once, and a window shifts them all by their offsets and
    clears them in one gathered store.  The store clips each hit to column n
    of a window of n entries, a sink that no caller reads, so no hit needs a
    mask.

    No caller sets an index back, so a prime lane's flags are its primes.
    The tables are read-only once built, so workers share the plan.  Each
    worker thread strikes into its own row of length + 1 bytes, allocated
    at its first window and refilled at every later one.
    """

    def __init__(self, lanes, count: int, tables: SieveTables, length: int) -> None:
        require_int64(tables.limit**2 + tables.limit + length + 1)
        periods, anchors, self.cleared = zip(
            *(_lane_table(f, s, count, e, tables) for f, s, e in lanes)
        )
        periods = np.concatenate(periods)
        order = np.argsort(periods, kind="stable")
        self.periods = periods[order]
        self.anchors = np.concatenate(anchors)[order]
        self.width = length + 1
        self.sliced = int(self.periods.searchsorted(-(-length // _SLICE_SPLIT)))
        self.slices = self.periods[: self.sliced].tolist()
        # the j-th hit of each gathered period, j < ceil(length / period)
        hits = -(-length // self.periods[self.sliced :])
        self.entry = np.repeat(np.arange(self.sliced, self.periods.size), hits)
        first_hit = np.repeat(hits.cumsum() - hits, hits)
        jumps = np.arange(self.entry.size) - first_hit
        self.strides = jumps * self.periods[self.entry]
        self._rows = threading.local()

    def flags(self, lo: int, hi: int) -> np.ndarray:
        """The flags for the lane indices [lo, hi), hi - lo at most the
        plan's length: a view of this thread's row, valid until the thread
        asks this plan for its next window.

        Every base prime of a lane strikes every window: one whose power
        exceeds the window's values finds nothing to strike there."""
        n = hi - lo
        row = getattr(self._rows, "row", None)
        if row is None:
            row = self._rows.row = np.empty(self.width, dtype=bool)
        row.fill(True)
        shift = self.anchors - lo
        offsets = np.maximum(shift, shift % self.periods)
        for period, off in zip(self.slices, offsets[: self.sliced].tolist()):
            row[off::period] = False
        hits = offsets[self.entry]
        hits += self.strides
        np.minimum(hits, n, out=hits)
        row[hits] = False
        for cleared in self.cleared:
            row[max(cleared.start - lo, 0) : max(cleared.stop - lo, 0)] = False
        return row[:n]


def segmented_squarefree_sieve(lo: int, hi: int, tables: SieveTables) -> np.ndarray:
    """Boolean flags for [lo, hi): True where the value is square-free.

    Strikes multiples of p^2 for p up to sqrt(hi-1); the value 0 counts as
    not square-free.
    """
    return _StrikePlan([(lo, 1, 2)], hi - lo, tables, hi - lo).flags(0, hi - lo)


def segmented_prime_sieve(lo: int, hi: int, tables: SieveTables) -> np.ndarray:
    """Boolean flags for [lo, hi): True where the value is prime."""
    return _StrikePlan([(lo, 1, 1)], hi - lo, tables, hi - lo).flags(0, hi - lo)


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
# classes at 256 KiB each: a scan piece of at most 2**18 lane entries takes
# at most eight chunks, and a scan's proper-power list (a few thousand
# values up to N = 10**9) takes one.
CLASS_SUM_TERMS = 1 << 15


# Class sums bin their values at the maximal moduli (each dividing no other
# in the set), grouped greedily into one binning while their lcm stays at
# most this: `compare`'s moduli 1..12 then take two binnings (mod 2,520 and
# 132) rather than six, and the estimator's default family (maximal moduli
# 12, 20, 28) one (mod 420) rather than three.  A binning's rows take 24
# bytes per class.
CLASS_BIN_LIMIT = 1 << 12


def _maximal(moduli: list) -> list:
    """The moduli that divide no other in the list, each once, in order."""
    return [m for m in dict.fromkeys(moduli) if all(o == m or o % m for o in moduli)]


def _fold(tables: dict, moduli) -> list[list]:
    """For each q in moduli, the rows of the first table in `tables` whose
    modulus q divides, folded to classes mod q: entry r gathers entries
    r, r + q, r + 2q, ... mod m.  tables maps a modulus m to an array of
    rows of m classes each, int64 (a piece's limb sums) or Python ints (a
    scan's totals), and each fold is exact in that type."""
    folded = []
    for q in moduli:
        rows = next(t for m, t in tables.items() if m % q == 0)
        folded.append(rows.reshape(len(rows), -1, q).sum(1).tolist())
    return folded


def exact_class_sums(numerators: np.ndarray, values: np.ndarray, moduli) -> list:
    """For each q in moduli, (counts, sums): counts[r] values are ≡ r
    (mod q), and sums[r] is the exact sum of their numerators, each below
    NUMERATOR_BOUND.

    Values are binned modulo the lcm of each group of maximal moduli (see
    CLASS_BIN_LIMIT), and each modulus is folded out of a binning whose
    modulus it divides.  Every binned entry is below len(values) * 2**32, so
    fewer than 2**31 values keep them in int64."""
    require_int64(len(values) << 32)
    moduli = list(moduli)
    binned = []
    for m in _maximal(moduli):
        if binned and math.lcm(binned[-1], m) <= CLASS_BIN_LIMIT:
            binned[-1] = math.lcm(binned[-1], m)
        else:
            binned.append(m)
    bins = {m: np.zeros((3, m), dtype=np.int64) for m in binned}
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
    return [
        (counts, [(h << 32) + l for h, l in zip(high, low)])
        for counts, high, low in _fold(bins, moduli)
    ]


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


# The most threads a count takes: each worker holds a row of length + 1 bytes
# (1 MiB at the default window), up to one per window (477 at 10**9 mod 1).
MAX_THREADS = 64


def scan_workers(threads: int, windows: int, length: int) -> int:
    """Workers for a scan of `windows` windows of `length` lane entries: at
    most `windows`, and one for windows shorter than MIN_THREADED_WINDOW."""
    if length < MIN_THREADED_WINDOW:
        return 1
    return max(1, min(threads, windows))


def _scan(count: int, sieve, reduce, threads: int, length: int) -> Iterator:
    """Yield reduce(lo, sieve(lo, hi)) for every window [lo, hi) of the lane
    indices [0, count), in order.

    Windows are `length` lane entries long (the length a _StrikePlan was
    built for) and run on up to `threads` workers (see scan_workers).
    """

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


# A window's hits are reduced in pieces of at most this many lane entries
# while its flag row lives; a scan of w workers reduces pieces of
# _PIECE // w entries, so the reduction's arrays do not grow with the thread
# count.  An odd lane carries about twice the hits per entry; a piece's hit
# arrays, a few hundred KiB, stay in cache, and whole-window ones made
# count_representations(120000000, 3, 7) take 0.036 s against 0.026 s
# (pieces of 2**17 to 2**19 gave 0.026-0.034 s).
_PIECE = 1 << 18

# _squarefree divides about this many (value, square) pairs per block.
_TRIAL_TERMS = 1 << 16


def _squarefree(values: np.ndarray, tables: SieveTables) -> np.ndarray:
    """Whether each m in values, 1 <= m <= tables.limit**2, is square-free:
    trial division by the squares of the base primes, vectorised over
    blocks of about _TRIAL_TERMS pairs."""
    top = int(values.max(initial=1))
    squares = _base_primes(math.isqrt(top), tables).astype(np.int64) ** 2
    keep = np.empty(values.size, dtype=bool)
    block = max(1, _TRIAL_TERMS // max(squares.size, 1))
    for start in range(0, values.size, block):
        chunk = values[start : start + block, None] % squares
        keep[start : start + block] = chunk.all(axis=1)
    return keep


def _proper_powers(
    top: int, residue: int, modulus: int, tables: SieveTables, mirror: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """The proper prime powers n = p^k <= top (k >= 2) with n ≡ residue
    (mod modulus), in increasing order, and the numerators of their log p;
    with a mirror, only those with mirror - n square-free.  The class is
    filtered in Python ints, which take any modulus."""
    found = []
    for p in _base_primes(math.isqrt(top), tables).tolist():
        v = p * p
        while v <= top:
            if (v - residue) % modulus == 0:
                found.append((v, p))
            v *= p
    values, primes = np.array(sorted(found), dtype=np.int64).reshape(-1, 2).T
    if mirror is not None:
        keep = _squarefree(mirror - values, tables)
        values, primes = values[keep], primes[keep]
    return values, log_numerators(primes)


def _log_scan(
    top: int,
    residue: int,
    modulus: int,
    tables: SieveTables,
    reduce,
    threads: int = 1,
    mirror: int | None = None,
) -> Iterator:
    """reduce(hits, numerators) over the primes p <= top with p ≡ residue
    (mod modulus): first once for the even head, then once per piece of
    each window of the odd lane, in order.  hits are the primes and
    numerators those of log p.  With a mirror, only p with mirror - p
    square-free are hits.  The proper prime powers are no hits:
    _proper_powers lists them.

    The prime 2 strikes every even n but 2 itself, so the lane holds only
    the odd members of the class, n ≡ r (mod lcm(2, modulus)); the even
    head is the prime 2, if the class holds it, checked directly.
    """
    step = modulus if modulus % 2 == 0 else 2 * modulus
    # the odd members of the class; an even modulus and residue have none
    odd = residue if residue % 2 else residue + modulus
    first = 3 + (odd - 3) % step
    count = (top - first) // step + 1 if odd % 2 else 0
    two = top >= 2 and (2 - residue) % modulus == 0
    head = np.array([2] if two else [], dtype=np.int64)
    if mirror is not None:
        head = head[_squarefree(mirror - head, tables)]
    leading = reduce(head, log_numerators(head))
    if count < 1:
        return iter((leading,))
    # one value has no step; 1 keeps any modulus out of int64 products
    step = step if count > 1 else 1
    lanes = [(first, step, 1)]
    if mirror is not None:
        lanes.append((mirror - first, -step, 2))
    length = min(window_length(), count)
    plan = _StrikePlan(lanes, count, tables, length)
    piece_length = _PIECE // scan_workers(threads, -(-count // length), length)

    def piece(at: int, flags: np.ndarray):
        """reduce over the piece of flags at lane index `at`; its arrays
        are freed on return, before the next piece allocates its own."""
        hits = flags.nonzero()[0]
        hits *= step
        hits += first + step * at
        return reduce(hits, log_numerators(hits))

    def window(lo: int, flags: np.ndarray) -> list:
        """piece over each run of at most piece_length entries, in order."""
        return [
            piece(lo + start, flags[start : start + piece_length])
            for start in range(0, flags.size, piece_length)
        ]

    windows = _scan(count, plan.flags, window, threads, length)
    return chain((leading,), chain.from_iterable(windows))


def _progression_sums(
    top, residue, modulus, moduli: list, tables, threads, mirror, squares=False
) -> tuple[list, int]:
    """Over the prime powers n = p^k <= top with n ≡ residue (mod modulus),
    and with mirror - n square-free if there is a mirror: for each q in
    moduli the rows (hits, primes, powers) of q Python ints each, hits[r]
    the count of primes n ≡ r (mod q), primes[r] and powers[r] the exact
    numerator sums of log p over those primes and over the proper powers;
    and the exact sum of all squared numerators if `squares`, else 0."""
    target, least = (top, 1) if mirror is None else (mirror, 3)
    if target < least:
        raise ValueError(f"target must be at least {least}")
    if modulus < 1 or threads < 1 or any(q < 1 for q in moduli):
        raise ValueError("every modulus and the thread count must be positive")
    if threads > MAX_THREADS:
        raise ValueError(f"{threads} threads is above the cap {MAX_THREADS}")
    _check_window(0, target + 1, tables)
    maximal = _maximal(moduli)
    plain = maximal == [1]

    def piece(values, nums) -> list:
        """The piece's class counts and then its numerator sums at each
        maximal modulus in turn, and last its squared numerators, flat."""
        if plain:
            flat = [values.size, exact_sum(nums)]
        else:
            rows = chain.from_iterable(exact_class_sums(nums, values, maximal))
            flat = list(chain.from_iterable(rows))
        flat.append(square_sum(nums) if squares else 0)
        return flat

    sums = [0] * (2 * sum(maximal) + 1)
    for part in _log_scan(top, residue, modulus, tables, piece, threads, mirror):
        sums = list(map(add, sums, part))
    powers = piece(*_proper_powers(top, residue, modulus, tables, mirror))
    rows, at = {}, 0
    for m in maximal:
        hits, primes = sums[at : at + m], sums[at + m : at + 2 * m]
        rows[m] = np.array([hits, primes, powers[at + m : at + 2 * m]], dtype=object)
        at += 2 * m
    return _fold(rows, moduli), sums[-1] + powers[-1]


def count_representations(
    target: int, residue: int, modulus: int, tables: SieveTables, threads: int = 1
) -> CountResult:
    """Sum mu^2(target - p) log p over primes p ≡ residue (mod modulus),
    2 <= p <= target - 1, in natural logs.

    lambda_weighted additionally admits proper prime powers n <= target in
    the progression (still damped by mu^2(target - n)); target - n = 0 is
    not square-free, so n = target never contributes.
    """
    residue = require_unit(residue, modulus)
    (((hits,), (primes,), (powers,)),), _ = _progression_sums(
        target - 1, residue, modulus, [1], tables, threads, mirror=target
    )
    return CountResult(hits, primes, powers)


def count_classes(
    target: int, moduli, tables: SieveTables, threads: int = 1
) -> dict[tuple[int, int], CountResult]:
    """count_representations for every unit class a mod q and every q in
    moduli, keyed (q, a) in the order of moduli and then of a, from one
    scan of [2, target) on modulus 1 (_progression_sums)."""
    moduli = list(dict.fromkeys(moduli))
    rows, _ = _progression_sums(target - 1, 0, 1, moduli, tables, threads, target)
    return {
        (q, a): CountResult(hits[a], primes[a], powers[a])
        for q, (hits, primes, powers) in zip(moduli, rows)
        for a in range(q)
        if math.gcd(a, q) == 1
    }


def squarefree_count_in_ap(
    target: int, residue: int, modulus: int, tables: SieveTables, threads: int = 1
) -> int:
    """Count n in [1, target] with n ≡ residue (mod modulus) and
    target - n square-free (so n = target drops out via mu^2(0) = 0)."""
    if modulus < 1 or target < 1 or threads < 1:
        raise ValueError("target, modulus and threads must be positive")
    if threads > MAX_THREADS:
        raise ValueError(f"{threads} threads is above the cap {MAX_THREADS}")
    # Count over m = target - n instead: the lane m ≡ target - residue in
    # [0, target).
    first = (target - residue) % modulus
    count = -(-(target - first) // modulus)
    if count < 1:
        return 0
    length = min(window_length(), count)
    plan = _StrikePlan([(first, modulus, 2)], count, tables, length)

    def window(_lo: int, flags: np.ndarray) -> int:
        return int(np.count_nonzero(flags))

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
    rows, squares = _progression_sums(
        target, residue, modulus, list(moduli), tables, threads, None, squares=True
    )
    return [list(map(add, primes, powers)) for _, primes, powers in rows], squares


# squarefree_class_counts handles about this many (d, c) terms per block,
# so its transient arrays stay near 1 MiB each whatever the modulus.
_COUNTER_BLOCK = 1 << 17


def squarefree_class_counts(top: int, moduli, tables: SieveTables) -> list[list[int]]:
    """For each q in moduli, counts[r] is the number of square-free m in
    [1, top] with m ≡ r (mod q), with no sieve.

    m is square-free exactly when sum over d^2 | m of mu(d) is 1, so
    counts[r] = sum over square-free d <= sqrt(top) of mu(d) times the
    number of k in [1, top // d^2] with d^2 k ≡ r: for each c in [1, q],
    (top // d^2 - c) // q + 1 values of k ≡ c land on r = d^2 c mod q.
    That is exact integer arithmetic over the Moebius table, vectorised over
    d in blocks of about _COUNTER_BLOCK terms, for each maximal q of the
    list; the others are folded out of those (`_fold`).  Every term is
    below top in magnitude, and so is every partial sum, since the sum of
    top / d^2 over d >= 1 is below 2 top."""
    moduli = list(moduli)
    if top < 0 or any(q < 1 for q in moduli):
        raise ValueError("top must be non-negative and every modulus positive")
    _check_window(0, top + 1, tables)
    mu = tables.mobius[: math.isqrt(top) + 1]
    roots = np.flatnonzero(mu).astype(np.int64)
    counted = {}
    for modulus in _maximal(moduli):
        require_int64(2 * top + modulus * modulus)
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
        counted[modulus] = counts[None]
    return [counts for (counts,) in _fold(counted, moduli)]
