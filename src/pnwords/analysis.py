"""Verifiers and statistics over prefix normal word listings.

Includes the Gray-closeness checker, exhaustive critical-prefix sums,
prefix-normal-form equivalence classes, sampled critical prefixes of
prefix normal forms, and the rejection-rate table for the two-phase
membership tester's linear phase.  Exhaustive 2^n scans are vectorized
with numpy and refuse to run above a configurable cap.
"""

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import log2

import numpy as np

from . import core
from .pnoracle import generate_all_pn

DEFAULT_EXHAUSTIVE_CAP = 20
_CHUNK = 1 << 20


# ---------------------------------------------------------------------------
# Gray code verification

@dataclass(frozen=True)
class GrayViolation:
    index: int  # position of the first word of the offending pair
    word: str
    next_word: str
    p: int  # positions changing 1 -> 0
    q: int  # positions changing 0 -> 1


@dataclass
class GrayReport:
    pairs: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def transposition_counts(u: str, v: str) -> tuple[int, int]:
    """(p, q) = number of positions going 1->0 and 0->1 between u and v."""
    if len(u) != len(v):
        raise ValueError("words must have equal length")
    a = int(u, 2) if u else 0
    b = int(v, 2) if v else 0
    return (a & ~b).bit_count(), (b & ~a).bit_count()


def gray_close(p: int, q: int) -> bool:
    """At most two operations, each a swap (one 1->0 plus one 0->1) or a
    single bit flip: two swaps, a swap and a flip, or two flips."""
    dw = q - p
    if dw == 0:
        return p <= 2
    if dw in (1, -1):
        return min(p, q) <= 1
    if dw in (2, -2):
        return min(p, q) == 0
    return False


class GrayChecker:
    """Streaming checker; feed words one at a time, then finish().

    Each word is parsed to an int once.  A pair that differs in at most
    two positions has p + q <= 2 and is always close, so (p, q) is
    counted only for the other pairs.
    """

    def __init__(self, cyclic: bool = False):
        self.cyclic = cyclic
        self.report = GrayReport()
        self._first = None
        self._prev = None  # (word, int value) of the last word fed
        self._index = 0

    def feed(self, word: str) -> None:
        b = int(word, 2) if word else 0
        if self._prev is None:
            self._first = word
        else:
            u, a = self._prev
            if len(u) != len(word):
                raise ValueError("words must have equal length")
            self.report.pairs += 1
            d = a ^ b
            if d.bit_count() > 2:
                p, q = (a & d).bit_count(), (b & d).bit_count()
                if not gray_close(p, q):
                    self.report.violations.append(
                        GrayViolation(self._index - 1, u, word, p, q))
        self._prev = word, b
        self._index += 1

    def finish(self) -> GrayReport:
        if self.cyclic and self._index > 1:
            self.feed(self._first)  # the wrap-around pair (last, first)
        return self.report


def verify_gray(words, cyclic: bool = False) -> GrayReport:
    """Check every consecutive pair of the listing (plus the wrap-around
    pair when cyclic) against the Gray closeness relation."""
    checker = GrayChecker(cyclic=cyclic)
    for w in words:
        checker.feed(w)
    return checker.finish()


# ---------------------------------------------------------------------------
# Counting and critical prefix statistics

def count_pnw(n: int) -> int:
    """Number of prefix normal words of length n (counting sink over the
    Gray code generator)."""
    return generate_all_pn(n).count


def pnw_deficit(n: int) -> tuple[int, float]:
    """(pnw(n), n - log2(pnw(n))) - how far the count falls short of 2^n."""
    count = count_pnw(n)
    return count, n - log2(count)


@dataclass(frozen=True)
class CrStats:
    """Critical prefix length statistics over some word population."""

    n: int
    population: str
    count: int
    total: int
    mean: Fraction


_BL16 = None


def _bl16():
    global _BL16
    if _BL16 is None:
        table = np.zeros(1 << 16, dtype=np.int64)
        for k in range(1, 17):
            table[1 << (k - 1):1 << k] = k
        _BL16 = table
    return _BL16


def _bit_length(a):
    # exact bit lengths for int64 values < 2**32
    table = _bl16()
    lo = table[a & 0xFFFF]
    hi = a >> 16
    return np.where(hi > 0, table[hi] + 16, lo)


_SCAN_LIMIT = 30  # the vectorized kernels index a 16-bit lookup table


def _check_cap(n, cap):
    if n > min(cap, _SCAN_LIMIT):
        if n > _SCAN_LIMIT:
            raise ValueError(f"exhaustive scans support n <= {_SCAN_LIMIT}")
        raise ValueError(
            f"n={n} above the exhaustive cap {cap}; raise cap= explicitly "
            f"to scan all 2^{n} words")


def _chunks(n):
    total = 1 << n
    for lo in range(0, total, _CHUNK):
        yield lo, min(lo + _CHUNK, total)


def _map_chunks(kernel, n, jobs):
    spans = list(_chunks(n))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return sum(pool.map(lambda span: kernel(*span), spans))
    return sum(kernel(lo, hi) for lo, hi in spans)


def _cr_sum_chunk(n, lo, hi):
    x = np.arange(lo, hi, dtype=np.int64)
    mask = (1 << n) - 1
    s = n - _bit_length(~x & mask)  # leading 1-run
    rest = (x << s) & mask
    t = np.minimum(n - _bit_length(rest), n - s)  # first 0-run (all-ones word: t=0)
    return int((s + t).sum())


def critical_prefix_sum(n: int, *, cap: int = DEFAULT_EXHAUSTIVE_CAP,
                        jobs: int = 1) -> int:
    """Sum of the critical prefix length over all 2^n words of length n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_cap(n, cap)
    if n == 0:
        return 0
    return _map_chunks(lambda lo, hi: _cr_sum_chunk(n, lo, hi), n, jobs)


def cr_stats_all_words(n: int, *, cap: int = DEFAULT_EXHAUSTIVE_CAP,
                       jobs: int = 1) -> CrStats:
    total = critical_prefix_sum(n, cap=cap, jobs=jobs)
    return CrStats(n, "all-words", 1 << n, total, Fraction(total, 1 << n))


def avg_cr_pn(n: int) -> Fraction:
    """Mean critical prefix length over the prefix normal words of length
    n, accumulated while generating (no listing is stored)."""
    return generate_all_pn(n).avg_cr


def cr_stats_pn(n: int) -> CrStats:
    stats = generate_all_pn(n)
    return CrStats(n, "prefix-normal", stats.count, stats.cr_sum, stats.avg_cr)


def critical_prefix_of_pnf(w: str) -> int:
    """cr(pnf(w)) in linear time.

    The prefix normal form starts with a 1-run equal to the longest 1-run
    r of w; its first 0-run ends one short of the shortest window of w
    containing r+1 ones (or runs to the end when the weight is r).
    """
    n = len(w)
    if n == 0:
        raise ValueError("empty word has no critical prefix")
    ones = core.positions(w)
    longest = run = 0
    for c in w:
        run = run + 1 if c == "1" else 0
        if run > longest:
            longest = run
    if len(ones) == longest:  # covers the all-zero word as well
        return n
    return core.shortest_window(ones, longest + 1) - 1


def pnf_cr_sample(n: int, samples: int, seed: int) -> CrStats:
    """Mean critical prefix length of the prefix normal forms of uniformly
    random length-n words; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("n must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    total = 0
    for _ in range(samples):
        total += critical_prefix_of_pnf(format(rng.getrandbits(n), f"0{n}b"))
    return CrStats(n, f"pnf-of-random(seed={seed})", samples, total,
                   Fraction(total, samples))


# ---------------------------------------------------------------------------
# Equivalence classes

def equivalence_class(w: str, *, cap: int = DEFAULT_EXHAUSTIVE_CAP) -> set[str]:
    """All words of the same length whose prefix normal form is w, by
    exhaustive enumeration (practical for small lengths only)."""
    if not core.is_prefix_normal(w):
        raise ValueError(f"{w!r} is not prefix normal")
    n = len(w)
    _check_cap(n, cap)
    if n == 0:
        return {""}
    members = set()
    for x in range(1 << n):
        v = format(x, f"0{n}b")
        if core.pnf(v) == w:
            members.add(v)
    return members


# ---------------------------------------------------------------------------
# Rejection ratios for the linear membership phase

@dataclass(frozen=True)
class RatioReport:
    n: int
    mode: str
    rejected: int  # words rejected by the linear phase
    passed: int  # words falling through to the quadratic phase
    ratio: str  # n * passed / 2^n, three decimals, half-even

    def csv(self) -> str:
        return f"{self.n},{self.rejected},{self.passed},{self.ratio}"


def _round3(num: int, den: int) -> str:
    """num/den to three decimals with half-even rounding, exactly."""
    scaled, rem = divmod(1000 * num, den)
    if 2 * rem > den or (2 * rem == den and scaled % 2 == 1):
        scaled += 1
    return f"{scaled // 1000}.{scaled % 1000:03d}"


def _phase1_chunk(n, lo, hi, combined):
    # Peel run-length blocks of every word in [lo, hi) in lockstep; words
    # stay left-aligned in an n-bit register so run lengths come from bit
    # lengths.  Exhausted words degenerate to zero-length runs.
    x = np.arange(lo, hi, dtype=np.int64)
    mask = (1 << n) - 1
    y = x.copy()
    rem = np.full(x.shape, n, dtype=np.int64)
    rejected = np.zeros(x.shape, dtype=bool)
    first = True
    s1 = t1 = prev_s = prev_t = None
    while True:
        live = rem > 0
        if not live.any():
            break
        s = n - _bit_length(~y & mask)
        y = (y << s) & mask
        rem = rem - s
        t = np.minimum(n - _bit_length(y), rem)
        y = (y << t) & mask
        rem = rem - t
        if first:
            s1, t1 = s, t
            prev_s, prev_t = s, t
            first = False
        else:
            blk = live & (s > 0)
            bad = s > s1
            if combined:
                bad = bad | ((prev_s + prev_t + s <= s1 + t1) & (prev_s + s > s1))
            rejected |= blk & bad
            prev_s = np.where(blk, s, prev_s)
            prev_t = np.where(blk, t, prev_t)
    return int(np.count_nonzero(rejected))


def rejection_ratio(n: int, mode: str = "combined", *,
                    cap: int = DEFAULT_EXHAUSTIVE_CAP,
                    jobs: int = 1) -> RatioReport:
    """Exhaustively count length-n words rejected by the linear phase.

    ``trivial`` applies only the longest-1-run-must-be-a-prefix test;
    ``combined`` adds the adjacent-block test.  The reported ratio is
    n * passed / 2^n in exact integer arithmetic.
    """
    if mode not in ("trivial", "combined"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError("n must be positive")
    _check_cap(n, cap)
    combined = mode == "combined"
    rejected = _map_chunks(lambda lo, hi: _phase1_chunk(n, lo, hi, combined),
                           n, jobs)
    passed = (1 << n) - rejected
    return RatioReport(n, mode, rejected, passed, _round3(n * passed, 1 << n))
