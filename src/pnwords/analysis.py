"""Verifiers and statistics over prefix normal word listings.

Includes the Gray-closeness checker (close: at most two positions go 1->0
and at most two go 0->1), which reads listing bytes (``feed_bytes``) and
checks each run of whole lines in a few big-int operations, exhaustive
critical-prefix sums, prefix-normal-form equivalence classes, sampled
critical prefixes of prefix normal forms, and the rejection-rate table
for the two-phase membership tester's linear phase.  Exhaustive 2^n
scans run numpy kernels over chunks of 2^16 words held in uint32, on a
thread pool of at most one thread per core, and refuse to run above a
configurable cap.  numpy and the pool are imported only when a scan
runs, so the other commands and ``import pnwords`` do not load them.
"""

import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import log2

from . import core
from .pnoracle import _cores, generate_all_pn

DEFAULT_EXHAUSTIVE_CAP = 20
_CHUNK = 1 << 16  # words per kernel call: a uint32 temporary is 256 KiB


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
    words: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def transposition_counts(u: str, v: str) -> tuple[int, int]:
    """(p, q) = number of positions going 1->0 and 0->1 between u and v."""
    if len(u) != len(v):
        raise ValueError("words must have equal length")
    a = int(core._check_word(u), 2) if u else 0
    b = int(core._check_word(v), 2) if v else 0
    return (a & ~b).bit_count(), (b & ~a).bit_count()


def gray_close(p: int, q: int) -> bool:
    """Do at most two swaps (one 1->0 plus one 0->1) or bit flips make p
    1->0 and q 0->1 changes?  The fewest such operations is max(p, q):
    pair min(p, q) of the changes into swaps and flip the rest."""
    return p <= 2 and q <= 2


# A line's changed positions are summed in one byte lane, which holds n <= 255.
_LANE_MAX = 255
_CLOSE_LANES = bytes(range(3))  # p or q of a close pair


def _lanes_close(block, w):
    """Is every pair of consecutive lines of block close?  block is k >= 2
    whole lines of w - 1 <= _LANE_MAX bytes b"0"/b"1" and a b"\n".

    Byte i of block is digit i of x, and x >> 8w puts the next line's
    bytes under each line's.  Each digit of d = x ^ b is 1 where the pair
    differs (newlines cancel), so digits of x & d mark 1 -> 0 changes and
    digits of b & d mark 0 -> 1 changes.  Times r = 1 + 256 + ... +
    256^(w-1), digit j sums the w digits up to j; each such window holds
    at most w - 1 <= 255 changes, so no digit carries, and the digit in a
    line's newline column is that line's p (or q).  The last line has no
    next line: x & d keeps its raw bytes, whose sums carry only upward,
    above the k - 1 digits read."""
    x = int.from_bytes(block, "little")
    b = x >> 8 * w
    d = x ^ b
    r = int.from_bytes(b"\x01" * w, "little")
    size, lanes = len(block) + w, slice(w - 1, len(block) - w, w)
    return not any(
        (m * r).to_bytes(size, "little")[lanes].translate(None, _CLOSE_LANES)
        for m in (x & d, b & d))


class GrayChecker:
    """Streaming checker; feed words one at a time, whole lines with
    feed_block or listing bytes with feed_bytes, then finish().

    Each word is parsed to an int once.  A pair that differs in at most
    two positions has p + q <= 2 and is always close, so (p, q) is
    counted only for the other pairs.  finish() sets ``words`` and ``pairs``.
    """

    def __init__(self, cyclic: bool = False):
        self.cyclic = cyclic
        self.report = GrayReport()
        self._first = None
        self._prev = None  # (word, int value) of the last word fed
        self._index = 0
        self._wrapped = False
        self._rest = []  # pieces of a line feed_bytes has not seen the end of

    def feed(self, word: str) -> None:
        """Check word against the last word fed.  Callers must pass 0/1
        text: feed does not validate, and ``int(word, 2)`` takes '0b1'."""
        b = int(word, 2) if word else 0
        if self._prev is None:
            self._first = word
        else:
            u, a = self._prev
            if len(u) != len(word):
                raise ValueError("words must have equal length")
            d = a ^ b
            if d.bit_count() > 2:
                p, q = (a & d).bit_count(), (b & d).bit_count()
                if not gray_close(p, q):
                    self.report.violations.append(
                        GrayViolation(self._index - 1, u, word, p, q))
        self._prev = word, b
        self._index += 1

    def feed_block(self, block: bytes) -> int:
        """Feed every line of block and return how many were fed, or feed
        nothing and return 0 when block is not a run of whole lines of
        0/1 bytes, each ending in b"\n", with the width of the words fed
        so far and n <= 255.  The caller then feeds its lines one at a
        time, which names a bad line.  Checker state and report are those
        of feeding each line's word."""
        w = block.find(b"\n") + 1
        k = len(block) // w if w else 0
        newlines = b"\n" * k
        if (not 1 < w <= _LANE_MAX + 1 or len(block) != k * w
                or block[w - 1::w] != newlines or block.translate(None, b"01") != newlines
                or self._prev is not None and len(self._prev[0]) != w - 1):
            return 0
        self.feed(block[:w - 1].decode())  # the pair across the block boundary
        if k > 1:
            if _lanes_close(block, w):
                last = block[-w:-1].decode()
                self._prev = last, int(last, 2)
                self._index += k - 1
            else:  # find the violations one pair at a time
                for word in block[w:-1].decode().split("\n"):
                    self.feed(word)
        return k

    def feed_bytes(self, data: bytes) -> None:
        """Feed listing text, one word per line (LF or CRLF), cut at any
        point.  Each run of whole lines goes to feed_block, and a run it
        refuses line by line: a bad line raises ValueError with its line
        number.  A last line without a newline waits for finish()."""
        cut = data.rfind(b"\n") + 1
        if cut:  # a line cut into many pieces is joined once: linear time
            block = b"".join([*self._rest, data[:cut]])
            self._rest = []
            if not self.feed_block(block):
                for line in io.BytesIO(block):
                    self._feed_line(line)
        self._rest.append(data[cut:])

    def _feed_line(self, line: bytes) -> None:
        try:
            word = core.parse_word(line.decode())  # feed's int(word, 2) takes "0b01"
            if not word:
                raise ValueError("blank line")
            self.feed(word)
        except ValueError as exc:
            raise ValueError(f"line {self._index + 1}: {exc}") from exc

    def finish(self) -> GrayReport:
        """The report, after feeding a last line feed_bytes holds; a later
        call returns it again without a second wrap-around pair."""
        if last := b"".join(self._rest):
            self._rest = []
            self._feed_line(last)
        if self.cyclic and self._index > 1 and not self._wrapped:
            self.feed(self._first)  # the wrap-around pair (last, first)
            self._wrapped = True
        self.report.words = self._index - self._wrapped
        self.report.pairs = max(self._index - 1, 0)
        return self.report


def verify_gray(words, cyclic: bool = False) -> GrayReport:
    """Check every consecutive pair of the listing (plus the wrap-around
    pair when cyclic) against the Gray closeness relation."""
    checker = GrayChecker(cyclic=cyclic)
    for w in words:
        checker.feed(core._check_word(w))
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


def _bit_length(a):
    # exact bit lengths of the uint32 values in a: frexp converts them to
    # float64 without rounding, and a = m * 2**e with 0.5 <= m < 1 (frexp(0)
    # gives e = 0); e >= 0, so its int32 bits read as uint32 unchanged
    import numpy as np
    return np.frexp(a)[1].view(np.uint32)


# The kernels hold each word in a uint32 register.  For n <= 30 the word,
# its n-bit mask and every shift count (at most n) fit; a left shift drops
# the bits carried past bit 31, and ``& mask`` keeps the n low bits, which
# that drop never reaches.
_SCAN_LIMIT = 30


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
    workers = min(jobs, len(spans), _cores())
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(lambda span: kernel(*span), spans))
    return sum(kernel(lo, hi) for lo, hi in spans)


def _peel_block(n, y, rem):
    # Split the leading block 1^s 0^t off words y that are left-aligned in
    # an n-bit register with rem bits left; return (y, rem, s, t) after it.
    # A word with no bits left reads as s = t = 0.
    import numpy as np
    mask = (1 << n) - 1
    s = n - _bit_length(y ^ mask)
    y = (y << s) & mask
    rem = rem - s
    t = np.minimum(n - _bit_length(y), rem)
    return (y << t) & mask, rem - t, s, t


def _cr_sum_chunk(n, lo, hi):
    import numpy as np
    _, _, s, t = _peel_block(n, np.arange(lo, hi, dtype=np.uint32), n)
    return int(s.sum(dtype=np.int64) + t.sum(dtype=np.int64))


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
    ones = core.positions(core._check_word(w))
    longest = max(map(len, w.split("0")))
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
        if core._pnf(v) == w:
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
    # Peel the blocks of every word in [lo, hi) in lockstep.  After each
    # round only the words that have bits left and are not rejected are
    # kept; each of them resumes with a 1, so every round peels one whole
    # block of every kept word.  Words used up by their first block enter
    # one round as s = t = 0, which no test rejects, and are dropped.
    import numpy as np
    y, rem, s1, t1 = _peel_block(n, np.arange(lo, hi, dtype=np.uint32), n)
    cr, prev_s, prev_t = s1 + t1, s1, t1
    rejected = 0
    while len(y):
        y, rem, s, t = _peel_block(n, y, rem)
        bad = s > s1
        if combined:
            bad |= (prev_s + prev_t + s <= cr) & (prev_s + s > s1)
        rejected += int(np.count_nonzero(bad))
        keep = (rem > 0) & ~bad
        y, rem, s1 = y[keep], rem[keep], s1[keep]
        if combined:
            cr, prev_s, prev_t = cr[keep], s[keep], t[keep]
    return rejected


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
