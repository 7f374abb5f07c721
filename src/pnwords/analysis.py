"""Verifiers and statistics over prefix normal word listings.

Includes the Gray-closeness checker (close: at most two positions go 1->0
and at most two go 0->1), which reads listing bytes (``feed_bytes``) and
checks each run of whole lines as bit lanes of one integer, any width,
critical-prefix sums, prefix-normal-form equivalence classes, sampled
critical prefixes of prefix normal forms, and the rejection-rate table
for the two-phase membership tester's linear phase.  The sum over all
2^n words is a closed form; the rejection table counts words with
bounded 1-runs in trivial mode and, in combined mode, runs a dynamic
program over run-length blocks, one table per first 1-run; only
``equivalence_class`` enumerates the 2^n words.  All three refuse n
above a cap (``_check_cap``), and only ``equivalence_class`` refuses
n > 30 under any cap; the two counts accept a ``jobs`` that has no
effect.
"""

import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import log2
from operator import add

from . import core
from .pnoracle import count_all_pn

DEFAULT_EXHAUSTIVE_CAP = 20


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


_NEWLINE_TO_0 = bytes.maketrans(b"\n", b"0")


@lru_cache(maxsize=8)  # a stream's blocks take two or three line counts
def _lane_bits(w, k):  # mask of lanes 1..k-1 of k w-bit lanes, G (their bit 0s), 2G
    g = ((1 << w * k) - (1 << w)) // ((1 << w) - 1)
    return (1 << w * k) - (1 << w), g, g << 1


def _lanes_close(block, w):
    """Is every pair of consecutive lines of block close?  block is k >= 1
    whole lines of w - 1 bytes b"0"/b"1" and a b"\n".

    Read in base 2 with newlines as 0, line j is lane k - 1 - j (w bits) of
    x; y = x << w puts its next line under it, and in lanes 1..k-1, x & d
    and y & d hold the 1 -> 0 and 0 -> 1 changes.  m & m - 2G | G, with a
    guard G at each lane's bit 0, clears every lane's lowest change: a lane
    with none borrows from the guard above, so lanes never carry."""
    x = int(block.translate(_NEWLINE_TO_0), 2)
    y = x << w
    mask, g, g2 = _lane_bits(w, len(block) // w)
    d = (x ^ y) & mask
    for m in (x & d | g, y & d | g):
        m = m & m - g2 | g
        if m & m - g2 | g != g:  # a change is left after two rounds: p (or q) > 2
            return False
    return True


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
        so far.  The caller then feeds its lines one at a time, which
        names a bad line.  State and report are those of feeding each line."""
        w = block.find(b"\n") + 1
        k = len(block) // w if w else 0
        newlines = b"\n" * k
        if (w < 2 or len(block) != k * w
                or block[w - 1::w] != newlines or block.translate(None, b"01") != newlines
                or self._prev is not None and len(self._prev[0]) != w - 1):
            return 0
        self.feed(block[:w - 1].decode())  # the pair across the block boundary
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
    """Number of prefix normal words of length n (the Gray code walker,
    counting with its subtree memo)."""
    return count_all_pn(n).count


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


# The largest n that ``equivalence_class``, which enumerates all 2^n
# words, accepts whatever the cap.  The two counts take any n under an
# explicit cap.
_SCAN_LIMIT = 30


def _check_cap(n, cap):
    if n > cap:
        raise ValueError(
            f"n={n} above the exhaustive cap {cap}; raise cap= explicitly "
            f"to cover all 2^{n} words")


def critical_prefix_sum(n: int, *, cap: int = DEFAULT_EXHAUSTIVE_CAP,
                        jobs: int = 1) -> int:
    """Sum of the critical prefix length over all 2^n words of length n:
    3 * 2^n - (n + 3) for n >= 1.  ``jobs`` is accepted and unused."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_cap(n, cap)
    return 3 * (1 << n) - (n + 3) if n else 0


def cr_stats_all_words(n: int, *, cap: int = DEFAULT_EXHAUSTIVE_CAP,
                       jobs: int = 1) -> CrStats:
    total = critical_prefix_sum(n, cap=cap, jobs=jobs)
    return CrStats(n, "all-words", 1 << n, total, Fraction(total, 1 << n))


def cr_stats_pn(n: int) -> CrStats:
    stats = count_all_pn(n)
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
    if n > _SCAN_LIMIT:
        raise ValueError(f"exhaustive scans support n <= {_SCAN_LIMIT}")
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


def _completions(s1, t1, r_max, rows=None):
    """Rows 0..r_max of the table for first block (s1, t1), as four lists:
    A[r], the ways to complete r symbols so that the linear phase passes
    every block after a block (ps, pt) with pt >= t1; CA, its prefix sums;
    S[r][k], the ways whose first block is 1^s with s <= k (k = 0..s1, so
    S[r][s1] = A[r] for r >= 1); and C[r][k], the sum of S[0..r][k].
    ``rows`` holds rows to extend, in place.

    A next block (s, t) needs 1 <= s <= s1, and t = 0 only at the end.  It
    must also avoid s1 - ps < s <= s1 + t1 - ps - pt,
    which is empty when pt >= t1.  After 1^s 0^t, d - t symbols are left
    (d = r - s): for t >= t1 the ways are A, summed in CA; for t <= t1 - s
    the interval covers every s' > s1 - s, so the ways are
    S[d - t][s1 - s], summed in C; only the t in between read S directly.
    In a row r <= s1 + t1 the interval's top, s1 + t1 - s - t, is at least
    d - t, so after any 1^s 0^t only the s' <= s1 - s fit, whatever t1 is:
    the row is the same for every t1 >= r - s1, and t1 = n gives the rows
    that every first block with this s1 shares.
    """
    A, CA, S, C = rows or ([1], [1], [[0] * (s1 + 1)], [[0] * (s1 + 1)])
    c1 = s1 + t1
    for r in range(len(A), r_max + 1):
        row = [0]
        for s in range(1, s1 + 1):
            d, k = r - s, s1 - s
            p = d == 0
            if d > 0:
                m = max(min(t1 - s, d - 1), 0)  # t = 1..m leave s' <= k
                p = (CA[d - t1] if d >= t1 else 1) + C[d - 1][k] - C[d - 1 - m][k]
                for t in range(m + 1, min(t1, d)):
                    q = S[d - t]
                    p += q[s1] - q[c1 - s - t] + q[k]
            row.append(row[-1] + p)
        S.append(row)
        A.append(row[-1])
        CA.append(CA[-1] + row[-1])
        C.append(list(map(add, C[-1], row)))
    return A, CA, S, C


def _runs_at_most(k, r):
    """B_k(r), the binary words of length r with no 1-run longer than k:
    1^r if r <= k, or 1^j 0 (j <= k) and one of the last k + 1 counts."""
    counts, window = [1], 1
    for i in range(1, r + 1):
        counts.append(window + (i <= k))
        window += counts[i] - (counts[i - k - 1] if i > k else 0)
    return counts[r]


def rejection_ratio(n: int, mode: str = "combined", *,
                    cap: int = DEFAULT_EXHAUSTIVE_CAP,
                    jobs: int = 1) -> RatioReport:
    """Count the length-n words rejected by the linear phase.

    ``trivial`` applies only the longest-1-run-must-be-a-prefix test;
    ``combined`` adds the adjacent-block test.  The words that pass are
    counted by first block (s1, t1), not listed: the n + 1 words
    1^s 0^(n-s) are one block and always pass, and a word that starts
    with 0 and holds a 1 never does.  Trivial mode sums ``_runs_at_most``;
    combined mode reads the n - s1 - t1 symbols after (s1, t1) from one
    ``_completions`` table per s1, shared up to row s1 + t1; a copy is
    extended past it only when s1 + t1 < n / 2.  The reported ratio is
    n * passed / 2^n in exact integer arithmetic.  ``jobs`` is accepted
    and unused.
    """
    if mode not in ("trivial", "combined"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError("n must be positive")
    _check_cap(n, cap)
    passed = n + 1
    for s1 in range(1, n - 1):
        if mode == "trivial":
            # each 1^s1 0^t1 has B(r) - B(r - 1) rests of length r >= 1, all
            # starting with 1: over t1 the sum telescopes to B(n - s1 - 1) - 1
            passed += _runs_at_most(s1, n - s1 - 1) - 1
            continue
        shared = _completions(s1, n, min(n // 2, n - s1 - 1))
        for t1 in range(1, n - s1):
            c1, r = s1 + t1, n - s1 - t1
            passed += shared[0][r] if r <= c1 else _completions(
                s1, t1, r, [rows[:c1 + 1] for rows in shared])[0][-1]
    rejected = (1 << n) - passed
    return RatioReport(n, mode, rejected, passed, _round3(n * passed, 1 << n))
