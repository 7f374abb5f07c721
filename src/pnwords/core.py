"""Binary words, prefix/max-ones tables and prefix normal membership testers.

A binary word is represented as a ``str`` of ``'0'``/``'1'`` characters,
most significant position first.  A word w is *prefix normal* when no
substring of w contains more 1s than the prefix of the same length,
i.e. ``max_ones(w) == prefix_weights(w)`` elementwise.

All functions here are pure; returned tables are plain lists indexed by
length (index 0 holds the empty-prefix value 0).  The public tables and
testers check their word once and raise ``WordFormatError`` for text that
is not 0/1; the helpers they share take it as given.  Everything that reads a
word as its blocks 1^s 0^t goes through one scanner, ``_blocks``.
"""

from dataclasses import dataclass
from itertools import pairwise
from operator import sub


class WordFormatError(ValueError):
    """Raised for text that is not a plain 0/1 word."""


def parse_word(text: str) -> str:
    """Validate word text (ASCII 0/1, optional single trailing LF or CRLF)."""
    return _check_word(text[:-2] if text.endswith("\r\n") else text.removesuffix("\n"))


def _check_word(word: str) -> str:
    """word if it is plain 0/1 text (``int(word, 2)`` also takes '0b1',
    ' 101', '1_0' and '+1'), else WordFormatError."""
    bad = word.strip("01")
    if bad:
        raise WordFormatError(f"invalid character {bad[0]!r} in word {word!r}")
    return word


def weight(w: str) -> int:
    """Number of 1s in w."""
    return _check_word(w).count("1")


def complement(w: str) -> str:
    """Exchange 0s and 1s."""
    return _check_word(w).translate(_COMPLEMENT)


_COMPLEMENT = str.maketrans("01", "10")


def prefix_weights(w: str) -> list[int]:
    """p[i] = number of 1s in the length-i prefix of w, for i = 0..n."""
    p = [0] * (len(w) + 1)
    acc = 0
    for i, c in enumerate(_check_word(w), 1):
        if c == "1":
            acc += 1
        p[i] = acc
    return p


def positions(w: str, c: str = "1") -> list[int]:
    """Sorted 0-based positions of the character c in w."""
    return [i for i, x in enumerate(w) if x == c]


def shortest_window(pos: list[int], j: int) -> int:
    """Length of the shortest window holding j of the marks at the sorted
    positions pos, for 1 <= j <= len(pos); one C-level pass over pos."""
    return min(map(sub, pos[j - 1:], pos)) + 1


def _max_marks(n: int, pos: list[int]) -> list[int]:
    """f[k] = most marks in a length-k window of a length-n word with
    marks at the sorted positions pos.  f steps up by one exactly at each
    shortest window, so the whole table costs about len(pos)**2 / 2
    C-level steps."""
    bounds = [0, *(shortest_window(pos, j) for j in range(1, len(pos) + 1)), n + 1]
    f = []
    for j, (lo, hi) in enumerate(pairwise(bounds)):
        f += [j] * (hi - lo)
    return f


def max_ones(w: str) -> list[int]:
    """f[i] = maximum number of 1s over all length-i substrings of w."""
    return _max_marks(len(w), positions(_check_word(w)))


def min_ones(w: str) -> list[int]:
    """g[i] = minimum number of 1s over all length-i substrings of w."""
    return _min_ones(_check_word(w))


def _min_ones(w):
    return list(map(sub, range(len(w) + 1), _max_marks(len(w), positions(w, "0"))))


def pnf(w: str) -> str:
    """Prefix normal form: the unique prefix normal word with the same
    max-ones table as w (first differences of ``max_ones(w)``)."""
    return _pnf(_check_word(w))


def _pnf(w):
    f = _max_marks(len(w), positions(w))
    return "".join(map("01".__getitem__, map(sub, f[1:], f)))


def is_prefix_normal(w: str) -> bool:
    """Membership test: for every j, the prefix up to the j-th 1 must be a
    shortest window holding j ones.  Stops at the first j that fails."""
    return _is_prefix_normal(_check_word(w))


def _is_prefix_normal(w):
    pos = positions(w)
    return all(shortest_window(pos, j) == pos[j - 1] + 1 for j in range(1, len(pos) + 1))


@dataclass(frozen=True)
class CriticalPrefix:
    """Decomposition w = 1^s 0^t gamma with gamma empty or starting with 1.

    ``cr = s + t`` is the critical prefix length; for the all-ones word the
    convention is t = 0 and cr = n.
    """

    s: int
    t: int
    gamma: str

    @property
    def cr(self) -> int:
        return self.s + self.t


def _blocks(w: str):
    """Yield the maximal blocks 1^s 0^t of w as (s, t) pairs.  Each costs
    two ``str.find`` calls and moves at least one character on, so the
    scan ends on any ``str``."""
    n = len(w)
    i = 0
    while i < n:
        j = w.find("0", i)
        j = n if j < 0 else j
        k = w.find("1", j)
        k = n if k < 0 else k
        yield j - i, k - j
        i = k


def critical_prefix(w: str) -> CriticalPrefix:
    """Unique (s, t, gamma) decomposition of a non-empty word: its first block."""
    if not w:
        raise ValueError("critical prefix of the empty word is undefined")
    s, t = next(_blocks(_check_word(w)))
    return CriticalPrefix(s, t, w[s + t:])


def run_length_blocks(w: str) -> list[tuple[int, int]]:
    """Maximal blocks 1^s 0^t of w as (s, t) pairs.

    The first block may have s = 0 and the last may have t = 0; every
    other run length is positive.
    """
    return list(_blocks(_check_word(w)))


def phase1_rejects(w: str, mode: str = "combined") -> bool:
    """Linear-time rejection tests on the run-length block encoding.

    ``trivial`` rejects when the longest 1-run is not a prefix (some
    s_i > s_1).  ``combined`` additionally rejects when two adjacent
    blocks fit inside the critical prefix length but carry more 1s:
    s_{i-1} + t_{i-1} + s_i <= s_1 + t_1 and s_{i-1} + s_i > s_1.
    The blocks are read lazily, so the scan stops at the first block that
    rejects.  A True result is definitive (w is not prefix normal); False
    means the tests were inconclusive.
    """
    if mode not in ("trivial", "combined"):
        raise ValueError(f"unknown mode {mode!r}")
    blocks = _blocks(_check_word(w))
    s1, t1 = prev_s, prev_t = next(blocks, (0, 0))
    for s, t in blocks:
        if s > s1:
            return True
        if mode == "combined" and prev_s + prev_t + s <= s1 + t1 and prev_s + s > s1:
            return True
        prev_s, prev_t = s, t
    return False


def member_two_phase(w: str) -> bool:
    """Two-phase membership test: block rejection first, the full test
    for the survivors.  Always agrees with ``is_prefix_normal``."""
    if phase1_rejects(w, "combined"):  # checks w
        return False
    return _is_prefix_normal(w)


def is_extension_critical(w: str) -> bool:
    """True when w (prefix normal) cannot be extended by a 1.

    w1 is prefix normal iff every proper suffix u of w (the empty suffix
    included) has fewer 1s than the prefix of length |u| + 1.
    """
    p = prefix_weights(w)  # checks w
    if not _is_prefix_normal(w):
        raise ValueError(f"is_extension_critical requires a prefix normal word, got {w!r}")
    return extension_critical(p, len(w))


def extension_critical(p: list[int], k: int) -> bool:
    """``is_extension_critical`` for the length-k prefix normal word with
    prefix weights p[0..k]: the suffix of length l has p[k] - p[k-l]
    ones, and appending 1 fails once one reaches p[l+1]."""
    pk = p[k]
    for length in range(k):
        if pk - p[k - length] >= p[length + 1]:
            return True
    return False


@dataclass(frozen=True)
class BjpmIndex:
    """Constant-time index for substring Parikh queries on a fixed word.

    A word has a substring with x 1s and y 0s iff x lies between the
    minimum and maximum 1-count over windows of length x + y.
    """

    length: int
    max_ones: tuple[int, ...]
    min_ones: tuple[int, ...]

    @classmethod
    def from_word(cls, w: str) -> "BjpmIndex":
        return cls(len(w), tuple(max_ones(w)), tuple(_min_ones(w)))  # max_ones checks w

    def query(self, x: int, y: int) -> bool:
        if x < 0 or y < 0:
            raise ValueError("counts must be non-negative")
        k = x + y
        if k > self.length:
            return False
        return self.min_ones[k] <= x <= self.max_ones[k]
