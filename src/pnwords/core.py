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

The window-maxima tables and ``pnf`` share one kernel, ``_window_max``:
one int holds a lane per window start, and each of n steps adds the next
symbol to every window with a few big-int operations over about n*L bits
(L = (n + 1).bit_length() + 1).  ``is_prefix_normal`` runs the same pass,
``_within_prefix``, against the prefix weights, and stops at the first
window that holds more 1s than the prefix of its length.
"""

from dataclasses import dataclass
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
    if not 1 <= j <= len(pos):
        raise ValueError(f"need 1 <= j <= {len(pos)} (the number of marks), got j={j}")
    return min(map(sub, pos[j - 1:], pos)) + 1


def _lanes(w):
    """(S, R, L) for a checked word w of length n: lane i of S, bits i*L to
    i*L + L - 1, holds w[i]; R has a 1 in each of the n lanes."""
    n = len(w)
    L = (n + 1).bit_length() + 1
    S = int(("0" * (L - 1)).join(w[::-1]) or "0", 2)
    return S, ((1 << L * n) - 1) // ((1 << L) - 1), L


def _window_max(S, R, L, n):
    """[f[1], ..., f[n]], f[k] the most marks in a length-k window, from
    the lanes S of the marks of a length-n word.  Step k adds the marks
    w[i+k-1], so lane i of Z holds v + 2**(L-1) - 1 - f[k-1], v the marks
    in w[i:i+k].  v <= f[k-1] + 1 < 2**(L-1), so no lane carries, and some
    lane's top bit is set iff f[k] = f[k-1] + 1.  Lanes i > n - k hold
    suffixes, never more than the window ending at n; they are masked off
    each time they make up half of Z (below 64 lanes a mask costs more than
    it saves)."""
    f = []
    H = R << (L - 1)
    Z, c, live = H - R, 0, n
    while live:
        mask = (1 << L * live) - 1
        Z, R, H = Z & mask, R & mask, H & mask
        steps = live - live // 2 if live > 64 else live
        live -= steps
        for _ in range(steps):
            Z += S
            S >>= L
            if Z & H:
                c += 1
                Z -= R
            f.append(c)
    return f


def _within_prefix(S, R, L, w):
    """True when no window of w holds more 1s than the prefix of its
    length, from the lanes S of w's 1s.  The pass of ``_window_max`` with
    lane i of Z offset by the prefix weight P[k] in place of f[k-1]: after
    step k it holds v + 2**(L-1) - 1 - P[k], v the 1s in w[i:i+k], so a set
    top bit is a window with more 1s than the prefix, and the pass stops
    there.  Until then v - P[k] <= 1 and P[k] <= n < 2**(L-1), so every
    lane stays within 0..2**(L-1) and none carries or borrows.  A "1"
    raises P[k] by as much as any v, so only a "0" can set a top bit.  A
    lane past the end holds a suffix, which its step already checked, so
    lanes are masked off as in ``_window_max``."""
    H = R << (L - 1)
    Z, k, live = H - R, 0, len(w)
    while live:
        mask = (1 << L * live) - 1
        Z, R, H = Z & mask, R & mask, H & mask
        steps = live - live // 2 if live > 64 else live
        live -= steps
        for c in w[k:k + steps]:
            Z += S
            S >>= L
            if c == "1":
                Z -= R
            elif Z & H:
                return False
        k += steps
    return True


def max_ones(w: str) -> list[int]:
    """f[i] = maximum number of 1s over all length-i substrings of w."""
    return [0, *_window_max(*_lanes(_check_word(w)), len(w))]


def min_ones(w: str) -> list[int]:
    """g[i] = minimum number of 1s over all length-i substrings of w."""
    return _min_ones(*_lanes(_check_word(w)), len(w))


def _min_ones(S, R, L, n):
    """g[k] = k minus the most 0s in a length-k window (lanes R - S)."""
    return [0, *map(sub, range(1, n + 1), _window_max(R - S, R, L, n))]


def pnf(w: str) -> str:
    """Prefix normal form: the unique prefix normal word with the same
    max-ones table as w (first differences of ``max_ones(w)``)."""
    return _pnf(_check_word(w))


def _pnf(w):
    f = [0, *_window_max(*_lanes(w), len(w))]
    return "".join(map("01".__getitem__, map(sub, f[1:], f)))


def is_prefix_normal(w: str) -> bool:
    """Membership test: max_ones(w)[k] equals the number of 1s in the
    length-k prefix for every k.  Stops at the first k that fails, and
    refuses a word with a 1-run longer than its first before that."""
    return _is_prefix_normal(_check_word(w))


def _is_prefix_normal(w):
    # a 1-run longer than the first is a window with more 1s than the
    # prefix of its length: refuse before building any lane
    first = len(w) - len(w.lstrip("1"))
    if "1" * (first + 1) in w:
        return False
    return _within_prefix(*_lanes(w), w)


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
        lanes = _lanes(_check_word(w))
        n = len(w)
        return cls(n, (0, *_window_max(*lanes, n)), tuple(_min_ones(*lanes, n)))

    def query(self, x: int, y: int) -> bool:
        if x < 0 or y < 0:
            raise ValueError("counts must be non-negative")
        k = x + y
        if k > self.length:
            return False
        return self.min_ones[k] <= x <= self.max_ones[k]
