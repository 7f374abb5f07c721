"""Shared brute-force oracles and frozen reference data.

The brute-force helpers deliberately avoid the library's own shortcuts
(prefix-sum tables, incremental state) so they can serve as independent
ground truth for small inputs.
"""

import multiprocessing
import sys
from bisect import bisect_right
from itertools import combinations
from operator import sub
from types import SimpleNamespace

import pytest

from pnwords import core, pnoracle


def all_words(n):
    """Every binary word of length n, as strings, ascending as integers."""
    if n == 0:
        return [""]
    return [format(x, f"0{n}b") for x in range(1 << n)]


def phase1_rejected_by_scan(n, mode):
    """Length-n words that ``core.phase1_rejects`` rejects, one call per
    word: the slow twin of ``analysis.rejection_ratio``."""
    return sum(core.phase1_rejects(w, mode) for w in all_words(n))


def _completions_by_n_table(r_max, s1, t1):
    """A[r] for r = 0..r_max: the ways to complete r symbols so that the
    linear phase passes every block, after a block (ps, pt) with pt >= t1
    in a word whose first block is (s1, t1).

    A next block (s, t) needs 1 <= s <= s1, and t = 0 only at the end.  In
    combined mode it must also avoid s1 - ps < s <= s1 + t1 - ps - pt,
    which is empty when pt >= t1; so N[r][ps][pt], the count after a
    block (ps, pt), is needed only for pt < t1, and A[r] stands for every
    other pt.  Trivial mode forbids only s > s1: its count is the one for
    t1 = 1, where no pt < t1 is left.  P(r, s), the completions that start
    with 1^s, is [s = r] (the last block) plus the N after (s, t) for
    t < t1 plus CA, the prefix sums of A, for the t >= t1; S holds the
    prefix sums of P over s, so each N is O(1).
    """
    A, CA, N = [1], [1], [None]
    for r in range(1, r_max + 1):
        top = min(s1, r)
        S = [0] * (top + 1)
        for s in range(1, top + 1):
            p = s == r
            for t in range(1, min(t1 - 1, r - s) + 1):
                p += N[r - s - t][s][t] if r > s + t else 1
            if r >= s + t1:
                p += CA[r - s - t1]
            S[s] = S[s - 1] + p
        a = S[top]
        A.append(a)
        CA.append(CA[-1] + a)
        # the P of the forbidden s in (s1 - ps, s1 + t1 - ps - pt] taken out of a
        N.append([None] + [[None] + [a - S[min(s1 + t1 - ps - pt, top)] + S[s1 - ps]
                                     if s1 - ps < top else a for pt in range(1, t1)]
                           for ps in range(1, s1 + 1)])
    return A


def phase1_passed_by_n_table(n, mode):
    """Length-n words that the linear phase passes, by a fresh table with
    an N[r][ps][pt] part for every first block (s1, t1), O(n^5) steps in
    combined mode: the slow twin of ``analysis.rejection_ratio`` past the
    reach of ``phase1_rejected_by_scan``."""
    passed = n + 1
    for s1 in range(1, n - 1):
        if mode == "combined":
            passed += sum(_completions_by_n_table(n - s1 - t1, s1, t1)[-1]
                          for t1 in range(1, n - s1))
        else:  # nothing depends on t1: one table serves every first block
            passed += sum(_completions_by_n_table(n - s1 - 1, s1, 1)[1:])
    return passed


def cr_sum_by_scan(n):
    """Sum of ``core.critical_prefix(w).cr`` over all length-n words: the
    slow twin of ``analysis.critical_prefix_sum``."""
    return sum(core.critical_prefix(w).cr for w in all_words(n)) if n else 0


def words_of_weight(n, d):
    """Every length-n word with exactly d ones."""
    out = []
    for positions in combinations(range(n), d):
        w = ["0"] * n
        for i in positions:
            w[i] = "1"
        out.append("".join(w))
    return out


def brute_max_ones(w):
    """Window maxima by enumerating every substring directly."""
    n = len(w)
    f = [0] * (n + 1)
    for i in range(1, n + 1):
        f[i] = max(w[j:j + i].count("1") for j in range(n - i + 1))
    return f


def brute_min_ones(w):
    """Window minima by enumerating every substring directly."""
    n = len(w)
    g = [0] * (n + 1)
    for i in range(1, n + 1):
        g[i] = min(w[j:j + i].count("1") for j in range(n - i + 1))
    return g


def shortest_window_max_ones(w):
    """Window maxima from the shortest window holding j ones, for each j:
    f[k] counts the j whose shortest window fits in k.  About weight**2 / 2
    C-level steps, so it is the reference for words too long for
    brute_max_ones (seconds per call at n = 2048)."""
    ones = [i for i, c in enumerate(w) if c == "1"]
    shortest = [min(map(sub, ones[j - 1:], ones)) + 1 for j in range(1, len(ones) + 1)]
    return [bisect_right(shortest, k) for k in range(len(w) + 1)]


def brute_is_prefix_normal(w):
    f = brute_max_ones(w)
    return all(f[i] == w[:i].count("1") for i in range(1, len(w) + 1))


def brute_run_length_blocks(w):
    """Maximal blocks 1^s 0^t of w as (s, t) pairs, one character at a time."""
    blocks = []
    n = len(w)
    i = 0
    while i < n:
        s = 0
        while i < n and w[i] == "1":
            s += 1
            i += 1
        t = 0
        while i < n and w[i] == "0":
            t += 1
            i += 1
        blocks.append((s, t))
    return blocks


def brute_substring_parikh(w):
    """Set of (ones, zeros) pairs realized by substrings of w."""
    n = len(w)
    pairs = {(0, 0)}
    for i in range(n):
        for j in range(i + 1, n + 1):
            sub = w[i:j]
            pairs.add((sub.count("1"), sub.count("0")))
    return pairs


def coolex_reference(member, n, d, order="coolex"):
    """Members of weight d in cool-lex order, by plain recursion over the
    computation tree on strings: the children of 1^s 0^t gamma are
    1^(s-1) 0^i 1 0^(t-i) gamma for i = 1..t, kept up to the first
    non-member.  order: "coolex" (post-order), "visit-first" (pre-order)
    or "reverse" (pre-order, children right to left)."""
    out = []

    def walk(s, t, w):
        children = []
        for i in range(1, t + 1) if s else ():
            child = "1" * (s - 1) + "0" * i + "1" + w[s + i:]
            if not member(child):
                break
            children.append((i, child))
        if order != "coolex":
            out.append(w)
        for i, child in reversed(children) if order == "reverse" else children:
            walk(s - 1, i, child)
        if order == "coolex":
            out.append(w)

    walk(d, n - d, "1" * d + "0" * (n - d))
    return out


# Complete cool-lex listing for length 7, weights ascending: the frozen
# expected output of the Gray code generator.
LENGTH7_COOLEX_LISTING = """
0000000
1000000
1010000 1001000 1000100 1000010 1000001 1100000
1101000 1010100 1100100 1010010 1100010 1010001 1001001 1100001 1110000
1101100 1110100 1101010 1100110 1110010 1101001 1010101 1100101 1100011 1110001 1111000
1110110 1111010 1101101 1110101 1101011 1110011 1111001 1111100
1110111 1111011 1111101 1111110
1111111
""".split()

# Prefix normal forms of length 5 with their full equivalence classes.
LENGTH5_CLASSES = {
    "11111": {"11111"},
    "11110": {"11110", "01111"},
    "11101": {"11101", "10111"},
    "11100": {"11100", "01110", "00111"},
    "11011": {"11011"},
    "11010": {"11010", "10110", "01101", "01011"},
    "11001": {"11001", "10011"},
    "11000": {"11000", "01100", "00110", "00011"},
    "10101": {"10101"},
    "10100": {"10100", "01010", "00101"},
    "10010": {"10010", "01001"},
    "10001": {"10001"},
    "10000": {"10000", "01000", "00100", "00010", "00001"},
    "00000": {"00000"},
}

# Spellings that int(w, 2) accepts but that are not 0/1 words
INT_SPELLINGS = ["0b1", " 101", "1_0", "+1"]

PNW_COUNTS = [2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697]  # n = 1..12


@pytest.fixture(scope="session")
def length7_listing():
    return list(LENGTH7_COOLEX_LISTING)


needs_fork_pool = pytest.mark.skipif(
    sys.platform == "darwin" or "fork" not in multiprocessing.get_all_start_methods(),
    reason="the weight pool forks its workers; elsewhere runs stay serial")


@pytest.fixture
def pooled(monkeypatch):
    """Counting runs of every length, and listings up to the render limit,
    take the process pool, with two workers even on one core; returns the
    sizes of the pools made."""
    made = []
    real_get_context = multiprocessing.get_context

    def recording(method):
        context = real_get_context(method)

        def pool(workers, *args):
            made.append(workers)
            return context.Pool(workers, *args)
        return SimpleNamespace(Pool=pool, Lock=context.Lock)

    monkeypatch.setattr(multiprocessing, "get_context", recording)
    monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 0)
    monkeypatch.setattr(pnoracle, "_cores", lambda: 2)
    return made
