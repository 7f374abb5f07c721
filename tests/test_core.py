import random
import subprocess
import sys
from itertools import accumulate
from operator import eq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnwords import analysis, core

from conftest import (
    INT_SPELLINGS,
    all_words,
    brute_is_prefix_normal,
    brute_max_ones,
    brute_min_ones,
    brute_run_length_blocks,
    brute_substring_parikh,
    shortest_window_max_ones,
)

words_st = st.text(alphabet="01", max_size=16)
nonempty_words_st = st.text(alphabet="01", min_size=1, max_size=16)
long_words_st = st.text(alphabet="01", max_size=300)
# every length 0..300 equally likely, so the lane widths that change at
# n = 127 and n = 255 are all drawn
sized_words_st = st.integers(0, 300).flatmap(
    lambda n: st.text(alphabet="01", min_size=n, max_size=n))


class TestParseWord:
    def test_plain_and_newline_terminated(self):
        assert core.parse_word("10110") == "10110"
        assert core.parse_word("10110\n") == "10110"
        assert core.parse_word("10110\r\n") == "10110"
        assert core.parse_word("") == ""

    @pytest.mark.parametrize("bad", ["10x01", "2", "1 0", "10\n1", "\n10", "10\r", "10\n\n"])
    def test_rejects_other_characters(self, bad):
        with pytest.raises(core.WordFormatError):
            core.parse_word(bad)


CHECKED_ENTRY_POINTS = {
    "max_ones": core.max_ones,
    "min_ones": core.min_ones,
    "pnf": core.pnf,
    "is_prefix_normal": core.is_prefix_normal,
    "member_two_phase": core.member_two_phase,
    "critical_prefix": core.critical_prefix,
    "run_length_blocks": core.run_length_blocks,
    "BjpmIndex.from_word": core.BjpmIndex.from_word,
    "phase1_rejects": core.phase1_rejects,
    "prefix_weights": core.prefix_weights,
    "weight": core.weight,
    "complement": core.complement,
    "critical_prefix_of_pnf": analysis.critical_prefix_of_pnf,
    "is_extension_critical": core.is_extension_critical,
}


@pytest.fixture
def lanes_built(monkeypatch):
    """The words the window-maxima kernel builds its lanes from."""
    built = []
    real = core._lanes

    def recording(w):
        built.append(w)
        return real(w)
    monkeypatch.setattr(core, "_lanes", recording)
    return built


@pytest.mark.parametrize("bad", ["2", "10a", "1a1", "a", "1 0", "10\n", *INT_SPELLINGS,
                                 " 10", "1\n0"])
@pytest.mark.parametrize("name", CHECKED_ENTRY_POINTS)
def test_entry_points_reject_text_that_is_not_a_word(name, bad, lanes_built):
    # int(., 2) takes '_', a sign, '0b' and whitespace, so the check must
    # come before the lanes are built
    with pytest.raises(core.WordFormatError, match="invalid character"):
        CHECKED_ENTRY_POINTS[name](bad)
    assert lanes_built == []


@pytest.mark.parametrize("name", ["max_ones", "min_ones", "pnf", "is_prefix_normal",
                                  "member_two_phase", "BjpmIndex.from_word",
                                  "is_extension_critical"])
def test_kernel_entry_points_build_lanes(name, lanes_built):
    CHECKED_ENTRY_POINTS[name]("10")
    assert lanes_built == ["10"]


class TestPrefixWeights:
    def test_examples(self):
        assert core.prefix_weights("11010") == [0, 1, 2, 2, 3, 3]
        assert core.prefix_weights("00000") == [0, 0, 0, 0, 0, 0]
        assert core.prefix_weights("") == [0]

    @given(words_st)
    def test_steps_and_total(self, w):
        p = core.prefix_weights(w)
        assert p[0] == 0 and p[-1] == core.weight(w)
        assert all(p[i] - p[i - 1] in (0, 1) for i in range(1, len(p)))


class TestMaxOnes:
    def test_long_example(self):
        assert core.max_ones("11100110110") == [0, 1, 2, 3, 3, 4, 4, 5, 5, 6, 7, 7]

    def test_all_ones(self):
        assert core.max_ones("1" * 9) == list(range(10))

    def test_10011(self):
        # brute-force derived: no length-4 window holds 3 ones
        expected = [0, 1, 2, 2, 2, 3]
        assert brute_max_ones("10011") == expected
        assert core.max_ones("10011") == expected

    @given(words_st)
    def test_matches_brute_force(self, w):
        assert core.max_ones(w) == brute_max_ones(w)

    @given(words_st)
    def test_unit_steps_and_dominates_prefix(self, w):
        f = core.max_ones(w)
        p = core.prefix_weights(w)
        assert all(f[i] - f[i - 1] in (0, 1) for i in range(1, len(f)))
        assert all(f[i] >= p[i] for i in range(len(f)))


class TestPnf:
    def test_examples(self):
        assert core.pnf("11100110110") == "11101010110"
        assert core.pnf("01111") == "11110"
        assert core.pnf("") == ""

    @given(words_st)
    def test_idempotent_and_fixpoint_characterization(self, w):
        w1 = core.pnf(w)
        assert core.pnf(w1) == w1
        assert core.is_prefix_normal(w) == (w1 == w)
        assert core.max_ones(w1) == core.max_ones(w)

    @given(words_st)
    def test_returns_a_prefix_normal_word(self, w):
        assert brute_is_prefix_normal(core.pnf(w))

    @settings(max_examples=60, deadline=None)
    @given(long_words_st)
    def test_long_words_idempotent_and_prefix_normal(self, w):
        w1 = core.pnf(w)
        assert core.pnf(w1) == w1
        assert core.is_prefix_normal(w1)
        assert core.weight(w1) == core.weight(w)


class TestIsPrefixNormal:
    def test_examples(self):
        assert core.is_prefix_normal("10011") is False
        assert core.is_prefix_normal("11100110110") is False
        assert core.is_prefix_normal("11010") is True
        assert core.is_prefix_normal("") is True

    @pytest.mark.parametrize("n", range(0, 13))
    def test_exhaustive_vs_brute_force(self, n):
        for w in all_words(n):
            assert core.is_prefix_normal(w) == brute_is_prefix_normal(w), w

    @pytest.mark.parametrize("n", [4, 5, 14, 126, 127, 255, 256])
    def test_refused_only_at_half_length(self, n):
        # the scan must run to k = n // 2 to refuse the word, and to k = n
        # to accept it with its last 1 dropped
        w = late_excess_word(n)
        f = brute_max_ones(w)
        excess = [k for k in range(n + 1) if f[k] > w[:k].count("1")]
        assert excess[0] == n // 2 and (n % 2 or excess == [n // 2])
        assert core.is_prefix_normal(w) is False
        assert core.is_prefix_normal(w[:-1] + "0") is True


    @pytest.mark.parametrize("n", range(0, 15))
    def test_early_rejection_agrees_with_the_lane_kernel(self, n):
        for w in all_words(n):
            assert core.is_prefix_normal(w) == lane_kernel_is_prefix_normal(w), w

    def test_agrees_with_the_lane_kernel_on_seeded_words_and_their_pnf(self):
        # _within_prefix masks finished lanes off past 64 lanes, as the kernel
        # does; the lengths cross that and the lane-width steps.  A word led
        # by its longest 1-run passes the early run test, so the lanes decide.
        rng = random.Random(1024)
        for n in (*range(15, 70), 127, 128, 255, 256, 500, 1024):
            for _ in range(4):
                w = format(rng.getrandbits(n), f"0{n}b")
                longest = max(map(len, w.split("0")))
                for v in (w, core.pnf(w), core.pnf(w)[:-1] + "1", "1" * longest + w[longest:]):
                    assert core.is_prefix_normal(v) == lane_kernel_is_prefix_normal(v), v

    def test_early_rejection_on_long_words(self):
        # random words (almost all refused by a later, longer 1-run), and
        # words whose first 1-run is their longest, which only the kernel
        # can decide
        rng = random.Random(18)
        for n in (32, 100, 1024):
            for _ in range(30):
                k = rng.randint(1, 6)
                runs = "".join(rng.choice(["0", "1" * rng.randint(1, k)]) for _ in range(n))
                for w in ("".join(rng.choice("01") for _ in range(n)),
                          ("1" * k + "0" + runs)[:n], core.pnf(runs[:n])):
                    assert core.is_prefix_normal(w) == lane_kernel_is_prefix_normal(w), w

    def test_longer_later_run_builds_no_lanes(self, lanes_built):
        assert core.is_prefix_normal("1" * 5 + "0" * 1000 + "1" * 6) is False
        assert core.is_prefix_normal("0" * 10 + "1") is False
        assert lanes_built == []


def lane_kernel_is_prefix_normal(w):
    """The kernel test alone, without the early rejection."""
    return all(map(eq, core._window_max(*core._lanes(w), len(w)), accumulate(map(int, w))))


class TestTablesAgainstBruteForce:
    """max_ones, min_ones and pnf against the substring-enumerating twins;
    pnf(w) is checked as the word whose prefix weights are max_ones(w)."""

    @pytest.mark.parametrize("n", range(0, 13))
    def test_exhaustive(self, n):
        for w in all_words(n):
            f, g = brute_max_ones(w), brute_min_ones(w)
            assert core.max_ones(w) == f, w
            assert core.min_ones(w) == g, w
            assert core.prefix_weights(core.pnf(w)) == f, w
            idx = core.BjpmIndex.from_word(w)
            assert (idx.max_ones, idx.min_ones) == (tuple(f), tuple(g)), w
            assert core.member_two_phase(w) == brute_is_prefix_normal(w), w

    @pytest.mark.parametrize("n", [100, 257, 1024])
    def test_seeded_long_words(self, n):
        rng = random.Random(n)
        words = ["0" * n, "1" * n]
        for first in "10":
            w = first + format(rng.getrandbits(n - 1), f"0{n - 1}b")
            words += [w, core.pnf(w)]
        for w in words:
            f = brute_max_ones(w)
            assert core.max_ones(w) == f, w
            assert core.min_ones(w) == brute_min_ones(w), w
            assert core.prefix_weights(core.pnf(w)) == f, w
            assert core.is_prefix_normal(w) == (core.prefix_weights(w) == f), w

    @settings(max_examples=60, deadline=None)
    @given(sized_words_st)
    def test_long_words_max_ones_and_pnf(self, w):
        f = brute_max_ones(w)
        assert core.max_ones(w) == f
        assert core.min_ones(w) == brute_min_ones(w)
        assert core.prefix_weights(core.pnf(w)) == f

    @pytest.mark.parametrize("n", [126, 127, 128, 254, 255, 256, 2047, 2048])
    def test_lane_boundary_words(self, n):
        # the lane width L = (n+1).bit_length() + 1 grows at n = 127, 255
        # and 2047; at n = 126 and 254, 2**(L-1) exceeds n + 1 by one, the
        # least margin.  Beyond 256 the brute-force twins take seconds a
        # call, so the shortest-window twin is the reference there.
        rng = random.Random(n)
        seeded = "1" + format(rng.getrandbits(n - 1), f"0{n - 1}b")
        words = ["0" * n, "1" * n, "1" * (n - 1) + "0", "0" * (n - 1) + "1",
                 ("10" * n)[:n], "1" * (n // 3) + "0" * (n - n // 3), seeded,
                 core.pnf(seeded), late_excess_word(n)]
        for w in words:
            if n <= 256:
                f, g = brute_max_ones(w), brute_min_ones(w)
            else:
                f = shortest_window_max_ones(w)
                g = [k - x for k, x in enumerate(shortest_window_max_ones(core.complement(w)))]
            p = core.prefix_weights(w)
            assert core.max_ones(w) == f, w
            assert core.min_ones(w) == g, w
            assert core.prefix_weights(core.pnf(w)) == f, w
            assert core.is_prefix_normal(w) == (p == f), w
            idx = core.BjpmIndex.from_word(w)
            assert (idx.max_ones, idx.min_ones) == (tuple(f), tuple(g)), w


def late_excess_word(n):
    """1 0^(n-h-1) 1 0^(h-2) 1 with h = n // 2: the suffix 1 0^(h-2) 1 is
    the first window, and for even n the only one, to hold more 1s than the
    prefix of its length h.  An exhaustive search up to n = 14 finds no
    word first refused at a greater length."""
    h = n // 2
    return "1" + "0" * (n - h - 1) + "1" + "0" * (h - 2) + "1"


class TestRunLengthBlocks:
    def test_examples(self):
        assert core.run_length_blocks("11100101011100110") == [
            (3, 2), (1, 1), (1, 1), (3, 2), (2, 1)]
        assert core.run_length_blocks("0001") == [(0, 3), (1, 0)]
        assert core.run_length_blocks("1111") == [(4, 0)]
        assert core.run_length_blocks("") == []

    @given(words_st)
    def test_roundtrip_and_maximality(self, w):
        blocks = core.run_length_blocks(w)
        assert "".join("1" * s + "0" * t for s, t in blocks) == w
        for i, (s, t) in enumerate(blocks):
            if i > 0:
                assert s >= 1
            if i < len(blocks) - 1:
                assert t >= 1


def twin_phase1_rejects(w, mode):
    """The linear phase's tests, on the per-character twin's blocks."""
    blocks = brute_run_length_blocks(w)
    s1, t1 = blocks[0] if blocks else (0, 0)
    return any(s > s1 or (mode == "combined" and ps + pt + s <= s1 + t1 and ps + s > s1)
               for (ps, pt), (s, t) in zip(blocks, blocks[1:]))


def twin_check_block_readers(w):
    blocks = brute_run_length_blocks(w)
    assert core.run_length_blocks(w) == blocks, w
    for mode in ("trivial", "combined"):
        assert core.phase1_rejects(w, mode) == twin_phase1_rejects(w, mode), (w, mode)
    if w:
        s, t = blocks[0]
        assert core.critical_prefix(w) == core.CriticalPrefix(s, t, w[s + t:]), w


class TestBlockScannerTwin:
    @pytest.mark.parametrize("n", range(0, 15))
    def test_every_short_word(self, n):
        for w in all_words(n):
            twin_check_block_readers(w)

    def test_seeded_long_words_and_their_pnf(self):
        rng = random.Random(2718)
        for _ in range(150):
            n = rng.randint(1, 1024)
            w = format(rng.getrandbits(n), f"0{n}b")
            twin_check_block_readers(w)
            twin_check_block_readers(core.pnf(w))

    def test_stray_character_ends_the_scan(self):
        # a per-character scan stalls on "a" and grows its block list until
        # memory runs out; under a 400 MB address-space cap that fails fast.
        # The entry points refuse "10a" first, so the scanner is driven
        # directly, and the linear phase must refuse it within the cap.
        script = ("import resource\n"
                  "cap = 400 << 20\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                  "from pnwords import core\n"
                  "list(core._blocks('10a'))\n"
                  "try:\n"
                  "    core.phase1_rejects('10a')\n"
                  "except core.WordFormatError:\n"
                  "    pass\n"
                  "else:\n"
                  "    raise SystemExit('10a accepted')\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestTwoPhaseMember:
    def test_examples(self):
        assert core.member_two_phase("10110") is False
        assert core.phase1_rejects("10110") is True  # second block has the longer 1-run
        assert core.member_two_phase("11010") is True
        assert core.phase1_rejects("11010") is False
        # 110110 survives the linear phase and the quadratic scan accepts it
        assert core.member_two_phase("110110") is True
        assert core.is_prefix_normal("110110") is True

    @pytest.mark.parametrize("n", range(0, 17))
    def test_three_way_agreement_exhaustive(self, n):
        for w in all_words(n):
            quadratic = core.is_prefix_normal(w)
            assert core.member_two_phase(w) == quadratic, w
            assert (core.max_ones(w) == core.prefix_weights(w)) == quadratic, w

    @pytest.mark.parametrize("mode", ["trivial", "combined"])
    @pytest.mark.parametrize("n", range(0, 13))
    def test_phase1_rejections_are_sound(self, n, mode):
        for w in all_words(n):
            if core.phase1_rejects(w, mode):
                assert not core.is_prefix_normal(w), w

    def test_fuzz_long_words(self):
        rng = random.Random(9001)
        for _ in range(10_000):
            n = rng.randint(0, 64)
            w = format(rng.getrandbits(n), f"0{n}b") if n else ""
            assert core.member_two_phase(w) == core.is_prefix_normal(w), w

    @settings(deadline=None)
    @given(long_words_st)
    def test_agrees_with_quadratic_scan_on_long_words(self, w):
        # random words rarely pass the linear phase, so their prefix normal
        # forms and a one-symbol change of those are checked as well
        v = core.pnf(w)
        flipped = v[:-1] + "10"[int(v[-1])] if v else v
        for u in (w, v, flipped):
            assert core.member_two_phase(u) == core.is_prefix_normal(u), u

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            core.phase1_rejects("10", "fast")


class TestCriticalPrefix:
    def test_examples(self):
        assert core.critical_prefix("11101010110").cr == 4
        assert core.critical_prefix("11111000000").cr == 11
        assert core.critical_prefix("00101110110").cr == 2

    def test_all_ones_convention(self):
        cp = core.critical_prefix("11111")
        assert (cp.s, cp.t, cp.gamma, cp.cr) == (5, 0, "", 5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            core.critical_prefix("")

    @given(nonempty_words_st)
    def test_decomposition_is_valid(self, w):
        cp = core.critical_prefix(w)
        assert "1" * cp.s + "0" * cp.t + cp.gamma == w
        assert cp.gamma == "" or cp.gamma[0] == "1"
        assert 1 <= cp.cr <= len(w)
        if w != "1" * len(w):
            assert cp.t >= 1


class TestShortestWindow:
    def test_examples(self):
        assert [core.shortest_window([1, 5, 9], j) for j in (1, 2, 3)] == [1, 5, 9]
        assert core.shortest_window([0, 1, 7, 8, 9], 3) == 3

    @pytest.mark.parametrize("pos, j", [([1, 5, 9], 0), ([1, 5, 9], -1), ([1, 5, 9], 4),
                                        ([], 1), ([], 0)])
    def test_rejects_j_outside_the_marks(self, pos, j):
        with pytest.raises(ValueError, match=rf"need 1 <= j <= {len(pos)} .*got j={j}"):
            core.shortest_window(pos, j)


class TestExtensionCritical:
    def test_examples(self):
        assert core.is_extension_critical("101") is True
        assert core.is_extension_critical("11") is False
        assert core.is_extension_critical("00") is True
        assert core.is_extension_critical("") is False

    @pytest.mark.parametrize("n", range(0, 13))
    def test_matches_direct_extension_test(self, n):
        for w in all_words(n):
            if core.is_prefix_normal(w):
                assert core.is_extension_critical(w) == (
                    not core.is_prefix_normal(w + "1")), w

    def test_rejects_word_that_is_not_prefix_normal(self):
        with pytest.raises(ValueError, match="prefix normal"):
            core.is_extension_critical("0111")

    def test_rejects_under_optimize_flag(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "from pnwords import core; core.is_extension_critical('0111')"],
            capture_output=True, text=True)
        assert proc.returncode == 1 and "ValueError" in proc.stderr


class TestPrefixClosure:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_prefixes_and_zero_extension_stay_normal(self, n):
        from pnwords import pn_words
        for w in pn_words(n):
            assert core.is_prefix_normal(w[:-1])
            assert core.is_prefix_normal(w + "0")


class TestBjpmIndex:
    def test_examples(self):
        idx = core.BjpmIndex.from_word("11010")
        assert idx.query(2, 1) is True
        assert idx.query(1, 3) is False
        assert idx.query(0, 0) is True

    def test_out_of_range_is_false(self):
        idx = core.BjpmIndex.from_word("101")
        assert idx.query(3, 1) is False

    def test_negative_counts_raise(self):
        idx = core.BjpmIndex.from_word("101")
        with pytest.raises(ValueError):
            idx.query(-1, 2)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_exhaustive_vs_substring_enumeration(self, n):
        for w in all_words(n):
            idx = core.BjpmIndex.from_word(w)
            achievable = brute_substring_parikh(w)
            for x in range(n + 1):
                for y in range(n + 1 - x):
                    assert idx.query(x, y) == ((x, y) in achievable), (w, x, y)

    @given(st.text(alphabet="01", max_size=40), st.integers(0, 42), st.integers(0, 42))
    def test_query_matches_window_scan(self, w, x, y):
        k = x + y
        windows = (w[i:i + k].count("1") for i in range(len(w) - k + 1))
        assert core.BjpmIndex.from_word(w).query(x, y) == (x in windows)

    @given(words_st)
    def test_min_le_max(self, w):
        idx = core.BjpmIndex.from_word(w)
        assert all(idx.min_ones[k] <= idx.max_ones[k] for k in range(len(w) + 1))


class TestComplement:
    @given(words_st)
    def test_involution(self, w):
        assert core.complement(core.complement(w)) == w
        assert core.weight(core.complement(w)) == len(w) - core.weight(w)
