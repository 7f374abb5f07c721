import copy
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnwords import analysis, core, pnoracle

from conftest import (INT_SPELLINGS, LENGTH5_CLASSES, PNW_COUNTS, all_words,
                      brute_run_length_blocks, cr_sum_by_scan, phase1_passed_by_n_table,
                      phase1_rejected_by_scan)


def _pairwise_report(words, cyclic):
    """GrayReport from transposition_counts on every pair (the slow twin)."""
    pairs = list(zip(words, words[1:]))
    if cyclic and len(words) > 1:
        pairs.append((words[-1], words[0]))
    report = analysis.GrayReport(pairs=len(pairs), words=len(words))
    for index, (u, v) in enumerate(pairs):
        p, q = analysis.transposition_counts(u, v)
        if not analysis.gray_close(p, q):
            report.violations.append(analysis.GrayViolation(index, u, v, p, q))
    return report


def _gray_close_by_cases(p, q):
    """Gray closeness as a table of weight changes q - p."""
    dw = q - p
    if dw == 0:
        return p <= 2
    if dw in (1, -1):
        return min(p, q) <= 1
    if dw in (2, -2):
        return min(p, q) == 0
    return False



class TestGrayCloseness:
    def test_max_rule_matches_case_table(self):
        for p in range(9):
            for q in range(9):
                assert analysis.gray_close(p, q) == _gray_close_by_cases(p, q), (p, q)

    @pytest.mark.parametrize("word", INT_SPELLINGS)
    def test_transposition_counts_rejects_int_spellings(self, word):
        with pytest.raises(core.WordFormatError):
            analysis.transposition_counts(word, "0" * len(word))
        with pytest.raises(core.WordFormatError):
            analysis.transposition_counts("0" * len(word), word)

    @pytest.mark.parametrize("word", INT_SPELLINGS)
    def test_verify_gray_rejects_int_spellings(self, word):
        with pytest.raises(core.WordFormatError):
            analysis.verify_gray(["0" * len(word), word])

    def test_pair_examples(self):
        assert analysis.transposition_counts("1100011", "1110001") == (1, 1)
        assert analysis.transposition_counts("1111000", "1110110") == (1, 2)
        assert analysis.gray_close(1, 1) and analysis.gray_close(1, 2)
        assert analysis.gray_close(0, 2) and analysis.gray_close(2, 0)  # two flips
        assert not analysis.gray_close(3, 3)
        assert not analysis.gray_close(1, 3)
        assert not analysis.gray_close(2, 4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            analysis.transposition_counts("10", "100")
        with pytest.raises(ValueError, match="words must have equal length"):
            analysis.verify_gray(["10", "11", "100"])

    def test_detects_violations(self):
        report = analysis.verify_gray(["0000", "1111", "1110"])
        assert report.pairs == 2
        assert len(report.violations) == 1
        v = report.violations[0]
        assert (v.index, v.word, v.next_word, v.p, v.q) == (0, "0000", "1111", 0, 4)

    def test_cyclic_checks_wrap_pair(self):
        ok = analysis.verify_gray(["00", "10", "11"], cyclic=True)
        assert ok.ok and ok.pairs == 3
        bad = analysis.verify_gray(["0000", "1100", "1111"], cyclic=True)
        assert not bad.ok  # wrap pair 1111 -> 0000 flips four bits

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("words", [[], ["0000"], ["0000", "1100", "1111"]])
    def test_finish_twice_gives_the_same_report(self, words, cyclic):
        checker = analysis.GrayChecker(cyclic=cyclic)
        for w in words:
            checker.feed(w)
        first = copy.deepcopy(checker.finish())
        assert checker.finish() == first == analysis.verify_gray(words, cyclic=cyclic)
        if cyclic and len(words) == 3:
            assert first.pairs == 3 and len(first.violations) == 1

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_checker_matches_pairwise_counts(self, seed, cyclic):
        rng = random.Random(seed)
        n = rng.randrange(13)
        listings = [["", "", ""]]
        for _ in range(5):
            x = rng.getrandbits(n) if n else 0
            words = [format(x, f"0{n}b") if n else ""]
            for _ in range(rng.randrange(1, 40)):
                if n and rng.random() < 0.3:
                    x = rng.getrandbits(n)  # mostly a violation
                else:  # up to four flips: close, or a violation at four
                    for _ in range(rng.randrange(5) if n else 0):
                        x ^= 1 << rng.randrange(n)
                words.append(format(x, f"0{n}b") if n else "")
            listings.append(words)
        for words in listings:
            assert analysis.verify_gray(words, cyclic=cyclic) == _pairwise_report(words, cyclic)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_generator_listings_are_gray(self, n):
        assert analysis.verify_gray(pnoracle.pn_words(n)).ok
        assert analysis.verify_gray(pnoracle.pn_words(n, cyclic=True), cyclic=True).ok


def _lines(words):
    return "".join(w + "\n" for w in words).encode()


def _block_report(words, cyclic, size):
    """GrayReport from feed_block on blocks of size lines."""
    checker = analysis.GrayChecker(cyclic=cyclic)
    for i in range(0, len(words), size):
        assert checker.feed_block(_lines(words[i:i + size])) == len(words[i:i + size])
    return checker.finish()


def _kernel_agrees(kernel, n):
    """Does kernel give the pairwise closeness of 40 seeded blocks of
    length-n words, with 0-5 flips or a jump between lines?"""
    rng = random.Random(n)
    for _ in range(40):
        x = rng.getrandbits(n)
        words = [format(x, f"0{n}b")]
        for _ in range(rng.randrange(1, 6)):
            if rng.random() < 0.2:
                x = rng.choice([0, (1 << n) - 1, rng.getrandbits(n)])
            else:
                for _ in range(rng.randrange(6)):
                    x ^= 1 << rng.randrange(n)
            words.append(format(x, f"0{n}b"))
        want = all(analysis.gray_close(*analysis.transposition_counts(u, v))
                   for u, v in zip(words, words[1:]))
        if kernel(_lines(words), n + 1) != want:
            return False
    return True


def _rounds_kernel(rounds):
    """_lanes_close clearing each lane's lowest change rounds times, not
    twice: a mutant unless rounds == 2."""
    def kernel(block, w):
        x = int(block.translate(analysis._NEWLINE_TO_0), 2)
        mask, g, g2 = analysis._lane_bits(w, len(block) // w)
        d = (x ^ x << w) & mask
        for m in (x & d | g, x << w & d | g):
            for _ in range(rounds):
                m = m & m - g2 | g
            if m != g:
                return False
        return True
    return kernel


def _injected_listing(n, cyclic, seed):
    """A seeded generator listing with violations.  A complemented word
    breaks both of its pairs: the first pair and the wrap pair (word 0),
    the last two pairs, and pairs across 2- and 3-line block boundaries
    (words 6 and 9).  1-3 flips, next to each other and at random
    places, make p or q about 3, next to the limit."""
    rng = random.Random(seed)
    words = pnoracle.pn_words(n, cyclic=cyclic)
    for i in (0, 6, 9, len(words) - 2):
        words[i] = core.complement(words[i])
    for i in {3, 4, 14, 15, 16, *rng.sample(range(20, len(words) - 4), 8)}:
        x = int(words[i], 2)
        for _ in range(rng.randrange(1, 4)):
            x ^= 1 << rng.randrange(n)
        words[i] = format(x, f"0{n}b")
    return words


class TestGrayBlocks:
    """feed_block against the pairwise twin, and its refusals."""

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("n", range(10, 15))
    def test_matches_pairwise_report(self, n, cyclic):
        for seed in range(3):
            words = _injected_listing(n, cyclic, seed)
            want = _pairwise_report(words, cyclic)
            indices = {v.index for v in want.violations}
            assert {0, 5, 6, 8, 9, len(words) - 3, len(words) - 2} <= indices
            if cyclic:
                assert len(words) - 1 in indices
            for size in (1, 2, 3, 64, len(words)):
                assert _block_report(words, cyclic, size) == want, (seed, size)

    def test_clean_listings_take_the_kernel(self, monkeypatch):
        calls = []
        kernel = analysis._lanes_close
        monkeypatch.setattr(analysis, "_lanes_close",
                            lambda *args: calls.append(args) or kernel(*args))
        for cyclic in (False, True):
            words = pnoracle.pn_words(14, cyclic=cyclic)
            assert _block_report(words, cyclic, 64) == _pairwise_report(words, cyclic)
        assert len(calls) == 2 * -(-len(words) // 64)

    def test_a_kernel_that_passes_everything_is_caught(self, monkeypatch):
        monkeypatch.setattr(analysis, "_lanes_close", lambda block, w: True)
        words = _injected_listing(12, False, 0)
        assert _block_report(words, False, 3) != _pairwise_report(words, False)

    def test_a_kernel_that_clears_once_or_three_times_is_caught(self, monkeypatch):
        assert _kernel_agrees(_rounds_kernel(2), 40)  # the kernel's own two rounds
        # one round rejects p = 2: the pairwise closeness catches it
        assert not _rounds_kernel(1)(_lines(["0000", "1100"]), 5)
        assert not _kernel_agrees(_rounds_kernel(1), 40)
        # three rounds accept p = 3: the pairwise report catches it as well
        assert _rounds_kernel(3)(_lines(["0000", "1110"]), 5)
        assert not _kernel_agrees(_rounds_kernel(3), 40)
        monkeypatch.setattr(analysis, "_lanes_close", _rounds_kernel(3))
        words = _injected_listing(12, False, 0)
        assert _block_report(words, False, 3) != _pairwise_report(words, False)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 29, 30, 31, 32, 63, 64, 65, 254, 255,
                                   256, 300, 1024])
    def test_kernel_matches_pairwise_closeness(self, n):
        assert _kernel_agrees(analysis._lanes_close, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 29, 30, 31, 63, 64, 65, 256, 1024])
    def test_kernel_at_the_limit(self, n):
        """Pairs with p and q in 0..3 at the ends and inside of each lane,
        between lines with no change (whose borrow runs through the whole
        lane into the guard above), in blocks of k = 1 and k = 2 lines and
        inside longer ones."""
        rng = random.Random(n)
        zeros, ones = "0" * n, "1" * n
        for line in (zeros, ones, format(rng.getrandbits(n), f"0{n}b")):
            assert analysis._lanes_close(_lines([line]), n + 1)
        for p in range(min(n, 3) + 1):
            for q in range(min(n - p, 3) + 1):
                for _ in range(6):
                    order = rng.sample(range(n), n)
                    if rng.random() < 0.5:  # the lane's first and last symbols
                        order.sort(key=lambda i: i not in (0, n - 1))
                    places = order[:p + q]
                    u = [rng.choice("01") for _ in range(n)]
                    for i in places[:p]:
                        u[i] = "1"
                    for i in places[p:]:
                        u[i] = "0"
                    v = list(u)
                    for i in places:
                        v[i] = "10"[int(u[i])]
                    u, v = "".join(u), "".join(v)
                    assert analysis.transposition_counts(u, v) == (p, q)
                    want = analysis.gray_close(p, q)
                    for words in ([u, v], [u, u, u, v, v, v]):
                        assert analysis._lanes_close(_lines(words), n + 1) == want, words
        for words in ([zeros, ones], [ones, zeros], [zeros, zeros, ones, ones],
                      [ones, ones, zeros, zeros], [zeros, ones] * 3):
            want = n <= 2
            assert analysis._lanes_close(_lines(words), n + 1) == want, words
            assert _block_report(words, False, len(words)) == _pairwise_report(words, False)

    def test_full_lanes_do_not_carry(self):
        ones, zeros = "1" * 255, "0" * 255
        for words in ([ones, zeros, ones], [zeros, ones, zeros], [ones, ones, zeros]):
            assert not analysis._lanes_close(_lines(words), 256)
        assert analysis._lanes_close(_lines([ones, ones, ones[:-2] + "00"]), 256)
        assert _block_report([ones, zeros, ones], True, 3) == _pairwise_report(
            [ones, zeros, ones], True)
        # p = 256 and p = 1024 are no limit: bit lanes never carry
        for width in (256, 1024):
            words = ["1" * width, "0" * width, "0" * (width - 2) + "11"]
            assert not analysis._lanes_close(_lines(words), width + 1)
            report = _block_report(words, False, 3)
            assert report == analysis.verify_gray(words)
            assert [(v.index, v.p, v.q) for v in report.violations] == [(0, width, 0)]

    @pytest.mark.parametrize("block", [
        b"", b"1000", b"\n", b"1000\n\n", b"1000\r\n1100\r\n", b"1000\n110\n",
        b"1000\n1100", b"10\n1100\n", b"1000\n1\xff00\n", b"1000\n0b10\n",
        b"1000\n 100\n", ("1" * 256 + "\n" + "1" * 255 + "\n").encode()])
    def test_refuses_and_feeds_nothing(self, block):
        fresh, fed = analysis.GrayChecker(), analysis.GrayChecker()
        fed.feed("1100")
        for checker in (fresh, fed):
            before = copy.deepcopy(vars(checker))
            assert checker.feed_block(block) == 0
            assert vars(checker) == before

    def test_refuses_a_width_change_between_blocks(self):
        checker = analysis.GrayChecker()
        assert checker.feed_block(b"1000\n1100\n") == 2
        assert checker.feed_block(b"11000\n") == 0
        assert checker.feed_block(b"1110\n") == 1
        assert checker.finish() == analysis.verify_gray(["1000", "1100", "1110"])


def _bytes_report(data, cyclic, size):
    """GrayReport of feed_bytes on data in pieces of size bytes, or the
    message of the ValueError it raised."""
    checker = analysis.GrayChecker(cyclic=cyclic)
    try:
        for i in range(0, len(data), size):
            checker.feed_bytes(data[i:i + size])
        return checker.finish()
    except ValueError as exc:
        return str(exc)


def _text_variants(words, rng):
    """(name, listing text of words, line number of its error or None):
    the plain text, CRLF lines, no final newline, and a blank, shorter or
    \\xff line."""
    i = rng.randrange(1, len(words) - 1)
    lines = [w.encode() + b"\n" for w in words]
    crlf = [line[:-1] + b"\r\n" if rng.random() < 0.3 else line for line in lines]
    edits = {"blank": b"\n", "shorter": lines[i][1:], "xff": b"\xff" + lines[i][1:]}
    return [("plain", b"".join(lines), None), ("crlf", b"".join(crlf), None),
            ("no-final-newline", b"".join(lines)[:-1], None),
            *((name, b"".join(lines[:i] + [line] + lines[i + 1:]), i + 1)
              for name, line in edits.items())]


class TestFeedBytes:
    """feed_bytes reads listing text cut at any point: every cut gives the
    report, or the ValueError message, of one call on the whole text."""

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("n", range(10, 15))
    def test_any_chunking_matches_one_call(self, n, cyclic):
        words = _injected_listing(n, cyclic, n)
        for name, data, error_line in _text_variants(words, random.Random(n)):
            whole = _bytes_report(data, cyclic, len(data))
            if error_line is None:
                assert whole == _pairwise_report(words, cyclic), name
            else:
                assert whole.startswith(f"line {error_line}: "), (name, whole)
            for size in (1, 2, 7, 64):
                assert _bytes_report(data, cyclic, size) == whole, (name, size)

    def test_a_short_listing_cut_at_every_offset(self):
        words = _injected_listing(7, True, 0)
        for name, data, _ in _text_variants(words, random.Random(7)):
            whole = _bytes_report(data, True, len(data))
            for cut in range(len(data) + 1):
                checker = analysis.GrayChecker(cyclic=True)
                try:
                    checker.feed_bytes(data[:cut])
                    checker.feed_bytes(data[cut:])
                    got = checker.finish()
                except ValueError as exc:
                    got = str(exc)
                assert got == whole, (name, cut)

    @pytest.mark.parametrize("n", [255, 300])  # both take the kernel, at any width
    def test_lines_longer_than_four_pieces(self, n, monkeypatch):
        monkeypatch.setattr(analysis.GrayChecker, "_feed_line", None)  # not line by line
        rng = random.Random(n)
        x, words = rng.getrandbits(n), []
        for _ in range(50):
            for _ in range(rng.randrange(4)):
                x ^= 1 << rng.randrange(n)
            words.append(format(x, f"0{n}b"))
        report = _bytes_report(_lines(words), False, n // 5)
        assert report == _pairwise_report(words, False) and report.violations

    def test_finish_twice_feeds_the_last_line_once(self):
        checker = analysis.GrayChecker(cyclic=True)
        checker.feed_bytes(b"0000\n1111\n10")
        checker.feed_bytes(b"00")
        first = copy.deepcopy(checker.finish())
        assert checker.finish() == first == _pairwise_report(["0000", "1111", "1000"], True)
        assert (first.words, first.pairs) == (3, 3)

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_words(self, count, cyclic):
        report = _bytes_report(b"10\n11\n"[:3 * count], cyclic, 1)
        assert report.words == count
        assert report.pairs == (count if cyclic and count > 1 else max(count - 1, 0))


EDGE_ARGUMENTS = {  # call -> ValueError message, or the result
    "generate_all_pn(-1)": (lambda: pnoracle.generate_all_pn(-1), "n must be non-negative"),
    "generate_all_pn_cyclic(-1)": (lambda: pnoracle.generate_all_pn_cyclic(-1),
                                   "n must be non-negative"),
    "simple_generate_pn(-1)": (lambda: pnoracle.simple_generate_pn(-1), "n must be non-negative"),
    "critical_prefix_sum(-1)": (lambda: analysis.critical_prefix_sum(-1), "n must be non-negative"),
    "rejection_ratio(0)": (lambda: analysis.rejection_ratio(0), "n must be positive"),
    # the counts take n > 30 under an explicit cap; only the 2^n enumeration keeps the limit
    "rejection_ratio(31, cap=40)": (lambda: analysis.rejection_ratio(31, cap=40),
                                    analysis.RatioReport(31, "combined", 2005921309, 141562339,
                                                         "2.044")),
    "critical_prefix_sum(64, cap=64)": (lambda: analysis.critical_prefix_sum(64, cap=64),
                                        3 * 2**64 - 67),
    "equivalence_class('1' * 31, cap=40)": (lambda: analysis.equivalence_class("1" * 31, cap=40),
                                            "exhaustive scans support n <= 30"),
    "pnf_cr_sample(0, 1, 0)": (lambda: analysis.pnf_cr_sample(0, 1, 0), "n must be positive"),
    "critical_prefix_of_pnf('')": (lambda: analysis.critical_prefix_of_pnf(""),
                                   "empty word has no critical prefix"),
    "equivalence_class('')": (lambda: analysis.equivalence_class(""), {""}),
}


@pytest.mark.parametrize("call, outcome", EDGE_ARGUMENTS.values(), ids=EDGE_ARGUMENTS)
def test_edge_arguments(call, outcome):
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            call()
    else:
        assert call() == outcome


class TestCounts:
    def test_reference_counts(self):
        assert [analysis.count_pnw(n) for n in range(1, 13)] == PNW_COUNTS

    def test_growth_factor(self):
        counts = [analysis.count_pnw(n) for n in range(1, 17)]
        for prev, cur in zip(counts, counts[1:]):
            assert 2 * cur >= 3 * prev

    def test_deficit(self):
        count, deficit = analysis.pnw_deficit(12)
        assert count == 697
        assert deficit > 0


class TestCriticalPrefixSum:
    def test_small_values(self):
        assert analysis.critical_prefix_sum(0) == 0
        assert analysis.critical_prefix_sum(1) == 2
        assert analysis.critical_prefix_sum(2) == 7

    @pytest.mark.parametrize("n", range(0, 15))
    def test_closed_form(self, n):
        assert analysis.critical_prefix_sum(n) == 3 * 2**n - (n + 3)

    def test_recurrence(self):
        values = [analysis.critical_prefix_sum(n) for n in range(15)]
        for n in range(1, 15):
            assert values[n] == 2 * values[n - 1] + (n + 1)

    @pytest.mark.parametrize("n", range(0, 17))
    def test_matches_per_word_scan(self, n):
        assert analysis.critical_prefix_sum(n) == cr_sum_by_scan(n)

    def test_cap_refusal(self):
        with pytest.raises(ValueError):
            analysis.critical_prefix_sum(21)
        assert analysis.critical_prefix_sum(21, cap=21) == 3 * 2**21 - 24

    def test_jobs_identical(self):
        # jobs is accepted for compatibility and has no effect
        assert analysis.critical_prefix_sum(16, jobs=4) == analysis.critical_prefix_sum(16)
        assert analysis.critical_prefix_sum(18, jobs=2) == analysis.critical_prefix_sum(18)

    def test_all_words_stats(self):
        stats = analysis.cr_stats_all_words(10)
        assert stats.count == 1024 and stats.total == 3059
        assert stats.mean == Fraction(3059, 1024)


class TestAvgCrPn:
    def test_small_values(self):
        assert pnoracle.generate_all_pn(5).avg_cr == Fraction(55, 14)
        assert pnoracle.generate_all_pn(1).avg_cr == 1

    def test_monotone_growth(self):
        means = [pnoracle.generate_all_pn(n).avg_cr for n in range(8, 17)]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_pn_stats(self):
        stats = analysis.cr_stats_pn(5)
        assert (stats.count, stats.total) == (14, 55)


class TestPnfCriticalPrefix:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_shortcut_matches_full_pnf(self, n):
        for w in all_words(n):
            assert analysis.critical_prefix_of_pnf(w) == core.critical_prefix(core.pnf(w)).cr, w

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_twin_blocks_of_pnf(self, n):
        for w in all_words(n):
            assert analysis.critical_prefix_of_pnf(w) == sum(
                brute_run_length_blocks(core.pnf(w))[0]), w

    def test_matches_twin_blocks_of_pnf_long(self):
        rng = random.Random(3141)
        for _ in range(150):
            n = rng.randint(1, 1024)
            w = format(rng.getrandbits(n), f"0{n}b")
            for u in (w, core.pnf(w)):
                assert analysis.critical_prefix_of_pnf(u) == sum(
                    brute_run_length_blocks(core.pnf(u))[0]), u

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0))
    def test_shortcut_matches_full_pnf_random(self, n, x):
        w = format(x % (1 << n), f"0{n}b")
        assert analysis.critical_prefix_of_pnf(w) == core.critical_prefix(core.pnf(w)).cr

    def test_length2_mean_is_two(self):
        # every prefix normal form of a length-2 word has full critical prefix
        stats = analysis.pnf_cr_sample(2, samples=64, seed=5)
        assert stats.mean == 2

    def test_deterministic_under_seed(self):
        a = analysis.pnf_cr_sample(40, samples=100, seed=11)
        b = analysis.pnf_cr_sample(40, samples=100, seed=11)
        assert (a.total, a.mean) == (b.total, b.mean)

    def test_slow_growth_band(self):
        small = analysis.pnf_cr_sample(64, samples=300, seed=3)
        large = analysis.pnf_cr_sample(4096, samples=300, seed=3)
        assert small.mean < large.mean < 3 * small.mean

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            analysis.pnf_cr_sample(8, samples=0, seed=1)


class TestEquivalenceClasses:
    def test_reference_rows(self):
        assert analysis.equivalence_class("11010") == {"11010", "10110", "01101", "01011"}
        assert analysis.equivalence_class("10000") == {"10000", "01000", "00100", "00010", "00001"}
        assert analysis.equivalence_class("11111") == {"11111"}

    def test_rejects_non_normal_input(self):
        with pytest.raises(ValueError):
            analysis.equivalence_class("10011")

    def test_cap_refusal(self):
        with pytest.raises(ValueError):
            analysis.equivalence_class("1" * 21)

    def test_all_length5_rows(self):
        for w, members in LENGTH5_CLASSES.items():
            assert analysis.equivalence_class(w) == members


class TestRejectionRatio:
    def test_reference_values(self):
        assert analysis.rejection_ratio(10, "trivial").ratio == "2.500"
        assert analysis.rejection_ratio(10, "combined").ratio == "2.168"
        assert analysis.rejection_ratio(12, "combined").ratio == "2.142"

    @pytest.mark.parametrize("mode", ["trivial", "combined"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_per_word_phase1(self, n, mode):
        rejected = phase1_rejected_by_scan(n, mode)
        report = analysis.rejection_ratio(n, mode)
        assert report.rejected == rejected
        assert report.passed == (1 << n) - rejected

    @pytest.mark.parametrize("mode", ["trivial", "combined"])
    @pytest.mark.parametrize("n", [*range(1, 33), 40])
    def test_matches_n_table(self, n, mode):
        assert analysis.rejection_ratio(n, mode, cap=n).passed == phase1_passed_by_n_table(n, mode)

    @pytest.mark.parametrize("r", range(15))
    def test_runs_at_most_matches_enumeration(self, r):
        # trivial mode's count, B_k(r); k >= r admits all 2^r words
        longest = [max(map(len, w.split("0"))) for w in all_words(r)]
        for k in range(7):
            assert analysis._runs_at_most(k, r) == sum(m <= k for m in longest)

    def test_csv_line(self):
        assert analysis.rejection_ratio(10, "combined").csv() == "10,802,222,2.168"

    def test_rounding_is_half_even(self):
        assert analysis._round3(25, 10000) == "0.002"  # 0.0025 rounds to even
        assert analysis._round3(35, 10000) == "0.004"  # 0.0035 rounds up to even
        assert analysis._round3(1, 3) == "0.333"

    def test_cap_and_mode_errors(self):
        with pytest.raises(ValueError):
            analysis.rejection_ratio(22)
        with pytest.raises(ValueError, match="above the exhaustive cap 40"):
            analysis.rejection_ratio(41, cap=40)
        with pytest.raises(ValueError):
            analysis.rejection_ratio(8, "bogus")

    # n = 26 agrees with a numpy scan of all 2^26 words that this module
    # once ran; n = 30 to 60 are the counts of the N-table program that
    # phase1_passed_by_n_table keeps
    @pytest.mark.parametrize("n, mode, rejected, passed, ratio", [
        (26, "trivial", 60085302, 7023562, "2.721"),
        (26, "combined", 61793183, 5315681, "2.059"),
        (30, "trivial", 975559158, 98182666, "2.743"),
        (30, "combined", 1000493876, 73247948, "2.047"),
        (40, "trivial", 1023140864938, 76370762838, "2.778"),
        (40, "combined", 1043997336003, 55514291773, "2.020"),
        (50, "combined", 1080898646461597, 45001260381027, "1.998"),
        (50, "trivial", 1062889617284568, 63010289558056, "2.798"),
        (60, "combined", 1114839761091032619, 38081743515814357, "1.982"),
        (60, "trivial", 1098889417253978562, 54032087352868414, "2.812"),
    ])
    def test_pinned_cells(self, n, mode, rejected, passed, ratio):
        report = analysis.rejection_ratio(n, mode, cap=n)
        assert (report.rejected, report.passed, report.ratio) == (rejected, passed, ratio)

    def test_jobs_identical(self):
        for n, jobs in ((14, 3), (18, 2)):  # jobs has no effect
            for mode in ("trivial", "combined"):
                a = analysis.rejection_ratio(n, mode, jobs=jobs)
                b = analysis.rejection_ratio(n, mode)
                assert (a.rejected, a.ratio) == (b.rejected, b.ratio)

    def test_odd_lengths_also_decrease_in_combined_mode(self):
        exact = [Fraction(n * analysis.rejection_ratio(n, "combined").passed, 1 << n)
                 for n in (11, 13, 15, 17)]
        assert all(b < a for a, b in zip(exact, exact[1:]))


class TestScanKernels:
    """The counted statistics against the scalar twins in ``core``, and no
    pool started where one core is usable."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_small_chunks(self, n):
        for mode in ("trivial", "combined"):
            assert analysis.rejection_ratio(n, mode).rejected == phase1_rejected_by_scan(n, mode)
        assert analysis.critical_prefix_sum(n) == 3 * 2**n - (n + 3)

    def test_one_usable_core_starts_no_pool(self, monkeypatch):
        # taskset -c 0 on a many-core machine: no thread pool, and not the
        # counting run's process pool, is constructed
        import concurrent.futures
        import multiprocessing

        made = []

        def refuse(name):
            def construct(*args, **kwargs):
                made.append(name)
                raise AssertionError(f"{name} constructed")
            return construct

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse("threads"))
        monkeypatch.setattr(multiprocessing, "get_context", refuse("processes"))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 0)
        assert analysis.critical_prefix_sum(12, jobs=4) == 3 * 2**12 - 15
        assert analysis.count_pnw(12) == PNW_COUNTS[11]
        assert made == []
