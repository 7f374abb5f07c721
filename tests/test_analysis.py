import copy
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnwords import analysis, core, pnoracle

from conftest import INT_SPELLINGS, LENGTH5_CLASSES, PNW_COUNTS, all_words, brute_run_length_blocks


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

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 254, 255])
    def test_kernel_matches_pairwise_closeness(self, n):
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
            assert analysis._lanes_close(_lines(words), n + 1) == want, words

    def test_full_lanes_do_not_carry(self):
        ones, zeros = "1" * 255, "0" * 255
        for words in ([ones, zeros, ones], [zeros, ones, zeros], [ones, ones, zeros]):
            assert not analysis._lanes_close(_lines(words), 256)
        assert analysis._lanes_close(_lines([ones, ones, ones[:-2] + "00"]), 256)
        assert _block_report([ones, zeros, ones], True, 3) == _pairwise_report(
            [ones, zeros, ones], True)
        # p = 256 would carry out of its lane
        assert analysis.GrayChecker().feed_block(_lines([ones + "1", zeros + "0"])) == 0

    @pytest.mark.parametrize("block", [
        b"", b"1000", b"\n", b"1000\n\n", b"1000\r\n1100\r\n", b"1000\n110\n",
        b"1000\n1100", b"10\n1100\n", b"1000\n1\xff00\n", b"1000\n0b10\n",
        b"1000\n 100\n", ("1" * 256 + "\n").encode() * 2])
    def test_refuses_and_feeds_nothing(self, block):
        checker = analysis.GrayChecker()
        checker.feed("1100")
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

    @pytest.mark.parametrize("n", [255, 300])  # the kernel, and line by line
    def test_lines_longer_than_four_pieces(self, n):
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
    "rejection_ratio(31, cap=40)": (lambda: analysis.rejection_ratio(31, cap=40),
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

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_per_word_scan(self, n):
        expected = sum(core.critical_prefix(w).cr for w in all_words(n))
        assert analysis.critical_prefix_sum(n) == expected

    def test_cap_refusal(self):
        with pytest.raises(ValueError):
            analysis.critical_prefix_sum(21)
        assert analysis.critical_prefix_sum(21, cap=21) == 3 * 2**21 - 24

    def test_jobs_identical(self):
        assert analysis.critical_prefix_sum(16, jobs=4) == analysis.critical_prefix_sum(16)
        # four chunks
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
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_per_word_phase1(self, n, mode):
        rejected = sum(core.phase1_rejects(w, mode) for w in all_words(n))
        report = analysis.rejection_ratio(n, mode)
        assert report.rejected == rejected
        assert report.passed == (1 << n) - rejected

    def test_csv_line(self):
        assert analysis.rejection_ratio(10, "combined").csv() == "10,802,222,2.168"

    def test_rounding_is_half_even(self):
        assert analysis._round3(25, 10000) == "0.002"  # 0.0025 rounds to even
        assert analysis._round3(35, 10000) == "0.004"  # 0.0035 rounds up to even
        assert analysis._round3(1, 3) == "0.333"

    def test_cap_and_mode_errors(self):
        with pytest.raises(ValueError):
            analysis.rejection_ratio(22)
        with pytest.raises(ValueError):
            analysis.rejection_ratio(8, "bogus")

    def test_jobs_identical(self):
        for n, jobs in ((14, 3), (18, 2)):  # one chunk, four chunks
            for mode in ("trivial", "combined"):
                a = analysis.rejection_ratio(n, mode, jobs=jobs)
                b = analysis.rejection_ratio(n, mode)
                assert (a.rejected, a.ratio) == (b.rejected, b.ratio)

    def test_odd_lengths_also_decrease_in_combined_mode(self):
        exact = [Fraction(n * analysis.rejection_ratio(n, "combined").passed, 1 << n)
                 for n in (11, 13, 15, 17)]
        assert all(b < a for a, b in zip(exact, exact[1:]))


class TestScanKernels:
    """The chunk kernels across chunk boundaries and at the top of the
    supported range, against the scalar twins in ``core``."""

    def test_bit_length_is_exact(self):
        import numpy as np

        values = [0, *(v for k in range(1, 31) for v in (1 << (k - 1), (1 << k) - 1)),
                  *random.Random(31).sample(range(1 << 30), 1000)]
        got = analysis._bit_length(np.array(values, dtype=np.uint32))
        assert got.tolist() == [v.bit_length() for v in values]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_small_chunks(self, monkeypatch, n):
        monkeypatch.setattr(analysis, "_CHUNK", 1 << 6)
        for mode in ("trivial", "combined"):
            rejected = sum(core.phase1_rejects(w, mode) for w in all_words(n))
            assert analysis.rejection_ratio(n, mode).rejected == rejected
        assert analysis.critical_prefix_sum(n) == 3 * 2**n - (n + 3)

    @pytest.mark.parametrize("lo", [0, (1 << 30) - 4096,
                                    random.Random(30).randrange(0, (1 << 30) - 4096)])
    def test_top_of_range(self, lo):
        # words of length 30 shifted left past bit 31 of the uint32 register
        n, hi = 30, lo + 4096
        words = [format(x, f"0{n}b") for x in range(lo, hi)]
        for mode in ("trivial", "combined"):
            rejected = sum(core.phase1_rejects(w, mode) for w in words)
            assert analysis._phase1_chunk(n, lo, hi, mode == "combined") == rejected
        assert analysis._cr_sum_chunk(n, lo, hi) == sum(
            core.critical_prefix(w).cr for w in words)

    def test_pool_threads_bounded_by_cores(self, monkeypatch):
        import concurrent.futures

        made = []

        class SerialPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(analysis, "_CHUNK", 1 << 6)
        want = analysis.rejection_ratio(12, "combined").rejected
        assert analysis.rejection_ratio(12, "combined", jobs=10**6).rejected == want
        assert analysis.critical_prefix_sum(12, jobs=10**6) == 3 * 2**12 - 15
        assert made == [3, 3]
        assert analysis.critical_prefix_sum(6, jobs=10**6) == 3 * 2**6 - 9  # one chunk
        monkeypatch.delattr(os, "sched_getaffinity")  # no affinity mask: the CPU count
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one core
        assert analysis.critical_prefix_sum(12, jobs=10**6) == 3 * 2**12 - 15
        assert made == [3, 3]

    def test_one_usable_core_starts_no_pool(self, monkeypatch):
        # taskset -c 0 on a many-core machine: neither the scan's thread
        # pool nor the counting run's process pool is constructed
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
        monkeypatch.setattr(analysis, "_CHUNK", 1 << 6)
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 0)
        assert analysis.critical_prefix_sum(12, jobs=4) == 3 * 2**12 - 15
        assert analysis.count_pnw(12) == PNW_COUNTS[11]
        assert made == []
