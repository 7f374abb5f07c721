import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import groupby
from multiprocessing.pool import ThreadPool
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnwords import bubble, core, pnoracle

from conftest import (
    PNW_COUNTS,
    all_words,
    brute_is_prefix_normal,
    coolex_reference,
    needs_fork_pool,
    words_of_weight,
)


# (count, cr_sum, membership_calls, symbol_reads, swaps) of generate_all_pn(n),
# recorded from the recursive walker; every order gives the same counters.
COUNTERS = {
    0: (1, 0, 0, 0, 0),
    1: (2, 2, 0, 0, 0),
    2: (3, 6, 1, 0, 0),
    3: (5, 14, 3, 5, 2),
    4: (8, 28, 7, 20, 6),
    5: (14, 55, 16, 62, 16),
    6: (23, 100, 30, 142, 32),
    7: (41, 187, 59, 319, 66),
    8: (70, 334, 106, 635, 122),
    9: (125, 613, 196, 1266, 230),
    10: (218, 1096, 347, 2383, 414),
    11: (395, 2018, 635, 4561, 766),
    12: (697, 3625, 1121, 8388, 1368),
    13: (1273, 6708, 2046, 15792, 2518),
    14: (2279, 12177, 3642, 28948, 4528),
    15: (4185, 22631, 6660, 54205, 8338),
    16: (7568, 41440, 11952, 99581, 15102),
    17: (13997, 77501, 21982, 186746, 27958),
    18: (25500, 142853, 39743, 344411, 50962),
    19: (47414, 268451, 73470, 647603, 94788),
    20: (87024, 498170, 133879, 1200845, 174006),
    22: (299947, 1752690, 455941, 4218426, 599848),
}


def counters(stats):
    return (stats.count, stats.cr_sum, stats.membership_calls, stats.symbol_reads, stats.swaps)


def _broken_walk(n, d, visit, order, validate, **memo_and_lines):
    # module level, so a worker can unpickle it under any start method
    raise pnoracle.GenerationInvariantError(f"weight {d} of {n} failed")


_real_gen_weight = pnoracle._gen_weight


def _walk_then_fail(n, d, visit, order, validate, **memo_and_lines):
    # sends its class's text to the parent, then fails before its counters
    _real_gen_weight(n, d, visit, order, validate, **memo_and_lines)
    memo_and_lines["lines"].flush()
    raise pnoracle.GenerationInvariantError(f"weight {d} of {n} failed after its text")


def _count_in_worker(n):
    return counters(pnoracle.generate_all_pn(n))


def weight_blocks(words):
    """Split a listing into (weight, [words]) runs."""
    return [(d, list(g)) for d, g in groupby(words, key=lambda w: w.count("1"))]


class TestGenerateAll:
    def test_counts_match_reference_sequence(self):
        assert [pnoracle.generate_all_pn(n).count for n in range(1, 13)] == PNW_COUNTS

    def test_n1_listing(self):
        assert pnoracle.pn_words(1) == ["0", "1"]

    @pytest.mark.parametrize("n", range(0, 17))
    def test_validated_run_matches_plain_run(self, n):
        # a run with no sink counts leaves from their parent, and the
        # children of a node whose children are all leaves at once; a run
        # with a sink enters every node, and a validated one also checks it
        runs = [functools.partial(pnoracle.generate_all_pn, n),
                functools.partial(pnoracle.generate_all_pn, n, order="visit-first"),
                functools.partial(pnoracle.generate_all_pn_cyclic, n),
                *(functools.partial(pnoracle.gen_bubble_pn, n, d) for d in range(n + 1))]
        for run in runs:
            plain = bubble.Collector()
            checked = bubble.Collector()
            plain_stats = run(plain)
            checked_stats = run(checked, validate=True)  # raises on drift
            assert plain.words == checked.words
            assert counters(checked_stats) == counters(plain_stats) == counters(run())

    def test_validated_run_enters_every_node(self, monkeypatch):
        # check_node runs core.max_ones once per node entered, so a validated
        # run must not peel its leaves
        calls = []
        real = core.max_ones

        def counting(w):
            calls.append(w)
            return real(w)
        monkeypatch.setattr(core, "max_ones", counting)
        for n in (9, 14):
            for run in (pnoracle.generate_all_pn, pnoracle.generate_all_pn_cyclic):
                calls.clear()
                stats = run(n, validate=True)
                assert len(calls) == stats.count == COUNTERS[n][0]
                calls.clear()
                run(n)
                assert calls == []

    def test_validation_checks_f_against_the_lane_kernel(self, monkeypatch):
        # the walker keeps its fewest-0s table itself and never runs the
        # kernel; a validated run checks the table against core.max_ones, so
        # a wrong window maxima table must fail it
        kernel_runs = []
        real = core._window_max

        def counting(S, R, L, n):
            kernel_runs.append(n)
            return real(S, R, L, n)
        monkeypatch.setattr(core, "_window_max", counting)
        assert [pnoracle.generate_all_pn(n).count for n in range(1, 13)] == PNW_COUNTS
        assert kernel_runs == []
        for n in range(13):
            pnoracle.generate_all_pn(n, validate=True)
        assert kernel_runs

        def wrong_max_ones(w):
            f = [0, *real(*core._lanes(w), len(w))]
            f[1] += 1
            return f
        monkeypatch.setattr(core, "max_ones", wrong_max_ones)
        with pytest.raises(pnoracle.GenerationInvariantError, match=r"f\[1\.\."):
            pnoracle.generate_all_pn(8, validate=True)

    @pytest.mark.parametrize("n", (15, 16))
    def test_validated_larger_lengths(self, n):
        # exercises the per-node buffer and table restoration checksums
        pnoracle.generate_all_pn(n, validate=True)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_exactly_the_prefix_normal_words(self, n):
        assert sorted(pnoracle.pn_words(n)) == sorted(
            w for w in all_words(n) if core.is_prefix_normal(w))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_each_weight_block_ends_at_its_root(self, n):
        for d, block in weight_blocks(pnoracle.pn_words(n)):
            assert block[-1] == "1" * d + "0" * (n - d)

    def test_visit_first_order_same_set(self):
        post = pnoracle.pn_words(9)
        pre = pnoracle.pn_words(9, order="visit-first")
        assert sorted(pre) == sorted(post)
        assert pre != post
        # within each weight the first visit is that weight's root
        for d, block in weight_blocks(pre):
            assert block[0] == "1" * d + "0" * (9 - d)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            pnoracle.generate_all_pn(5, order="colex")


class TestSingleWeight:
    def test_matches_generic_framework_listing(self):
        for n, d in [(7, 4), (9, 3), (8, 5), (6, 0), (6, 6)]:
            fast = bubble.Collector()
            pnoracle.gen_bubble_pn(n, d, fast)
            naive = bubble.Collector()
            bubble.gen_bubble(bubble.naive_oracle(core.is_prefix_normal), n, d, naive)
            assert fast.words == naive.words

    @given(st.integers(0, 10).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n), st.sampled_from(pnoracle._ORDERS))))
    def test_listing_is_the_filtered_weight_class(self, case):
        n, d, order = case
        sink = bubble.Collector()
        pnoracle.gen_bubble_pn(n, d, sink, order=order)
        assert len(set(sink.words)) == len(sink.words)
        assert sorted(sink.words) == sorted(
            w for w in words_of_weight(n, d) if brute_is_prefix_normal(w))

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            pnoracle.gen_bubble_pn(4, 5)

    @pytest.mark.parametrize("order", ("coolex", "visit-first"))
    def test_deep_weight_class(self, order):
        # members are 1^k 0 1^(2399-k) for k >= 1200, each the only child of
        # k+1: a path 1199 levels deep, past the default recursion limit
        sink = bubble.Collector()
        stats = pnoracle.gen_bubble_pn(2400, 2399, sink, order=order)
        assert stats.count == len(sink.words) == 1200
        assert sorted(sink.words) == ["1" * k + "0" + "1" * (2399 - k) for k in range(1200, 2400)]
        assert sink.words[-1 if order == "coolex" else 0] == "1" * 2399 + "0"

    def test_validated_deep_weight_class(self):
        assert pnoracle.gen_bubble_pn(300, 299, validate=True).count == 150


class TestCyclic:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_same_set_as_ascending(self, n):
        assert sorted(pnoracle.pn_words(n, cyclic=True)) == sorted(pnoracle.pn_words(n))

    def test_weight_order_odd_up_even_down(self):
        words = pnoracle.pn_words(5, cyclic=True)
        assert len(words) == 14
        assert [d for d, _ in weight_blocks(words)] == [1, 3, 5, 4, 2, 0]
        assert words[0].count("1") == 1 and words[-1].count("1") == 0
        assert pnoracle.pn_words(1, cyclic=True) == ["1", "0"]

    @pytest.mark.parametrize("order", ("visit-first", "bogus"))
    def test_rejects_order(self, order):
        with pytest.raises(ValueError):
            pnoracle.pn_words(4, cyclic=True, order=order)

    def test_odd_blocks_are_reversed_coolex(self):
        cyclic_blocks = dict(weight_blocks(pnoracle.pn_words(9, cyclic=True)))
        for d in range(10):
            forward = bubble.Collector()
            pnoracle.gen_bubble_pn(9, d, forward)
            expected = forward.words[::-1] if d % 2 else forward.words
            assert cyclic_blocks[d] == expected, d

    @pytest.mark.parametrize("n", range(1, 13))
    def test_validated(self, n):
        checked = pnoracle.generate_all_pn_cyclic(n, validate=True)
        assert counters(checked) == COUNTERS[n]


class TestRecursiveReference:
    """gen_bubble and gen_bubble_pn share one walker; this checks it
    against the plain recursion of conftest.coolex_reference."""

    @pytest.mark.parametrize("n", range(0, 11))
    def test_generic_walker(self, n):
        naive = bubble.naive_oracle(core.is_prefix_normal)
        for d in range(n + 1):
            for oracle, member in ((lambda s, t, w: t, lambda w: True),
                                   (naive, brute_is_prefix_normal)):
                sink = bubble.Collector()
                bubble.gen_bubble(oracle, n, d, sink)
                assert sink.words == coolex_reference(member, n, d), (n, d)

    @pytest.mark.parametrize("order", ("coolex", "visit-first"))
    @pytest.mark.parametrize("n", range(0, 11))
    def test_prefix_normal_walker(self, n, order):
        for d in range(n + 1):
            sink = bubble.Collector()
            pnoracle.gen_bubble_pn(n, d, sink, order=order)
            assert sink.words == coolex_reference(brute_is_prefix_normal, n, d, order), (n, d)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_cyclic(self, n):
        expected = []
        for d in [*range(1, n + 1, 2), *range(n - n % 2, -1, -2)]:
            expected += coolex_reference(brute_is_prefix_normal, n, d,
                                         "reverse" if d % 2 else "coolex")
        assert pnoracle.pn_words(n, cyclic=True) == expected


class TestSimpleGenerator:
    @pytest.mark.parametrize("n", range(0, 13))
    def test_same_set_as_gray_generator(self, n):
        sink = bubble.Collector()
        pnoracle.simple_generate_pn(n, sink)
        assert sorted(sink.words) == sorted(pnoracle.pn_words(n))

    def test_ascending_lexicographic(self):
        sink = bubble.Collector()
        pnoracle.simple_generate_pn(8, sink)
        assert sink.words == sorted(sink.words)

    def test_n1(self):
        sink = bubble.Collector()
        stats = pnoracle.simple_generate_pn(1, sink)
        assert sink.words == ["0", "1"] and stats.count == 2

    def test_count_12(self):
        assert pnoracle.simple_generate_pn(12).count == 697

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(13, 25))
    def test_count_agrees_with_gray_generator(self, n):
        # two independent algorithms; at the larger n the Gray count comes
        # from the process pool
        assert pnoracle.generate_all_pn(n).count == pnoracle.simple_generate_pn(n).count

    def test_long_words(self):
        # one level per position: 1200 levels, past the default recursion limit
        class Enough(Exception):
            pass

        seen = []

        def visit(view):
            seen.append(bubble.word_str(view))
            if len(seen) == 5:
                raise Enough

        with pytest.raises(Enough):
            pnoracle.simple_generate_pn(1200, visit)
        assert seen == ["0" * 1200, "1" + "0" * 1199, "1" + "0" * 1198 + "1",
                        "1" + "0" * 1197 + "10", "1" + "0" * 1196 + "100"]


class TestStatsAndInstrumentation:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_cr_sum_matches_per_word_scan(self, n):
        stats = pnoracle.generate_all_pn(n)
        expected = sum(core.critical_prefix(w).cr for w in pnoracle.pn_words(n))
        assert stats.cr_sum == expected
        simple = pnoracle.simple_generate_pn(n)
        assert simple.cr_sum == expected

    def test_avg_cr_is_exact_fraction(self):
        assert pnoracle.generate_all_pn(5).avg_cr == Fraction(55, 14)
        assert pnoracle.generate_all_pn(1).avg_cr == Fraction(1)

    @pytest.mark.parametrize("n", range(6, 15))
    def test_symbol_reads_track_total_critical_prefix(self, n):
        # symbol_reads is the reference walk's cost model: per tree edge an
        # f update of x + 1 symbols, and per bound test a window of x - 2,
        # x about the child's cr (the walk itself reads less: its table only
        # up to the first window with i 0s, and nothing of a leaf's own
        # edge); so reads stay within a small
        # constant multiple of the summed critical prefix lengths
        stats = pnoracle.generate_all_pn(n)
        assert 0.5 * stats.cr_sum <= stats.symbol_reads <= 6 * stats.cr_sum

    @pytest.mark.parametrize("n", sorted(COUNTERS))
    def test_counters_match_recorded_table(self, n):
        assert counters(pnoracle.generate_all_pn(n)) == COUNTERS[n]
        if n <= 20:
            assert counters(pnoracle.generate_all_pn(n, order="visit-first")) == COUNTERS[n]
            assert counters(pnoracle.generate_all_pn_cyclic(n)) == COUNTERS[n]
            assert counters(pnoracle.simple_generate_pn(n)) == (*COUNTERS[n][:2], 0, 0, 0)

    def test_counters_accumulate(self):
        stats = pnoracle.generate_all_pn(8)
        assert stats.membership_calls > 0
        assert stats.swaps % 2 == 0  # every swap is undone
        assert stats.reads_per_word > 0


@pytest.fixture
def walks(monkeypatch):
    """The memo passed to each ``_gen_weight`` call, or None."""
    memos = []
    real = pnoracle._gen_weight

    def spy(*args, **kwargs):
        memos.append(kwargs.get("memo"))
        return real(*args, **kwargs)
    monkeypatch.setattr(pnoracle, "_gen_weight", spy)
    return memos


class TestSubtreeMemo:
    """count_all_pn walks each memoized subtree state once and must return
    every counter of the full walk."""

    @pytest.mark.parametrize("n", sorted(COUNTERS))
    def test_counters_match_recorded_table(self, monkeypatch, n):
        monkeypatch.setattr(pnoracle, "_cores", lambda: 1)  # serial: one memo for all classes
        assert counters(pnoracle.count_all_pn(n)) == COUNTERS[n]

    @pytest.mark.parametrize("order", ("coolex", "visit-first", "reverse"))
    def test_keys_hold_for_any_length_and_weight(self, order):
        # one memo filled by n = 14 and reused for n = 17, class by class
        memo = {}
        for n in (14, 17):
            for d in range(n + 1):
                assert (pnoracle._gen_weight(n, d, None, order, False, memo=memo)
                        == pnoracle._gen_weight(n, d, None, order, False)), (n, d)
        # a key is the parent's first 2x - 4 symbols and g[1..x-2] clamped,
        # x <= _MEMO_CR + 1
        assert memo and all(len(k) <= 3 * pnoracle._MEMO_CR - 3 for k in memo)

    def test_memo_is_off_with_a_sink_an_oracle_or_validation(self):
        memo = {}
        pnoracle._gen_weight(12, 6, lambda word: None, "coolex", False, memo=memo)
        pnoracle._gen_weight(12, 6, None, "coolex", True, memo=memo)
        pnoracle._gen_weight(12, 6, None, "coolex", False, lambda s, t, w: 0, memo=memo)
        # a listing through write: validation or an oracle still walks every node
        texts = []
        lines = bubble._lines(texts.append)
        pnoracle._gen_weight(12, 6, None, "coolex", True, memo=memo, lines=lines)
        pnoracle._gen_weight(12, 6, None, "coolex", False, lambda s, t, w: 0, memo=memo,
                             lines=lines)
        lines.flush()
        assert memo == {}
        words = [w for w in pnoracle.pn_words(12) if w.count("1") == 6]
        assert "".join(texts) == "".join(w + "\n" for w in words) + "111111000000\n"
        # and without them it fills the memo with counters and rows
        texts.clear()
        pnoracle._gen_weight(12, 6, None, "coolex", False, memo=memo, lines=lines)
        lines.flush()
        assert "".join(texts) == "".join(w + "\n" for w in words)
        assert memo and all(isinstance(entry[5], (bytes, list)) for entry in memo.values())

    def test_counting_commands_pass_a_memo(self, walks, capsys):
        from pnwords import cli
        for argv in (["count", "--n", "9"], ["stats", "deficit", "--n", "9"],
                     ["stats", "cr", "--n", "9"]):
            walks.clear()
            assert cli.run(argv) == 0
            assert len(walks) == 10 and all(m is walks[0] for m in walks), argv
            assert isinstance(walks[0], dict) and walks[0]

    def test_bench_generate_and_validation_walk_every_node(self, walks, capsys):
        # bench, validation, library sinks and the library listings pass no
        # memo; generate and verify-gray --n list through write with one
        # memo per order, shared by the classes of a serial run
        from pnwords import cli
        assert cli.run(["bench", "--n-min", "8", "--n-max", "9"]) == 0
        pnoracle.generate_all_pn(9)
        pnoracle.generate_all_pn(9, validate=True)
        pnoracle.generate_all_pn(9, bubble.Collector())
        pnoracle.generate_all_pn_cyclic(9)
        pnoracle.gen_bubble_pn(9, 4)
        assert walks == [None] * (9 + 10 + 10 + 10 + 10 + 10 + 1)
        for argv in (["generate", "--n", "9"], ["generate", "--n", "9", "--order", "visit-first"],
                     ["generate", "--n", "9", "--weight", "4"], ["verify-gray", "--n", "9"]):
            walks.clear()
            assert cli.run(argv) == 0
            assert all(m is walks[0] for m in walks) and isinstance(walks[0], dict), argv
            assert walks[0] and len(walks) == (1 if "--weight" in argv else 10), argv
        capsys.readouterr()


def _list(n, classes):
    """The text and counters of a listing through write."""
    texts = []
    stats = pnoracle._run_weights(n, classes, None, False, texts.append)
    return "".join(texts), counters(stats)


def _full_walk(n, order, cyclic):
    """The text of the listing from a visit sink, which walks every node."""
    return "".join(w + "\n" for w in pnoracle.pn_words(n, cyclic=cyclic, order=order))


ORDERS = pytest.mark.parametrize("order, cyclic", [("coolex", False), ("visit-first", False),
                                                   ("coolex", True)],
                                 ids=["coolex", "visit-first", "cyclic"])


class TestListingMemo:
    """A listing through write copies the rows of memoized subtrees; it must
    equal the full walk byte for byte and return the same counters."""

    @ORDERS
    def test_serial_listing_is_the_full_walk(self, monkeypatch, order, cyclic):
        monkeypatch.setattr(pnoracle, "_cores", lambda: 1)  # one memo per order for all classes
        for n in range(17):
            assert _list(n, pnoracle._classes(n, order, cyclic)) == (
                _full_walk(n, order, cyclic), COUNTERS[n]), n

    @needs_fork_pool
    @ORDERS
    def test_pooled_listing_is_the_full_walk(self, pooled, order, cyclic):
        for n in (1, 2, 9, 12, 16):
            assert _list(n, pnoracle._classes(n, order, cyclic)) == (
                _full_walk(n, order, cyclic), COUNTERS[n]), n
        assert pooled == [2] * 5

    @pytest.mark.parametrize("order", ("coolex", "visit-first", "reverse"))
    def test_rows_come_from_the_first_hit(self, order):
        # a memo filled by one class and hit by the next: stored lines are
        # cut to rows once, and the rows are shared between entries
        memo, texts = {}, []
        lines = bubble._lines(texts.append)
        for d in range(17):
            pnoracle._gen_weight(16, d, None, order, False, memo=memo, lines=lines)
        lines.flush()
        expected = bubble.Collector()
        for d in range(17):
            pnoracle._gen_weight(16, d, expected, order, False)
        assert "".join(texts) == "".join(w + "\n" for w in expected.words)
        hit = [entry for entry in memo.values() if isinstance(entry[5], list)]
        assert hit and all(len(entry[5]) == entry[0] for entry in hit)  # a row per word
        rows = [row for entry in hit for row in entry[5]]
        assert len({id(row) for row in rows}) < len(rows)  # equal rows are one object

    def test_serial_cyclic_run_keeps_a_memo_per_order(self, monkeypatch):
        monkeypatch.setattr(pnoracle, "_cores", lambda: 1)
        expected = _full_walk(14, "coolex", True), COUNTERS[14]
        seen = []
        real = pnoracle._gen_weight

        def spy(n, d, visit, order, validate, **kwargs):
            seen.append((order, kwargs["memo"]))
            return real(n, d, visit, order, validate, **kwargs)
        monkeypatch.setattr(pnoracle, "_gen_weight", spy)
        assert _list(14, pnoracle._classes(14, cyclic=True)) == expected
        memos = {order: {id(memo) for o, memo in seen if o == order} for order, _ in seen}
        assert set(memos) == {"reverse", "coolex"} and all(len(ids) == 1 for ids in memos.values())
        assert memos["reverse"] != memos["coolex"]


WALK_ORDERS = ("coolex", "visit-first", "reverse")


def _pn_classes(n):
    """simple_generate_pn's length-n words, as a set per weight."""
    sink = bubble.Collector()
    pnoracle.simple_generate_pn(n, sink)
    classes = {}
    for w in sink.words:
        classes.setdefault(w.count("1"), set()).add(w)
    return classes


def _model_subtree(w, members, edges):
    """The counters and the listing in each of WALK_ORDERS of the subtree
    rooted at w in the tree of its class, made from the word set members:
    the children of 1^s 0^t gamma are the words 1^(s-1) 0^i 1 0^(t-i) gamma
    in members.  The counters follow the walker's cost model: a node tests
    its children in turn up to the first refused one, a test of child i
    reads s + i - 2 symbols, and an edge at x reads x + 1 and makes 2 swaps.
    Appends (parent, x, child counters with the edge, child listings) of
    every edge to edges."""
    cp = core.critical_prefix(w) if w else core.CriticalPrefix(0, 0, "")
    s, t = cp.s, cp.t
    kids = [(s + i, "1" * (s - 1) + "0" * i + "1" + "0" * (t - i) + cp.gamma)
            for i in range(1, t + 1)] if s else []
    j = 0
    while j < len(kids) and kids[j][1] in members:
        j += 1
    calls = min(j + 1, t) if s and t else 0
    totals = [1, s + t, calls, sum(s + k - 2 for k in range(1, calls + 1)), 0]
    post, pre, rl = [], [w], []
    for x, kid in kids:
        if kid not in members:
            continue
        kid_totals, (kid_post, kid_pre, kid_rl) = _model_subtree(kid, members, edges)
        kid_totals = [a + b for a, b in zip(kid_totals, (0, 0, 0, x + 1, 2))]
        edges.append((w, x, tuple(kid_totals), (kid_post, kid_pre, kid_rl)))
        totals = [a + b for a, b in zip(totals, kid_totals)]
        post += kid_post
        pre += kid_pre
        rl[:0] = kid_rl
    return totals, (post + [w], pre, [w] + rl)


def _model_key(w, x, n):
    """The memo key of the edge at x out of the node w: its first 2x - 4
    symbols and the fewest 0s g[k] = k - f[k] of a length-k window of its
    suffix past the critical prefix for k = 1..x-2, clamped to i = x - s,
    both zero-padded, with f from core.max_ones."""
    cp = core.critical_prefix(w)
    f = core.max_ones(cp.gamma + "0" * n)
    return (bytes(map(int, (w + "0" * n)[:2 * x - 4]))
            + bytes(min(k - f[k], x - cp.s) for k in range(1, x - 1)))


def _unclamped_key(w, x, n):
    """The key with f[1..x-2] unclamped, which the memo used before: it
    tells apart parents whose tables differ only where the subtree's
    bound tests cannot see."""
    f = core.max_ones(core.critical_prefix(w).gamma + "0" * n)
    return bytes(map(int, (w + "0" * n)[:2 * x - 4])) + bytes(f[1:x - 1])


class TestMemoKeyAudit:
    """The memo key, taken from the parent before the edge, against a model
    of the tree built from simple_generate_pn's words."""

    def test_edges_sharing_a_key_root_equal_subtrees(self):
        seen, shared, unclamped = {}, 0, set()
        for n in range(13):
            for d, members in _pn_classes(n).items():
                edges = []
                totals, _ = _model_subtree("1" * d + "0" * (n - d), members, edges)
                assert totals[0] == len(members), (n, d)  # the tree holds the class once
                for w, x, kid_totals, listings in edges:
                    if not (w[:2] == "11" and x <= pnoracle._MEMO_CR + 1):
                        continue
                    rows = tuple([v[:x - 1] for v in listing] for listing in listings)
                    key = _model_key(w, x, n)
                    unclamped.add(_unclamped_key(w, x, n))
                    if key in seen:
                        assert seen[key] == (kid_totals, rows), (n, d, w, x)
                        shared += 1
                    else:
                        seen[key] = (kid_totals, rows)
        assert shared > len(seen) > 100
        # the clamp merges edges that the unclamped key stored apart
        assert len(seen) < len(unclamped)
        # the walker stores exactly these keys, with these counters and rows
        for k, order in enumerate(WALK_ORDERS):
            memo = {}
            lines = bubble._lines(lambda text: None)
            for n in range(13):
                for d in range(n + 1):
                    pnoracle._gen_weight(n, d, None, order, False, memo=memo, lines=lines)
            assert memo.keys() == seen.keys(), order
            for key, (*entry_totals, rows) in memo.items():
                x = len(key) // 3 + 2
                if rows.__class__ is bytes:
                    rows = [line[:x - 1] for line in rows[:-1].split(b"\n")]
                assert (tuple(entry_totals), [bubble.word_str(r) for r in rows]) == (
                    seen[key][0], seen[key][1][k]), (order, key)


@functools.cache
def _class_walk(n, d, order):
    """The counters and the text of the weight-d class from a walk of every node."""
    sink = bubble.Collector()
    stats = pnoracle._gen_weight(n, d, sink, order, False)
    return stats, "".join(w + "\n" for w in sink.words)


class TestMemoFillOrder:
    """Memos shared by runs of any length and weight, in any order."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 15).flatmap(lambda n: st.tuples(st.just(n),
                                                                    st.integers(0, n))),
                    min_size=1, max_size=12))
    def test_any_sequence_of_runs_gives_the_full_walk(self, runs):
        counting = {}
        listing = {order: {} for order in WALK_ORDERS}  # a listing memo per order
        for n, d in runs:
            stats, _ = _class_walk(n, d, "coolex")
            assert pnoracle._gen_weight(n, d, None, "coolex", False, memo=counting) == stats
            for order in WALK_ORDERS:
                stats, text = _class_walk(n, d, order)
                texts = []
                lines = bubble._lines(texts.append)
                assert pnoracle._gen_weight(n, d, None, order, False, memo=listing[order],
                                            lines=lines) == stats, (n, d, order)
                lines.flush()
                assert "".join(texts) == text, (n, d, order)

    @pytest.mark.parametrize("order", ["coolex", "visit-first"])
    def test_long_words_key_their_list_table(self, order):
        # from n = 255 the walker's table is a list, whose slice a key
        # takes as bytes before the clamp
        stats, text = _class_walk(260, 3, order)
        assert stats[0] == 16770
        counting, listing, texts = {}, {}, []
        assert pnoracle._gen_weight(260, 3, None, order, False, memo=counting) == stats
        lines = bubble._lines(texts.append)
        assert pnoracle._gen_weight(260, 3, None, order, False, memo=listing,
                                    lines=lines) == stats
        lines.flush()
        assert "".join(texts) == text
        assert counting and listing.keys() == counting.keys()


@needs_fork_pool
class TestWeightPool:
    """A counting run (no sink) walks its weight classes in a process pool
    and sums their counters, which must equal the serial run's."""

    @pytest.mark.parametrize("n", range(0, 13))
    def test_counters_match_recorded_table(self, pooled, n):
        assert counters(pnoracle.generate_all_pn(n)) == COUNTERS[n]
        assert counters(pnoracle.generate_all_pn(n, order="visit-first")) == COUNTERS[n]
        assert counters(pnoracle.generate_all_pn_cyclic(n)) == COUNTERS[n]
        assert counters(pnoracle.generate_all_pn(n, validate=True)) == COUNTERS[n]
        assert pooled == ([2] * 4 if n else [])  # n = 0 has one class

    @pytest.mark.parametrize("n", sorted(COUNTERS))
    def test_memoized_count_matches_recorded_table(self, pooled, n):
        assert counters(pnoracle.count_all_pn(n)) == COUNTERS[n]
        assert pooled == ([2] if n else [])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_claiming_count_matches_recorded_table(self, pooled, monkeypatch, workers):
        monkeypatch.setattr(pnoracle, "_cores", lambda: workers)
        for n in range(17):
            assert counters(pnoracle.count_all_pn(n)) == COUNTERS[n], n
        assert pooled == [min(workers, n + 1) for n in range(1, 17)]

    @pytest.mark.parametrize("missing", ["shared memory", "semaphores"])
    def test_claim_state_that_cannot_be_made_runs_serially(self, monkeypatch, missing):
        import mmap

        def refuse(*args):
            raise (OSError if missing == "shared memory" else ImportError)(f"no {missing}")

        made = []
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(
            Pool=lambda *args: made.append(args),
            Lock=refuse if missing == "semaphores" else threading.Lock))
        if missing == "shared memory":
            monkeypatch.setattr(mmap, "mmap", refuse)
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 0)
        monkeypatch.setattr(pnoracle, "_cores", lambda: 2)
        assert counters(pnoracle.count_all_pn(12)) == COUNTERS[12]
        assert made == []

    def test_spawn_start_method(self, tmp_path):
        # a script with no __main__ guard: spawned workers would import it
        # again and count once more each, so the pool forks its workers
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import multiprocessing, sys\n"
            "from pnwords import pnoracle\n"
            "multiprocessing.set_start_method('spawn')\n"
            "pnoracle._POOL_MIN_N = 0\n"
            "pnoracle._cores = lambda: 2\n"
            "s = pnoracle.generate_all_pn(20)\n"
            "print('multiprocessing.pool' in sys.modules,\n"
            "      s.count, s.cr_sum, s.membership_calls, s.symbol_reads, s.swaps)\n")
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        pooled, *got = proc.stdout.split()
        assert pooled == "True" and tuple(map(int, got)) == COUNTERS[20]

    def test_pool_worker_counts_serially(self, monkeypatch):
        # a daemonic process may not have children: a count spread over a
        # user's own pool runs each call serially inside its worker
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 0)
        monkeypatch.setattr(pnoracle, "_cores", lambda: 2)
        with multiprocessing.get_context("fork").Pool(2) as pool:
            assert pool.map_async(_count_in_worker, [11, 12]).get(timeout=60) == [
                COUNTERS[11], COUNTERS[12]]

    def test_other_threads_keep_the_run_serial(self, pooled):
        import threading

        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert counters(pnoracle.generate_all_pn(12)) == COUNTERS[12]
        finally:
            release.set()
            thread.join()
        assert pooled == []
        assert counters(pnoracle.generate_all_pn(12)) == COUNTERS[12]
        assert pooled == [2]

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
    def test_ctrl_c_ends_parent_and_workers(self):
        script = ("import signal\n"  # SIGINT may be ignored where pytest was started
                  "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                  "from pnwords import pnoracle\n"
                  "pnoracle._cores = lambda: 2\n"
                  "pnoracle.generate_all_pn(30)\n")
        proc = subprocess.Popen([sys.executable, "-c", script], start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            time.sleep(1.5)
            os.killpg(proc.pid, signal.SIGINT)  # Ctrl-C signals the whole group
            _, err = proc.communicate(timeout=30)
            assert b"KeyboardInterrupt" in err
            with pytest.raises(ProcessLookupError):  # no worker outlives the parent
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def test_pool_that_cannot_start_runs_serially(self, monkeypatch):
        tried = []

        def no_pool(workers, *args):
            tried.append(workers)
            raise OSError("no /dev/shm")

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=no_pool))
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 0)
        monkeypatch.setattr(pnoracle, "_cores", lambda: 2)
        for n in range(1, 13):
            assert counters(pnoracle.generate_all_pn(n)) == COUNTERS[n]
        assert tried == [2] * 12

    def test_serial_paths_make_no_pool(self, pooled, monkeypatch):
        pnoracle.generate_all_pn(12, bubble.Collector())
        pnoracle.generate_all_pn_cyclic(12, lambda word: None)
        pnoracle.gen_bubble_pn(12, 6)
        pnoracle.pn_words(8)
        assert pooled == []
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 13)
        assert counters(pnoracle.generate_all_pn(12)) == COUNTERS[12]
        assert pooled == []
        assert counters(pnoracle.generate_all_pn(13)) == COUNTERS[13]
        assert pooled == [2]

    def test_listing_without_a_pipe_runs_serially(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no file descriptors left")

        made = []
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(
            Pool=lambda *args: made.append(args), Lock=threading.Lock, Pipe=refuse))
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 0)
        monkeypatch.setattr(pnoracle, "_cores", lambda: 2)
        assert _list(12, pnoracle._classes(12)) == (_full_walk(12, "coolex", False), COUNTERS[12])
        assert made == []

    def test_worker_error_reraises_in_parent(self, pooled, monkeypatch):
        monkeypatch.setattr(pnoracle, "_gen_weight", _broken_walk)
        with pytest.raises(pnoracle.GenerationInvariantError, match=r"weight \d of 6 failed"):
            pnoracle.generate_all_pn(6, validate=True)
        with pytest.raises(pnoracle.GenerationInvariantError, match=r"weight \d of 6 failed"):
            pnoracle.count_all_pn(6)  # through the claiming tasks
        # a listing task fails after it has sent the text of its first class:
        # the parent has written the lightest class, and re-raises, not hangs
        monkeypatch.setattr(pnoracle, "_gen_weight", _walk_then_fail)
        texts = []
        with pytest.raises(pnoracle.GenerationInvariantError, match=r"failed after its text"):
            pnoracle._run_weights(6, pnoracle._classes(6), None, False, texts.append)
        assert texts == ["000000\n"]
        assert pooled == [2, 2, 2] and multiprocessing.active_children() == []


class FakePool:
    """An in-process stand-in for the forked pool: a task runs when its
    result is asked for.  Records the tasks in submission order and the
    most that were ever outstanding."""

    def __init__(self):
        self.submitted, self.outstanding, self.most = [], 0, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def apply_async(self, func, args):
        self.submitted.append((args[1], args[3]))  # _gen_weight's (d, order)
        self.outstanding += 1
        self.most = max(self.most, self.outstanding)

        def get():
            self.outstanding -= 1
            return func(*args)
        return SimpleNamespace(get=get)


class TestPoolLoop:
    """The pool loops of _run_weights: a memoized count and a listing run one
    claiming task per worker, and a listing's tasks stream their classes to
    the parent; a count with no memo sends classes out in listing order with
    at most one per worker ahead of the one consumed."""

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        pool = FakePool()
        monkeypatch.setattr(pnoracle, "_fork_pool",
                            lambda workers, claims=0, stream=False: (pool, None))
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 0)
        return pool

    @pytest.fixture
    def thread_pool(self, monkeypatch):
        """Claiming tasks run as threads that switch every microsecond, so
        their claims, and a listing's frames, interleave."""
        def make(workers, claims=0, stream=False):
            shared = bytearray(claims), threading.Lock()
            if stream:
                shared += (*multiprocessing.Pipe(duplex=False), threading.Lock())
            monkeypatch.setattr(pnoracle, "_claims", shared)
            return ThreadPool(workers), shared

        monkeypatch.setattr(pnoracle, "_fork_pool", make)
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_counting(self, fake_pool, monkeypatch, workers):
        monkeypatch.setattr(pnoracle, "_cores", lambda: workers)
        classes = pnoracle._classes(12)
        assert counters(pnoracle._run_weights(12, classes, None, False)) == COUNTERS[12]
        assert fake_pool.submitted == classes
        assert fake_pool.most == workers + 1 and fake_pool.outstanding == 0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_memoized_counting_claims_each_class_once(self, thread_pool, monkeypatch, workers):
        seen = []
        real = pnoracle._gen_weight

        def spy(n, d, visit, order, validate, **kwargs):
            seen.append((threading.get_ident(), d, kwargs["memo"]))
            return real(n, d, visit, order, validate, **kwargs)

        monkeypatch.setattr(pnoracle, "_gen_weight", spy)
        monkeypatch.setattr(pnoracle, "_cores", lambda: workers)
        for n in (0, 1, 2, 12):  # fewer classes than workers below n = 2
            seen.clear()
            assert counters(pnoracle.count_all_pn(n)) == COUNTERS[n], n
            assert sorted(d for _, d, _ in seen) == list(range(n + 1)), n
            memos = {}  # thread -> the memos it walked with: one per task
            for thread, _, memo in seen:
                memos.setdefault(thread, {})[id(memo)] = memo
            assert all(len(task) == 1 for task in memos.values()), n
            assert len({id(memo) for _, _, memo in seen}) == len(memos) <= workers, n

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(size=st.integers(0, 24), claimers=st.sampled_from([2, 3]),
           schedule=st.lists(st.integers(0, 2), max_size=60))
    def test_claim_rule(self, size, claimers, schedule):
        # any interleaving: each class is claimed once, and two claimers
        # each claim one contiguous run, one climbing and one descending
        taken, lock = bytearray(size), threading.Lock()
        claims = [pnoracle._claimed(taken, lock) for _ in range(claimers)]
        got = [[] for _ in claims]
        live = list(range(claimers))
        turns = iter(schedule)
        while live:
            k = live[next(turns, 0) % len(live)]
            p = next(claims[k], None)
            if p is None:
                live.remove(k)
            else:
                got[k].append(p)
        assert sorted(sum(got, [])) == list(range(size)) and all(taken)
        if claimers == 2:
            for run in got:
                assert run in (sorted(run), sorted(run, reverse=True))
                assert sorted(run) == list(range(min(run, default=0), max(run, default=-1) + 1))

    @pytest.mark.parametrize("workers", [2, 3])
    @ORDERS
    def test_listing(self, thread_pool, monkeypatch, workers, order, cyclic):
        # each class is rendered once, each task keeps one memo per order,
        # and the frames the tasks interleave are written as the listing
        seen = []
        real = pnoracle._gen_weight

        def spy(n, d, visit, order, validate, **kwargs):
            seen.append((threading.get_ident(), d, order, kwargs["memo"]))
            return real(n, d, visit, order, validate, **kwargs)

        monkeypatch.setattr(pnoracle, "_gen_weight", spy)
        monkeypatch.setattr(pnoracle, "_cores", lambda: workers)
        for n in range(13):
            expected = _full_walk(n, order, cyclic), COUNTERS[n]
            seen.clear()
            classes = pnoracle._classes(n, order, cyclic)
            assert _list(n, classes) == expected, n
            assert sorted((d, o) for _, d, o, _ in seen) == sorted(classes), n
            memos = {}  # (thread, order) -> the memos it rendered with
            for thread, _, o, memo in seen:
                memos.setdefault((thread, o), set()).add(id(memo))
            assert all(len(ids) == 1 for ids in memos.values()), n
            assert len({id(memo) for *_, memo in seen}) == len(memos), n

    def test_frames_are_written_in_listing_order(self):
        # one task climbs through class 0, the other descends from class 2:
        # class 0 is written as it arrives, classes 1 and 2 once it has ended
        frames = [(2, "e\n"), (0, "a\n"), (2, (3,) * 5), (1, "c\n"), (0, "b\n"), (1, "d\n"),
                  (1, (2,) * 5), None, (0, (1,) * 5), None]
        log = []
        receive = iter(frames).__next__  # StopIteration if read past the second None
        results = pnoracle._write_frames(lambda: log.append(receive()) or log[-1], 2,
                                         lambda text: log.append(text))
        assert results == [(1,) * 5, (2,) * 5, (3,) * 5]
        assert log == [(2, "e\n"), (0, "a\n"), "a\n", (2, (3,) * 5), (1, "c\n"), (0, "b\n"),
                       "b\n", (1, "d\n"), (1, (2,) * 5), None, (0, (1,) * 5),
                       "c\n", "d\n", "e\n", None]
