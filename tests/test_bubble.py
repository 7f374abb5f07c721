import random
from math import comb

import pytest

from pnwords import bubble, core

from conftest import INT_SPELLINGS, LENGTH7_COOLEX_LISTING, words_of_weight


def oracle_at(word, member=core.is_prefix_normal):
    """Run the naive oracle on a standalone word string."""
    cp = core.critical_prefix(word)
    buf = bytearray(int(c) for c in word)
    return bubble.naive_oracle(member)(cp.s, cp.t, memoryview(buf))


class TestRecursiveSwapAll:
    @pytest.mark.parametrize("n", range(0, 15))
    def test_visits_each_word_once(self, n):
        for d in range(n + 1):
            seen = bubble.Collector()
            count = bubble.recursive_swap_all(n, d, seen)
            assert count == comb(n, d)
            assert len(set(seen.words)) == count
            assert all(w.count("1") == d for w in seen.words)

    def test_last_word_is_root(self):
        seen = bubble.Collector()
        assert bubble.recursive_swap_all(7, 4, seen) == 35
        assert seen.words[-1] == "1111000"

    def test_weight_zero_single_visit(self):
        seen = bubble.Collector()
        assert bubble.recursive_swap_all(6, 0, seen) == 1
        assert seen.words == ["000000"]

    def test_visit_first_starts_at_root(self):
        seen = bubble.Collector()
        bubble.recursive_swap_all(7, 4, seen, order="visit-first")
        assert seen.words[0] == "1111000"
        post = bubble.Collector()
        bubble.recursive_swap_all(7, 4, post)
        assert sorted(seen.words) == sorted(post.words)

    @pytest.mark.parametrize("order", ("coolex", "visit-first"))
    def test_deep_weight_class(self, order):
        # the root 1^1099 0 has a chain of only children 1099 levels deep
        seen = bubble.Collector()
        assert bubble.recursive_swap_all(1100, 1099, seen, order=order) == 1100
        assert sorted(seen.words) == sorted("1" * k + "0" + "1" * (1099 - k) for k in range(1100))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bubble.recursive_swap_all(3, 4)
        with pytest.raises(ValueError):
            bubble.recursive_swap_all(3, 1, order="sideways")


class TestGenBubble:
    def test_accept_all_oracle_equals_recursive_swap(self):
        for n, d in [(6, 3), (7, 4), (5, 0), (5, 5), (8, 2)]:
            full = bubble.Collector()
            bubble.gen_bubble(lambda s, t, w: t, n, d, full)
            plain = bubble.Collector()
            bubble.recursive_swap_all(n, d, plain)
            assert full.words == plain.words

    def test_prefix_normal_weight4_length7_column(self):
        seen = bubble.Collector()
        count = bubble.gen_bubble(bubble.naive_oracle(core.is_prefix_normal), 7, 4, seen)
        expected = [w for w in LENGTH7_COOLEX_LISTING if w.count("1") == 4]
        assert count == 11
        assert seen.words == expected

    def test_prefix_normal_weight2_length5(self):
        seen = bubble.Collector()
        bubble.gen_bubble(bubble.naive_oracle(core.is_prefix_normal), 5, 2, seen)
        assert seen.words == ["10100", "10010", "10001", "11000"]

    @pytest.mark.parametrize("order", ("coolex", "visit-first"))
    def test_deep_weight_class(self, order):
        seen = bubble.Collector()
        assert bubble.gen_bubble(lambda s, t, w: t, 1100, 1099, seen, order=order) == 1100
        assert seen.words[-1 if order == "coolex" else 0] == "1" * 1099 + "0"
        assert len(set(seen.words)) == 1100

    def test_oracle_out_of_range_raises(self):
        with pytest.raises(ValueError):
            bubble.gen_bubble(lambda s, t, w: t + 1, 5, 2)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_naive_oracle_emits_exact_prefix_normal_slices(self, n):
        oracle = bubble.naive_oracle(core.is_prefix_normal)
        for d in range(n + 1):
            seen = bubble.Collector()
            bubble.gen_bubble(oracle, n, d, seen)
            expected = {w for w in words_of_weight(n, d) if core.is_prefix_normal(w)}
            assert set(seen.words) == expected
            assert len(seen.words) == len(expected)

    def test_single_weight_listing_pairs_are_double_swaps(self):
        from pnwords.analysis import transposition_counts
        for d in range(10):
            seen = bubble.Collector()
            bubble.gen_bubble(bubble.naive_oracle(core.is_prefix_normal), 9, d, seen)
            for u, v in zip(seen.words, seen.words[1:]):
                p, q = transposition_counts(u, v)
                assert p == q <= 2, (u, v)


class TestNaiveOracle:
    def test_examples(self):
        assert oracle_at("1110000") == 4
        assert oracle_at("1101100") == 0
        assert oracle_at("1111000") == 3
        assert oracle_at("1111111") == 0  # no zeros, no children

    def test_membership_call_budget(self):
        calls = 0

        def counting_member(w):
            nonlocal calls
            calls += 1
            return core.is_prefix_normal(w)

        cp = core.critical_prefix("1110000")
        buf = bytearray(int(c) for c in "1110000")
        j = bubble.naive_oracle(counting_member)(cp.s, cp.t, memoryview(buf))
        assert j == 4 and calls == 4  # all children members: j calls, no failure probe
        calls = 0
        buf = bytearray(int(c) for c in "1101100")
        j = bubble.naive_oracle(counting_member)(2, 1, memoryview(buf))
        assert j == 0 and calls == 1

    def test_probing_leaves_word_unchanged(self):
        buf = bytearray(int(c) for c in "1110000")
        bubble.naive_oracle(core.is_prefix_normal)(3, 4, memoryview(buf))
        assert bubble.word_str(buf) == "1110000"


class TestBubbleCharacterizations:
    def test_prefix_normal_slice_is_bubble(self):
        words = [w for w in LENGTH7_COOLEX_LISTING if w.count("1") == 4]
        assert bubble.is_first01_bubble(words, 7, 4) is True
        assert bubble.check_tree_closure(words, 7, 4) is True

    def test_singleton_missing_image(self):
        assert bubble.is_first01_bubble(["0101"], 4, 2) is False
        assert bubble.check_tree_closure(["0101"], 4, 2) is False

    def test_full_weight_class_is_closed(self):
        words = words_of_weight(6, 3)
        assert bubble.is_first01_bubble(words, 6, 3) is True
        assert bubble.check_tree_closure(words, 6, 3) is True

    def test_empty_set_is_closed(self):
        assert bubble.is_first01_bubble([], 5, 2) is True
        assert bubble.check_tree_closure([], 5, 2) is True

    def test_wrong_length_or_weight_rejected(self):
        with pytest.raises(ValueError):
            bubble.is_first01_bubble(["111"], 4, 3)
        with pytest.raises(ValueError):
            bubble.check_tree_closure(["1100"], 4, 3)

    @pytest.mark.parametrize("word", INT_SPELLINGS)
    @pytest.mark.parametrize("check", (bubble.is_first01_bubble, bubble.check_tree_closure))
    def test_rejects_int_spellings(self, check, word):
        with pytest.raises(core.WordFormatError):
            check([word], len(word), word.count("1"))

    @pytest.mark.parametrize("check", (bubble.is_first01_bubble, bubble.check_tree_closure))
    def test_length_zero(self, check):
        assert check([], 0, 0) is True
        assert check([""], 0, 0) is True
        for words in (["1"], ["11"], ["0"]):
            with pytest.raises(ValueError):
                check(words, 0, 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_checkers_agree_on_random_subsets(self, n):
        rng = random.Random(1729 + n)
        for d in range(n + 1):
            population = words_of_weight(n, d)
            for _ in range(200):
                subset = [w for w in population if rng.random() < 0.5]
                assert (bubble.is_first01_bubble(subset, n, d)
                        == bubble.check_tree_closure(subset, n, d)), subset
