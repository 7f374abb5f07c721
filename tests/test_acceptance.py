"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain ``pytest``; the slowest check (the n=26 growth trend)
carries the ``slow`` marker but runs by default.
"""

import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from pnwords import analysis, bubble, core, pnoracle

from conftest import (
    LENGTH5_CLASSES,
    LENGTH7_COOLEX_LISTING,
    PNW_COUNTS,
    all_words,
    words_of_weight,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_c01_exact_counts():
    start = time.perf_counter()
    got = [analysis.count_pnw(n) for n in range(1, 13)]
    elapsed = time.perf_counter() - start
    report("C01 exact-counts-n1-12", got == PNW_COUNTS,
           f"counts {got}, {elapsed:.2f}s")


def test_c02_length7_sequence():
    got = pnoracle.pn_words(7)
    report("C02 length7-listing-order", got == LENGTH7_COOLEX_LISTING,
           f"{len(got)} words, exact sequence")


def test_c03_gray_property():
    start = time.perf_counter()
    ok = True
    detail = ""
    for n in range(2, 17):
        words = pnoracle.pn_words(n)
        if not analysis.verify_gray(words).ok:
            ok, detail = False, f"ascending violations at n={n}"
            break
        # ascending runs must realize only the strict pair forms:
        # same weight -> p = q <= 2; next weight -> q = p+1 with p <= 1
        for u, v in zip(words, words[1:]):
            p, q = analysis.transposition_counts(u, v)
            if u.count("1") == v.count("1"):
                if not (p == q <= 2):
                    ok, detail = False, f"pair ({u},{v})"
                    break
            elif not (q == p + 1 and p <= 1):
                ok, detail = False, f"boundary pair ({u},{v})"
                break
        if not ok:
            break
        if not analysis.verify_gray(pnoracle.pn_words(n, cyclic=True), cyclic=True).ok:
            ok, detail = False, f"cyclic violations at n={n}"
            break
    elapsed = time.perf_counter() - start
    report("C03 gray-property-n2-16", ok,
           detail or f"ascending and cyclic with wrap pair, {elapsed:.1f}s")


def test_c04_oracle_equivalence():
    # validated runs compare every membership probe against the quadratic
    # tester and every bubble upper bound against the naive oracle, and
    # check the incremental state and its restoration at every node
    start = time.perf_counter()
    try:
        for n in range(1, 17):
            pnoracle.generate_all_pn(n, validate=True)
    except pnoracle.GenerationInvariantError as exc:
        report("C04 oracle-equivalence-n-le-16", False, str(exc))
        return
    elapsed = time.perf_counter() - start
    report("C04 oracle-equivalence-n-le-16", True,
           f"all probes and bounds agree, {elapsed:.1f}s")


def test_c05_generator_cross_validation():
    start = time.perf_counter()
    ok = True
    detail = ""
    for n in range(1, 17):
        gray = set(pnoracle.pn_words(n))
        sink = bubble.Collector()
        pnoracle.simple_generate_pn(n, sink)
        simple = set(sink.words)
        filtered = {w for w in all_words(n) if core.is_prefix_normal(w)}
        if not (gray == simple == filtered):
            ok, detail = False, f"disagreement at n={n}"
            break
    elapsed = time.perf_counter() - start
    report("C05 generator-cross-validation-n-le-16", ok,
           detail or f"three routes agree, {elapsed:.1f}s")


def test_c06_critical_prefix_arithmetic():
    start = time.perf_counter()
    values = [analysis.critical_prefix_sum(n) for n in range(21)]
    closed = all(values[n] == 3 * 2**n - (n + 3) for n in range(21))
    recurrence = all(values[n] == 2 * values[n - 1] + (n + 1) for n in range(1, 21))
    elapsed = time.perf_counter() - start
    report("C06 critical-prefix-sums-n-le-20", closed and recurrence,
           f"closed form and recurrence, {elapsed:.1f}s")


# Expected three-decimal ratios, first taken from an exhaustive scan of
# all 2^n words and now counted by a dynamic program; the regular suite
# checks the counts against the per-word block implementation.  The n=16
# trivial cell is 172480/65536 = 2.6318359375 exactly, hence 2.632 at
# three decimals.
RATIOS_TRIVIAL = {10: "2.500", 12: "2.561", 14: "2.602", 16: "2.632",
                  18: "2.656", 20: "2.675", 22: "2.693", 24: "2.708"}
RATIOS_COMBINED = {10: "2.168", 12: "2.142", 14: "2.121", 16: "2.106",
                   18: "2.093", 20: "2.083", 22: "2.075", 24: "2.067"}


def test_c07_rejection_ratios_fast():
    start = time.perf_counter()
    ok = True
    detail = ""
    for n in range(10, 23, 2):
        trivial = analysis.rejection_ratio(n, "trivial", cap=22).ratio
        combined = analysis.rejection_ratio(n, "combined", cap=22).ratio
        if trivial != RATIOS_TRIVIAL[n] or combined != RATIOS_COMBINED[n]:
            ok, detail = False, f"n={n}: trivial={trivial} combined={combined}"
            break
    elapsed = time.perf_counter() - start
    report("C07a ratio-table-n10-22", ok, detail or f"both modes, {elapsed:.1f}s")


def test_c07_rejection_ratios_n24_and_monotonicity():
    start = time.perf_counter()
    trivial24 = analysis.rejection_ratio(24, "trivial", cap=24).ratio
    combined24 = analysis.rejection_ratio(24, "combined", cap=24).ratio
    cells = trivial24 == RATIOS_TRIVIAL[24] and combined24 == RATIOS_COMBINED[24]
    combined = [Fraction(RATIOS_COMBINED[n].replace(".", "")) for n in range(10, 25, 2)]
    trivial = [Fraction(RATIOS_TRIVIAL[n].replace(".", "")) for n in range(10, 25, 2)]
    decreasing = all(b < a for a, b in zip(combined, combined[1:]))
    increasing = all(b > a for a, b in zip(trivial, trivial[1:]))
    elapsed = time.perf_counter() - start
    report("C07b ratio-table-n24", cells and decreasing and increasing,
           f"trivial={trivial24} combined={combined24}, combined strictly "
           f"decreasing, {elapsed:.1f}s")


def test_c08_equivalence_classes():
    start = time.perf_counter()
    rows = all(analysis.equivalence_class(w) == members
               for w, members in LENGTH5_CLASSES.items())
    partition = True
    for n in range(1, 13):
        groups = Counter(core.pnf(w) for w in all_words(n))
        if sum(groups.values()) != 1 << n or set(groups) != set(pnoracle.pn_words(n)):
            partition = False
            break
    elapsed = time.perf_counter() - start
    report("C08 equivalence-classes", rows and partition,
           f"all 14 length-5 rows, partition to n=12, {elapsed:.1f}s")


@pytest.mark.slow
def test_c09_amortized_cost_trend():
    start = time.perf_counter()
    small = pnoracle.generate_all_pn(13)
    large = pnoracle.generate_all_pn(26)
    elapsed = time.perf_counter() - start
    reads_ok = large.reads_per_word < 2 * small.reads_per_word
    cr_ok = large.avg_cr < 2 * small.avg_cr
    report("C09 amortized-cost-trend", reads_ok and cr_ok,
           f"reads/word {small.reads_per_word:.2f} -> {large.reads_per_word:.2f}, "
           f"avg_cr {float(small.avg_cr):.2f} -> {float(large.avg_cr):.2f}, "
           f"{large.count} words at n=26, {elapsed:.0f}s")


def test_c10_bubble_characterization():
    start = time.perf_counter()
    ok = True
    detail = ""
    for n in range(1, 11):
        for d in range(n + 1):
            members = [w for w in words_of_weight(n, d) if core.is_prefix_normal(w)]
            if not (bubble.is_first01_bubble(members, n, d)
                    and bubble.check_tree_closure(members, n, d)):
                ok, detail = False, f"prefix normal slice ({n},{d}) not closed"
                break
        if not ok:
            break
    if ok:
        for n in range(1, 9):
            for d in range(n + 1):
                population = words_of_weight(n, d)
                rng = random.Random(10_000 + 97 * n + d)
                for _ in range(1000):
                    subset = [w for w in population if rng.random() < 0.5]
                    if (bubble.is_first01_bubble(subset, n, d)
                            != bubble.check_tree_closure(subset, n, d)):
                        ok, detail = False, f"checkers disagree on a ({n},{d}) subset"
                        break
                if not ok:
                    break
            if not ok:
                break
    elapsed = time.perf_counter() - start
    report("C10 bubble-characterization", ok,
           detail or f"44000 random subsets plus all slices to n=10, {elapsed:.1f}s")
