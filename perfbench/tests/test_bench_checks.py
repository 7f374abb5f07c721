"""The output checks fire on corrupted outputs, and the frozen references
agree with independent computations."""

import hashlib

from pnwords import analysis, bubble, core, pnoracle

import workloads
from workloads import (COUNT_WORDS, GRAY_LISTING_SHA256, SCAN_CR_SUM, SCAN_RATIO_LINES,
                       Count, ExhaustiveScan, GrayStream, Tally, WordIndex)


def _failed_frac(workload, outputs):
    tally = Tally()
    tally.record(workload.check(outputs))
    return tally.failed_frac


def _listing(n):
    lines = []
    pnoracle.generate_all_pn(n, lambda view: lines.append(bubble.word_str(view) + "\n"))
    return "".join(lines).encode("ascii")


def test_gray_listing_digest_from_library():
    listing = _listing(workloads.GRAY_N)
    assert hashlib.sha256(listing).hexdigest() == GRAY_LISTING_SHA256
    assert listing.count(b"\n") == workloads.GRAY_WORDS


def test_gray_stream_check_fires_on_flipped_word():
    listing = _listing(workloads.GRAY_N)
    good = [(0, listing), (0, workloads.GRAY_SUMMARY)]
    assert _failed_frac(GrayStream(), good) == 0
    flipped = bytearray(listing)
    flipped[1000] ^= 1  # "0" <-> "1"
    assert _failed_frac(GrayStream(), [(0, bytes(flipped)), (0, workloads.GRAY_SUMMARY)]) > 0
    bad_summary = b"words=162456 pairs=162455 violations=1\n"
    assert _failed_frac(GrayStream(), [(0, listing), (1, bad_summary)]) > 0


def test_count_check_fires_on_wrong_count():
    bench = ("n=23 words=562345 seconds=1.0 words_per_sec=1 membership_calls=850484 "
             "symbol_reads=7978987 reads_per_word=14.1888 swaps=1124642 avg_cr=5.8996\n").encode()
    assert _failed_frac(Count(), [(0, b"562345\n"), (0, bench)]) == 0
    assert _failed_frac(Count(), [(0, b"562346\n"), (0, bench)]) > 0
    wrong_reads = bench.replace(b"symbol_reads=7978987", b"symbol_reads=7978988")
    assert _failed_frac(Count(), [(0, b"562345\n"), (0, wrong_reads)]) > 0


def test_count_reference_by_two_generators():
    assert pnoracle.generate_all_pn(workloads.COUNT_N).count == COUNT_WORDS
    assert pnoracle.simple_generate_pn(workloads.COUNT_N).count == COUNT_WORDS


def test_exhaustive_scan_check_fires_on_wrong_ratio():
    lines = list(SCAN_RATIO_LINES.values())
    sums = [SCAN_CR_SUM] * workloads.SCAN_CR_REPEATS
    assert _failed_frac(ExhaustiveScan(), [(0, lines[0]), (0, lines[1]), sums]) == 0
    wrong = lines[0].replace(b"ratio=2.075", b"ratio=2.076")
    assert _failed_frac(ExhaustiveScan(), [(0, wrong), (0, lines[1]), sums]) > 0
    wrong_sums = [SCAN_CR_SUM + 1] + sums[1:]
    assert _failed_frac(ExhaustiveScan(), [(0, lines[0]), (0, lines[1]), wrong_sums]) > 0


def test_cr_sum_reference_by_closed_form():
    assert workloads.closed_form_cr_sum(workloads.SCAN_N) == SCAN_CR_SUM
    for n in range(1, 11):
        brute = sum(core.critical_prefix(format(x, f"0{n}b")).cr for x in range(1 << n))
        assert workloads.closed_form_cr_sum(n) == brute == analysis.critical_prefix_sum(n)


def test_word_index_check_fires_on_wrong_answer():
    wl = WordIndex()
    rnd = wl.make_inputs(7)[0]
    results = [workloads.index_word(w, rnd.short_queries) for w in rnd.short_words[:16]]
    assert _failed_frac(wl, [results, []]) == 0
    w, queries, answers, *rest = results[0]
    corrupted = (w, queries, [not answers[0], *answers[1:]], *rest)
    assert _failed_frac(wl, [[corrupted, *results[1:]], []]) > 0


def test_word_index_inputs_repeat_for_a_seed():
    wl = WordIndex()
    assert wl.make_inputs(3)[:2] == wl.make_inputs(3)[:2]
    assert wl.make_inputs(3)[0] != wl.make_inputs(4)[0]
