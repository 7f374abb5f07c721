"""The four benchmark workloads, their inputs and their output checks.

Each workload is a closed loop in one process: the next operation starts
when the previous one has returned.  One iteration is a generator of
timed ``Part``s (two, or three on exhaustive-scan), each with the words it
processed, its seconds and its raw outputs; the caller may run code
between the parts.  Outputs are checked by ``check`` after the clock has
stopped; it takes the outputs of all parts and returns one list of failed
checks per operation.

The CLI is driven in-process through ``pnwords.cli.run`` with
``sys.stdout``/``sys.stdin`` bound to in-memory text streams that have a
``.buffer``, so no disk or pipe is involved.
"""

import hashlib
import io
import random
import sys
import time
from dataclasses import dataclass
from itertools import accumulate

from pnwords import analysis, cli, core

# Frozen references.  The listing digest, the bench counters and the ratio
# lines are the program's outputs at the commit that defined this
# benchmark; the count is where generate_all_pn(23) and
# simple_generate_pn(23) agree, and the critical-prefix sum is where the
# numpy scan and the closed form in ``closed_form_cr_sum`` agree.
GRAY_N = 21
GRAY_WORDS = 162456
GRAY_LISTING_SHA256 = "5d75806c39fd8d506da906783b550235edc2d88228bad9f46c26d81d5daf7fff"
GRAY_SUMMARY = b"words=162456 pairs=162455 violations=0\n"

COUNT_N = 23
COUNT_WORDS = 562345
BENCH_COUNTERS = {"n": "23", "words": "562345", "membership_calls": "850484",
                  "symbol_reads": "7978987", "reads_per_word": "14.1888",
                  "swaps": "1124642", "avg_cr": "5.8996"}

SCAN_N = 22
SCAN_JOBS = 2
SCAN_RATIO_LINES = {
    "combined": b"n=22 mode=combined rejected=3798793 passed=395511 ratio=2.075\n",
    "trivial": b"n=22 mode=trivial rejected=3680954 passed=513350 ratio=2.693\n",
}
SCAN_CR_SUM = 12582887
SCAN_CR_REPEATS = 4

SHORT_N = 32
LONG_N = 1024
SHORT_PER_ROUND = 256
QUERIES_PER_WORD = 64
QUERY_CHECK_EVERY = 8
ROUNDS = 128


def closed_form_cr_sum(n):
    """Sum of cr(w) over all 2^n words, counted by the (s, t) decomposition.

    1^n contributes n.  Otherwise w = 1^s 0^t gamma with t >= 1, and gamma
    is empty (s + t = n, one word) or 1 followed by n-s-t-1 free symbols.
    """
    total = n
    for s in range(n):
        for t in range(1, n - s + 1):
            words = 1 if s + t == n else 1 << (n - s - t - 1)
            total += (s + t) * words
    return total


@dataclass
class Part:
    words: int
    seconds: float
    outputs: object


class Tally:
    """Operations attempted, operations whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problem_lists):
        for problems in problem_lists:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


class PlainIO:
    """Untraced in-memory streams; ``scope`` is a no-op."""

    def output(self):
        return io.TextIOWrapper(io.BytesIO(), encoding="ascii", newline="\n")

    def input(self, data):
        return io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline="\n")

    def scope(self, name):
        pass


def run_cli(argv, streams, stdin=None):
    """(exit code, stdout bytes, seconds) of ``cli.run(argv)`` in-process."""
    out = streams.output()
    saved = sys.stdout, sys.stdin
    sys.stdout = out
    if stdin is not None:
        sys.stdin = streams.input(stdin)
    try:
        start = time.perf_counter()
        code = cli.run(argv)
        out.flush()
        elapsed = time.perf_counter() - start
    finally:
        sys.stdout, sys.stdin = saved
    return code, out.buffer.getvalue(), elapsed


def _exit_problems(label, code):
    return [] if code == 0 else [f"{label}: exit code {code}"]


class GrayStream:
    """``generate --n 21`` piped into ``verify-gray --stdin``.

    The user pipeline: rendering, writing and Gray checking are about half
    of the time, so the sink-side layers (bubble, cli, analysis) show.
    Parts: generate, verify.
    """

    name = "gray-stream"
    normalise = True

    def make_inputs(self, seed):
        return None

    def iteration(self, inputs, i, streams):
        gen_code, listing, t_gen = run_cli(["generate", "--n", str(GRAY_N)], streams)
        yield Part(GRAY_WORDS, t_gen, (gen_code, listing))
        ver_code, summary, t_ver = run_cli(["verify-gray", "--stdin"], streams, stdin=listing)
        yield Part(GRAY_WORDS, t_ver, (ver_code, summary))

    def check(self, outputs):
        (gen_code, listing), (ver_code, summary) = outputs
        gen = _exit_problems("generate", gen_code)
        digest = hashlib.sha256(listing).hexdigest()
        if digest != GRAY_LISTING_SHA256:
            gen.append(f"generate: listing sha256 {digest} != frozen {GRAY_LISTING_SHA256}")
        ver = _exit_problems("verify-gray", ver_code)
        if summary != GRAY_SUMMARY:
            ver.append(f"verify-gray: summary {summary!r} != {GRAY_SUMMARY!r}")
        return [gen, ver]


def _fields(line):
    return dict(item.split("=", 1) for item in line.decode("ascii").split() if "=" in item)


class Count:
    """``count --n 23`` and ``bench --n-min 23 --n-max 23``.

    The generator does almost all the work and no word is rendered: the
    pnoracle walk without output, so a sink gain that adds per-swap work
    to the generator shows here.  Parts: count, bench.
    """

    name = "count"
    normalise = True

    def make_inputs(self, seed):
        return None

    def iteration(self, inputs, i, streams):
        n = str(COUNT_N)
        code, out, elapsed = run_cli(["count", "--n", n], streams)
        yield Part(COUNT_WORDS, elapsed, (code, out))
        code, out, elapsed = run_cli(["bench", "--n-min", n, "--n-max", n], streams)
        yield Part(COUNT_WORDS, elapsed, (code, out))

    def check(self, outputs):
        (count_code, count_out), (bench_code, bench_out) = outputs
        count = _exit_problems("count", count_code)
        if count_out != f"{COUNT_WORDS}\n".encode():
            count.append(f"count: printed {count_out!r}, want {COUNT_WORDS}")
        bench = _exit_problems("bench", bench_code)
        got = _fields(bench_out)
        for key, want in BENCH_COUNTERS.items():
            if got.get(key) != want:
                bench.append(f"bench: {key}={got.get(key)!r}, want {want}")
        return [count, bench]


class ExhaustiveScan:
    """``stats ratio --n 22 --cap 22 --jobs 2`` in both modes, then
    ``analysis.critical_prefix_sum(22, cap=22, jobs=2)``.

    The numpy chunk kernels plus the thread pool; pnoracle, bubble and
    core are not entered.  Parts: the combined-mode scan, the trivial-mode
    scan.  A third timed part, the critical-prefix sum (repeated
    ``SCAN_CR_REPEATS`` times so that its time is measurable), counts only
    towards the workload's total throughput: on its own its run-to-run
    spread was 0.15.
    """

    name = "exhaustive-scan"
    # Its time goes to numpy kernels on two threads, which the interpreted
    # reference loop does not track: normalising widened the run-to-run
    # spread from 0.05 to 0.13, so its times are reported as measured.
    normalise = False

    def __init__(self, jobs=SCAN_JOBS):
        self.jobs = jobs

    def make_inputs(self, seed):
        return None

    def iteration(self, inputs, i, streams):
        n = str(SCAN_N)
        for mode in SCAN_RATIO_LINES:
            code, line, elapsed = run_cli(
                ["stats", "ratio", "--n", n, "--cap", n, "--jobs", str(self.jobs),
                 "--mode", mode], streams)
            yield Part(1 << SCAN_N, elapsed, (code, line))
        start = time.perf_counter()
        sums = [analysis.critical_prefix_sum(SCAN_N, cap=SCAN_N, jobs=self.jobs)
                for _ in range(SCAN_CR_REPEATS)]
        yield Part(SCAN_CR_REPEATS << SCAN_N, time.perf_counter() - start, sums)

    def check(self, outputs):
        *ratios, sums = outputs
        result = []
        for (mode, want), (code, line) in zip(SCAN_RATIO_LINES.items(), ratios):
            problems = _exit_problems(f"stats ratio {mode}", code)
            if line != want:
                problems.append(f"stats ratio {mode}: {line!r} != {want!r}")
            result.append(problems)
        for total in sums:
            result.append([] if total == SCAN_CR_SUM
                          else [f"critical_prefix_sum: {total} != {SCAN_CR_SUM}"])
        return result


@dataclass
class Round:
    long_word: str
    long_queries: list
    short_words: list
    short_queries: list


def _random_word(rng, n):
    return format(rng.getrandbits(n), f"0{n}b")


def _random_queries(rng, n):
    # window lengths 0..n+2, so some queries ask for windows longer than w
    queries = []
    for _ in range(QUERIES_PER_WORD):
        k = rng.randint(0, n + 2)
        x = rng.randint(0, k)
        queries.append((x, k - x))
    return queries


def index_word(w, queries):
    """Everything a user of the per-word API runs on one word."""
    idx = core.BjpmIndex.from_word(w)
    answers = [idx.query(x, y) for x, y in queries]
    p = core.pnf(w)
    return (w, queries, answers, p, core.is_prefix_normal(w), core.is_prefix_normal(p),
            core.member_two_phase(w), analysis.critical_prefix_of_pnf(w))


def brute_has_window(prefix, x, y):
    """Does some window of x + y symbols hold exactly x ones?  ``prefix``
    is the word's prefix-sum list; every window is counted."""
    k = x + y
    return any(prefix[i + k] - prefix[i] == x for i in range(len(prefix) - k))


def check_word(result):
    w, queries, answers, p, pn_w, pn_p, two_phase, cr_p = result
    problems = []
    if not pn_p:
        problems.append(f"is_prefix_normal(pnf({w})) is false")
    if two_phase != pn_w:
        problems.append(f"member_two_phase({w}) = {two_phase} != is_prefix_normal = {pn_w}")
    want_cr = core.critical_prefix(p).cr
    if cr_p != want_cr:
        problems.append(f"critical_prefix_of_pnf({w}) = {cr_p} != {want_cr}")
    prefix = list(accumulate((c == "1" for c in w), initial=0))
    for j in range(0, len(queries), QUERY_CHECK_EVERY):
        x, y = queries[j]
        if answers[j] != brute_has_window(prefix, x, y):
            problems.append(f"BjpmIndex({w}).query({x}, {y}) = {answers[j]}")
    return problems


class WordIndex:
    """Seeded random words: per round one long word (length 1024) and 256
    short words (length 32).

    core's per-word quadratic loops, with early-exit rejections (random
    words) beside full scans (their prefix normal forms).  Parts: short
    words, long words, so a kernel that wins long and loses short shows.
    """

    name = "word-index"
    normalise = True

    def make_inputs(self, seed):
        rng = random.Random(seed)
        return [Round(_random_word(rng, LONG_N), _random_queries(rng, LONG_N),
                      [_random_word(rng, SHORT_N) for _ in range(SHORT_PER_ROUND)],
                      _random_queries(rng, SHORT_N))
                for _ in range(ROUNDS)]

    def iteration(self, inputs, i, streams):
        rnd = inputs[i % len(inputs)]
        streams.scope("short")
        start = time.perf_counter()
        results = [index_word(w, rnd.short_queries) for w in rnd.short_words]
        elapsed = time.perf_counter() - start
        streams.scope("")
        yield Part(len(results), elapsed, results)
        streams.scope("long")
        start = time.perf_counter()
        results = [index_word(rnd.long_word, rnd.long_queries)]
        elapsed = time.perf_counter() - start
        streams.scope("")
        yield Part(len(results), elapsed, results)

    def check(self, outputs):
        short, long_ = outputs
        return [check_word(result) for result in short + long_]


WORKLOADS = {w.name: w for w in (GrayStream, Count, ExhaustiveScan, WordIndex)}
