"""Command line front end: generation, membership, prefix normal forms,
Gray code verification, statistics and benchmarking.

Words stream to stdout one per line.  The CLI holds no renderer: it
only writes the text that ``bubble._lines`` renders, in batches of whole
lines of about 64 KiB, so ``generate | head`` sees its first line only
after the first batch.  Every listing but ``--algo simple`` makes one
``pnoracle._run_weights`` call with ``out.write``, which renders a full
listing with 20 <= n <= 24 one weight class per forked worker, on every
usable core, and writes the workers' batches as they are, in listing
order; ``--weight`` and other n stream from one process.
``verify-gray`` holds no reader either: it only opens its source and
passes the bytes to ``GrayChecker.feed_bytes``, which cuts them into
lines and names a bad one; ``--stdin`` passes 64 KiB chunks and ``--n``
the batches that ``generate`` would write.  Exit codes: 0 on success, 2
on usage errors (bad words, out-of-range parameters, an ``--out`` file
that cannot be opened, a closed stdin or stdout), 1 when a verification
subcommand finds violations, also if its reader leaves before the report
is written, and 130 after Ctrl-C.
"""

import argparse
import sys
import time
from contextlib import nullcontext

from . import analysis, bubble, core, pnoracle


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _open_out(args):
    if getattr(args, "out", None):
        try:
            return open(args.out, "w")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out!r}: {exc.strerror}") from exc
    if sys.stdout is None:
        raise ValueError("stdout is closed")
    return nullcontext(sys.stdout)


def _cmd_generate(args):
    if args.cyclic and (args.weight is not None or args.algo == "simple"
                        or args.order != "coolex"):
        raise ValueError("--cyclic cannot be combined with --weight, --order or --algo simple")
    if args.algo == "simple" and (args.weight is not None or args.order != "coolex"):
        raise ValueError("--algo simple cannot be combined with --weight or --order")
    with _open_out(args) as out:
        if args.algo == "simple":
            sink, flush = bubble._lines(out.write)
            pnoracle.simple_generate_pn(args.n, sink)
            flush()
        else:
            classes = ([(args.weight, args.order)] if args.weight is not None
                       else pnoracle._classes(args.n, args.order, args.cyclic))
            pnoracle._run_weights(args.n, classes, None, False, out.write)
    return 0


def _cmd_count(args):
    print(analysis.count_pnw(args.n))
    return 0


def _cmd_member(args):
    word = core.parse_word(args.word)
    if args.algo == "two-phase":
        result = core.member_two_phase(word)
    else:
        result = core.is_prefix_normal(word)
    print("true" if result else "false")
    return 0


def _cmd_pnf(args):
    print(core.pnf(core.parse_word(args.word)))
    return 0


def _cmd_class(args):
    word = core.parse_word(args.word)
    with _open_out(args) as out:  # before the 2^n scan, so a bad path fails fast
        members = analysis.equivalence_class(word, cap=args.cap)
        for member in sorted(members, reverse=True):
            out.write(member + "\n")
    return 0


def _cmd_verify_gray(args):
    checker = analysis.GrayChecker(cyclic=args.cyclic)
    if args.stdin:
        if not hasattr(sys.stdin, "buffer"):  # fd 0 closed, or a text-only stream
            raise ValueError("stdin is closed or not a byte stream")
        while chunk := sys.stdin.buffer.read(bubble._BATCH_BYTES):
            checker.feed_bytes(chunk)
    else:
        classes = pnoracle._classes(args.n, "coolex", args.cyclic)
        pnoracle._run_weights(args.n, classes, None, False,
                              lambda text: checker.feed_bytes(text.encode()))
    report = checker.finish()
    try:  # the result is known: a reader that leaves early does not change it
        print(f"words={report.words} pairs={report.pairs} violations={len(report.violations)}")
        for v in report.violations:
            print(f"violation index={v.index} word={v.word} next={v.next_word} p={v.p} q={v.q}")
    except BrokenPipeError:
        pass
    return 0 if report.ok else 1


def _cmd_stats_cr(args):
    for stats in (analysis.cr_stats_all_words(args.n, cap=args.cap, jobs=args.jobs),
                  analysis.cr_stats_pn(args.n)):
        print(f"population={stats.population} n={stats.n} words={stats.count} "
              f"cr_total={stats.total} cr_mean={float(stats.mean)!r}")
    return 0


def _cmd_stats_ratio(args):
    report = analysis.rejection_ratio(args.n, args.mode, cap=args.cap, jobs=args.jobs)
    if args.csv:
        print(report.csv())
    else:
        print(f"n={report.n} mode={report.mode} rejected={report.rejected} "
              f"passed={report.passed} ratio={report.ratio}")
    return 0


def _cmd_stats_deficit(args):
    count, deficit = analysis.pnw_deficit(args.n)
    print(f"n={args.n} pnw={count} deficit={deficit!r}")
    return 0


def _cmd_stats_pnf_cr(args):
    stats = analysis.pnf_cr_sample(args.n, args.samples, args.seed)
    print(f"n={stats.n} samples={stats.count} seed={args.seed} "
          f"cr_total={stats.total} cr_mean={float(stats.mean)!r}")
    return 0


def _cmd_bench(args):
    if args.n_max < args.n_min:
        raise ValueError("--n-max must be >= --n-min")
    if args.n_max >= pnoracle._POOL_MIN_N:
        import multiprocessing.pool  # the pool's one-off import, kept out of the rows' times
    for n in range(args.n_min, args.n_max + 1):
        start = time.perf_counter()
        stats = pnoracle.generate_all_pn(n)  # counting sink: timing excludes output
        elapsed = time.perf_counter() - start
        rate = stats.count / elapsed if elapsed > 0 else float("inf")
        print(f"n={n} words={stats.count} seconds={elapsed:.6f} "
              f"words_per_sec={rate:.0f} membership_calls={stats.membership_calls} "
              f"symbol_reads={stats.symbol_reads} "
              f"reads_per_word={stats.reads_per_word:.4f} swaps={stats.swaps} "
              f"avg_cr={float(stats.avg_cr):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnwords",
        description="Generate, test and analyze prefix normal words.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="stream prefix normal words, one per line")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--weight", type=_non_negative, default=None,
                   help="only this weight class")
    p.add_argument("--cyclic", action="store_true",
                   help="cyclic Gray ordering (odd weights up, even weights down)")
    p.add_argument("--order", choices=pnoracle._ORDERS, default="coolex")
    p.add_argument("--algo", choices=("bubble", "simple"), default="bubble")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("count", help="number of prefix normal words of length n")
    p.add_argument("--n", type=_positive, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("member", help="is the word prefix normal?")
    p.add_argument("word")
    p.add_argument("--algo", choices=("quadratic", "two-phase"), default="quadratic")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("pnf", help="prefix normal form of the word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_pnf)

    p = sub.add_parser("class", help="all words with this prefix normal form")
    p.add_argument("word")
    p.add_argument("--cap", type=_positive, default=analysis.DEFAULT_EXHAUSTIVE_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("verify-gray", help="check Gray closeness of a listing")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=_positive)
    source.add_argument("--stdin", action="store_true",
                        help="read the listing from stdin instead of generating")
    p.add_argument("--cyclic", action="store_true")
    p.set_defaults(func=_cmd_verify_gray)

    p = sub.add_parser("stats", help="critical prefix, rejection and count statistics")
    stats_sub = p.add_subparsers(dest="stat", required=True)

    q = stats_sub.add_parser("cr", help="critical prefix sums and means")
    q.add_argument("--n", type=_positive, required=True)
    q.add_argument("--cap", type=_positive, default=analysis.DEFAULT_EXHAUSTIVE_CAP)
    q.add_argument("--jobs", type=_positive, default=1)
    q.set_defaults(func=_cmd_stats_cr)

    q = stats_sub.add_parser("ratio", help="linear-phase rejection ratio")
    q.add_argument("--n", type=_positive, required=True)
    q.add_argument("--mode", choices=("trivial", "combined"), default="combined")
    q.add_argument("--cap", type=_positive, default=analysis.DEFAULT_EXHAUSTIVE_CAP)
    q.add_argument("--jobs", type=_positive, default=1)
    q.add_argument("--csv", action="store_true", help="emit n,rejected,passed,ratio")
    q.set_defaults(func=_cmd_stats_ratio)

    q = stats_sub.add_parser("deficit", help="n - log2(pnw(n))")
    q.add_argument("--n", type=_positive, required=True)
    q.set_defaults(func=_cmd_stats_deficit)

    q = stats_sub.add_parser("pnf-cr", help="critical prefix of prefix normal forms of random words")
    q.add_argument("--n", type=_positive, required=True)
    q.add_argument("--samples", type=_positive, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_stats_pnf_cr)

    p = sub.add_parser("bench", help="generation throughput and amortized counters")
    p.add_argument("--n-min", type=_positive, required=True)
    p.add_argument("--n-max", type=_positive, required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (core.WordFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
    except KeyboardInterrupt:  # Ctrl-C: the shell's 128 + SIGINT, no traceback
        code = 130
    sys.exit(code)
