import io
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from pnwords import analysis, bubble, cli, pnoracle

from conftest import LENGTH7_COOLEX_LISTING, needs_fork_pool


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "pnwords", *args],
        input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class ClosingPipe(io.StringIO):
    """stdout whose reader goes away after ``limit`` characters."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, text):
        if self.tell() + len(text) > self.limit:
            raise BrokenPipeError
        return super().write(text)


class TestCliSubprocess:
    def test_count(self):
        code, out, _ = run_cli("count", "--n", "7")
        assert code == 0 and out.strip() == "41"

    def test_numpy_and_pool_load_only_for_scans(self):
        script = (
            "import contextlib, io, sys\n"
            "import pnwords.cli\n"
            "def loaded(*argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        pnwords.cli.run(list(argv))\n"
            "    return [m for m in ('numpy', 'concurrent.futures', 'multiprocessing')\n"
            "            if m in sys.modules]\n"
            "print(loaded('count', '--n', '8'), loaded('generate', '--n', '8'),\n"
            "      loaded('verify-gray', '--stdin'), loaded('stats', 'ratio', '--n', '8'))\n")
        _, listing, _ = run_cli("generate", "--n", "12")
        proc = subprocess.run([sys.executable, "-c", script],
                              input=listing, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[] [] [] ['numpy']\n"

    def test_bench_imports_the_pool_before_its_first_row(self):
        # the one-off import would otherwise land in the first pooled row's time
        script = (
            "import contextlib, io, sys\n"
            "from pnwords import cli, pnoracle\n"
            "walk, seen = pnoracle.generate_all_pn, []\n"
            "def timed(n):\n"
            "    seen.append('multiprocessing.pool' in sys.modules)\n"
            "    return walk(n)\n"
            "pnoracle.generate_all_pn, pnoracle._POOL_MIN_N = timed, 10\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.run(['bench', '--n-min', '8', '--n-max', '9'])\n"
            "    cli.run(['bench', '--n-min', '8', '--n-max', '10'])\n"
            "print(seen)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[False, False, True, True, True]\n"

    def test_generate_matches_listing(self):
        code, out, _ = run_cli("generate", "--n", "7")
        assert code == 0
        assert out.split() == LENGTH7_COOLEX_LISTING

    def test_generate_pipes_into_verify(self):
        _, listing, _ = run_cli("generate", "--n", "8")
        code, out, _ = run_cli("verify-gray", "--stdin", stdin=listing)
        assert code == 0
        assert "violations=0" in out and "words=70" in out

    def test_cyclic_verify_stdin(self):
        _, listing, _ = run_cli("generate", "--n", "8", "--cyclic")
        code, out, _ = run_cli("verify-gray", "--stdin", "--cyclic", stdin=listing)
        assert code == 0 and "violations=0" in out

    def test_verify_gray_accepts_crlf(self):
        listing = "0000\n1000\n1100\n"
        lf = run_cli("verify-gray", "--stdin", stdin=listing)
        crlf = run_cli("verify-gray", "--stdin", stdin=listing.replace("\n", "\r\n"))
        assert crlf == lf
        assert lf[:2] == (0, "words=3 pairs=2 violations=0\n")

    def test_verify_gray_blank_line_names_line(self):
        code, _, err = run_cli("verify-gray", "--stdin", stdin="1000\n\n1100\n")
        assert code == 2 and "line 2: blank line" in err

    def test_verify_gray_length_mismatch_names_line(self):
        code, _, err = run_cli("verify-gray", "--stdin", stdin="1000\n1100\n110\n")
        assert code == 2 and "line 3: words must have equal length" in err

    def test_verify_gray_failure_exits_1(self):
        code, out, _ = run_cli("verify-gray", "--stdin", stdin="0000\n1111\n")
        assert code == 1
        assert "violations=1" in out and "violation index=0" in out
        assert "word=0000 next=1111" in out

    @pytest.mark.parametrize("line", ["0b01", "1_0", " 101", "+101", "10 ", "10\r\r"])
    def test_verify_gray_rejects_what_int_accepts(self, line):
        code, _, err = run_cli("verify-gray", "--stdin", stdin=f"0000\n{line}\n")
        assert code == 2 and "line 2: invalid character" in err

    @pytest.mark.parametrize("bad", [b"\xff", "\u00e9".encode()])
    def test_verify_gray_non_ascii_names_line(self, bad):
        proc = subprocess.run(
            [sys.executable, "-m", "pnwords", "verify-gray", "--stdin"],
            input=b"1000\n1100\n1" + bad + b"0\n", capture_output=True)
        err = proc.stderr.decode(errors="replace")
        assert proc.returncode == 2 and "line 3: " in err
        assert "Traceback" not in err

    def test_verify_gray_last_line_without_newline(self):
        code, out, _ = run_cli("verify-gray", "--stdin", stdin="0000\n1000\n1100")
        assert (code, out) == (0, "words=3 pairs=2 violations=0\n")

    @pytest.mark.parametrize("argv, code", [
        (["verify-gray", "--stdin"], 1), (["generate", "--n", "18"], 0)])
    def test_reader_leaving_after_one_line_keeps_the_exit_code(self, argv, code, tmp_path):
        rng = random.Random(16)  # random words: almost every pair is a violation
        listing = tmp_path / "random.txt"
        listing.write_text("".join(format(rng.getrandbits(16), "016b") + "\n"
                                   for _ in range(20000)))
        with listing.open("rb") as stdin:
            proc = subprocess.Popen([sys.executable, "-m", "pnwords", *argv], stdin=stdin,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            proc.stdout.readline()
            proc.stdout.close()  # far more than a pipe's buffer is still unwritten
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == code
        assert err == b""

    @pytest.mark.parametrize("argv, fd", [
        (["verify-gray", "--stdin"], 0), (["generate", "--n", "5"], 1), (["class", "1101"], 1)])
    def test_closed_stream_exits_2(self, argv, fd):
        proc = subprocess.run([sys.executable, "-m", "pnwords", *argv],
                              preexec_fn=lambda: os.close(fd), capture_output=True)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error: ")
        assert proc.stderr.count(b"\n") == 1

    def test_member(self):
        assert run_cli("member", "10011")[:2] == (0, "false\n")
        assert run_cli("member", "11010", "--algo", "two-phase")[:2] == (0, "true\n")

    def test_pnf(self):
        assert run_cli("pnf", "11100110110")[1] == "11101010110\n"

    def test_class(self):
        code, out, _ = run_cli("class", "11010")
        assert code == 0
        assert out.split() == ["11010", "10110", "01101", "01011"]

    def test_malformed_word_exits_2(self):
        code, _, err = run_cli("member", "10a01")
        assert code == 2 and "invalid character" in err

    @pytest.mark.parametrize("command", ["member", "pnf", "class"])
    def test_non_utf8_word_exits_2(self, command):
        proc = subprocess.run([sys.executable, "-m", "pnwords", command, b"1\xff0"],
                              capture_output=True)
        assert proc.returncode == 2 and proc.stdout == b""
        lines = proc.stderr.decode("ascii", "replace").splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invalid character ")

    def test_weight_above_length_exits_2(self):
        code, _, err = run_cli("generate", "--n", "5", "--weight", "7")
        assert code == 2 and "error" in err

    def test_usage_error_exits_2(self):
        assert run_cli("generate")[0] == 2
        assert run_cli("nonsense")[0] == 2

    @pytest.mark.parametrize("argv", [["count", "--n", "30"], ["generate", "--n", "30"],
                                      ["generate", "--n", "24"]],
                             ids=["pooled-count", "serial-generate", "pooled-generate"])
    def test_ctrl_c_exits_130_without_traceback(self, argv):
        script = ("from pnwords import cli, pnoracle\n"
                  "pnoracle._cores = lambda: 2\n"  # count and n = 24 use a pool even on one core
                  "cli.main()\n")
        # stdout is read only after the signal, so a listing that outruns the
        # wait stops in a write, mid-listing, once the pipe is full
        proc = subprocess.Popen([sys.executable, "-c", script, *argv], start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            time.sleep(1.5)
            os.killpg(proc.pid, signal.SIGINT)  # Ctrl-C signals the whole group
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 130
            assert b"Traceback" not in err
            with pytest.raises(ProcessLookupError):  # no worker outlives the parent
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


@needs_fork_pool
class TestPooledGenerate:
    """A full listing with _POOL_MIN_N <= n <= _RENDER_MAX_N is rendered one
    weight class per worker and written in listing order."""

    @pytest.mark.parametrize("options, listing", [
        ([], lambda sink: pnoracle.generate_all_pn(16, sink)),
        (["--cyclic"], lambda sink: pnoracle.generate_all_pn_cyclic(16, sink)),
        (["--order", "visit-first"],
         lambda sink: pnoracle.generate_all_pn(16, sink, order="visit-first")),
    ], ids=["coolex", "cyclic", "visit-first"])
    def test_byte_identical_to_listing(self, pooled, options, listing, tmp_path, monkeypatch):
        sink = bubble.Collector()
        listing(sink)
        expected = "".join(w + "\n" for w in sink.words)
        target = tmp_path / "words.txt"
        assert cli.run(["generate", "--n", "16", *options, "--out", str(target)]) == 0
        assert target.read_bytes() == expected.encode()
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.run(["generate", "--n", "16", *options]) == 0
        assert out.getvalue() == expected
        assert pooled == [2, 2]

    @pytest.mark.parametrize("options", [["--weight", "8"], ["--algo", "simple"]])
    def test_single_class_and_simple_start_no_pool(self, pooled, options, capsys):
        assert cli.run(["generate", "--n", "16", *options]) == 0
        assert capsys.readouterr().out
        assert pooled == []

    def test_n_outside_the_range_starts_no_pool(self, pooled, monkeypatch, capsys):
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 9)
        calls = []

        def walk(n, d, visit, order, validate):  # n = 25 would list 50 MB
            calls.append(n)
            return (0,) * 5

        monkeypatch.setattr(pnoracle, "_gen_weight", walk)
        assert cli.run(["generate", "--n", "25"]) == 0
        assert cli.run(["generate", "--n", "8"]) == 0
        assert calls == [25] * 26 + [8] * 9 and pooled == []  # every class, in this process

    def test_n_outside_the_range_loads_no_multiprocessing(self):
        script = ("import sys\n"
                  "from pnwords import cli, pnoracle\n"
                  "pnoracle._cores = lambda: 2\n"
                  "pnoracle._gen_weight = lambda n, d, visit, order, validate: (0,) * 5\n"
                  "cli.run(['generate', '--n', '25'])\n"
                  "cli.run(['generate', '--n', '8'])\n"
                  "print('multiprocessing' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    @pytest.mark.parametrize("options", [[], ["--cyclic"]])
    def test_verify_gray_n_checks_the_pooled_listing(self, pooled, options, capsys):
        assert cli.run(["verify-gray", "--n", "16", *options]) == 0
        pairs = 7568 if options else 7567
        assert capsys.readouterr().out == f"words=7568 pairs={pairs} violations=0\n"
        assert pooled == [2]

    def test_pipe_closing_mid_listing_exits_0_and_ends_workers(self, pooled, monkeypatch,
                                                               capsys):
        # n = 16 lists 7,568 words of 17 bytes; the reader leaves after 1,000
        out = ClosingPipe(1000 * 17)
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.run(["generate", "--n", "16"]) == 0
        assert pooled == [2] and multiprocessing.active_children() == []
        written = out.getvalue()
        listing = "".join(w + "\n" for w in pnoracle.pn_words(16))
        assert written and len(written) < len(listing) and listing.startswith(written)
        assert capsys.readouterr().err == ""


class TestCliInProcess:
    def test_generate_weight_and_out(self, tmp_path, capsys):
        target = tmp_path / "words.txt"
        assert cli.run(["generate", "--n", "7", "--weight", "4", "--out", str(target)]) == 0
        expected = [w for w in LENGTH7_COOLEX_LISTING if w.count("1") == 4]
        assert target.read_text().split() == expected

    @pytest.mark.parametrize("command", (["generate", "--n", "5"], ["class", "11010"]))
    @pytest.mark.parametrize("target", ("missing/x.txt", "."))
    def test_unwritable_out_exits_2(self, command, target, tmp_path, capsys):
        # a missing directory, and a directory
        path = tmp_path / target
        assert cli.run([*command, "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_class_opens_out_before_the_scan(self, monkeypatch, tmp_path, capsys):
        def scan(*args, **kwargs):
            raise AssertionError("scanned before opening --out")

        monkeypatch.setattr(cli.analysis, "equivalence_class", scan)
        path = tmp_path / "missing" / "x"
        assert cli.run(["class", "1101", "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")

    def test_generate_deep_weight_class(self, capsys):
        # a path 1199 tree levels deep, past the default recursion limit
        assert cli.run(["generate", "--n", "2400", "--weight", "2399"]) == 0
        assert len(capsys.readouterr().out.split()) == 1200

    def test_generate_simple_long_words_until_pipe_closes(self, monkeypatch, capsys):
        # 1200 levels of prefix extension; the reader leaves after 100
        # words, which lets the first 64 KiB batch (55 words) through
        out = ClosingPipe(100 * 1201)
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.run(["generate", "--n", "1200", "--algo", "simple"]) == 0
        assert out.getvalue().split()[:2] == ["0" * 1200, "1" + "0" * 1199]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("options, listing", [
        ([], lambda sink: pnoracle.generate_all_pn(16, sink)),
        (["--cyclic"], lambda sink: pnoracle.generate_all_pn_cyclic(16, sink)),
        (["--weight", "8"], lambda sink: pnoracle.gen_bubble_pn(16, 8, sink)),
        (["--order", "visit-first"],
         lambda sink: pnoracle.generate_all_pn(16, sink, order="visit-first")),
        (["--algo", "simple"], lambda sink: pnoracle.simple_generate_pn(16, sink)),
    ], ids=["coolex", "cyclic", "weight", "visit-first", "simple"])
    def test_generate_is_byte_identical_to_listing(self, options, listing, capsys):
        # n = 16 lists 7,568 words (129 KB), more than one 64 KiB batch
        sink = bubble.Collector()
        listing(sink)
        assert cli.run(["generate", "--n", "16", *options]) == 0
        assert capsys.readouterr().out == "".join(w + "\n" for w in sink.words)

    def test_generate_out_file_is_byte_identical(self, tmp_path, capsys):
        target = tmp_path / "words.txt"
        assert cli.run(["generate", "--n", "16", "--out", str(target)]) == 0
        expected = "".join(w + "\n" for w in pnoracle.pn_words(16))
        assert target.read_bytes() == expected.encode()
        assert capsys.readouterr().out == ""

    def test_generate_simple_algo_same_set(self, capsys):
        assert cli.run(["generate", "--n", "6", "--algo", "simple"]) == 0
        simple = capsys.readouterr().out.split()
        assert cli.run(["generate", "--n", "6"]) == 0
        gray = capsys.readouterr().out.split()
        assert simple == sorted(simple)
        assert sorted(simple) == sorted(gray)

    def test_generate_visit_first(self, capsys):
        assert cli.run(["generate", "--n", "5", "--order", "visit-first"]) == 0
        words = capsys.readouterr().out.split()
        assert len(words) == 14

    def test_conflicting_options(self, capsys):
        assert cli.run(["generate", "--n", "5", "--cyclic", "--weight", "2"]) == 2
        assert cli.run(["generate", "--n", "5", "--algo", "simple", "--weight", "2"]) == 2
        assert cli.run(["generate", "--n", "5", "--cyclic", "--order", "visit-first"]) == 2

    def test_verify_gray_generated(self, capsys):
        assert cli.run(["verify-gray", "--n", "9"]) == 0
        out = capsys.readouterr().out
        assert "words=125 pairs=124 violations=0" in out
        assert cli.run(["verify-gray", "--n", "9", "--cyclic"]) == 0
        out = capsys.readouterr().out
        assert "words=125 pairs=125 violations=0" in out

    def test_verify_gray_text_only_stdin_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1000\n1100\n"))
        assert cli.run(["verify-gray", "--stdin"]) == 2
        assert capsys.readouterr() == ("", "error: stdin is closed or not a byte stream\n")

    def test_verify_gray_needs_source(self, capsys):
        assert cli.run(["verify-gray"]) == 2

    def test_verify_gray_takes_one_source(self, capsys):
        assert cli.run(["verify-gray", "--n", "5", "--stdin"]) == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_stats_ratio(self, capsys):
        assert cli.run(["stats", "ratio", "--n", "10", "--mode", "trivial"]) == 0
        assert "ratio=2.500" in capsys.readouterr().out
        assert cli.run(["stats", "ratio", "--n", "10", "--csv"]) == 0
        assert capsys.readouterr().out.strip() == "10,802,222,2.168"

    def test_stats_ratio_cap(self, capsys):
        assert cli.run(["stats", "ratio", "--n", "22"]) == 2
        assert cli.run(["stats", "ratio", "--n", "16", "--cap", "16", "--jobs", "2"]) == 0

    def test_stats_cr(self, capsys):
        assert cli.run(["stats", "cr", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "population=all-words n=10 words=1024 cr_total=3059" in out
        assert "population=prefix-normal n=10 words=218" in out

    def test_stats_deficit(self, capsys):
        assert cli.run(["stats", "deficit", "--n", "12"]) == 0
        assert "pnw=697" in capsys.readouterr().out

    def test_stats_pnf_cr(self, capsys):
        assert cli.run(["stats", "pnf-cr", "--n", "32", "--samples", "50", "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert cli.run(["stats", "pnf-cr", "--n", "32", "--samples", "50", "--seed", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_bench(self, capsys):
        assert cli.run(["bench", "--n-min", "8", "--n-max", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n=8 words=70 ")
        for line in lines:
            assert "reads_per_word=" in line and "avg_cr=" in line

    def test_bench_bad_range(self, capsys):
        assert cli.run(["bench", "--n-min", "9", "--n-max", "8"]) == 2

    @pytest.mark.parametrize("argv, code", [
        ("count --n 0", 2),
        ("pnf 011", 0),
        ("stats cr --n 21", 2),
        ("stats deficit --n 0", 2),
        ("stats pnf-cr --n 4 --samples 0", 2),
    ])
    def test_exit_codes(self, argv, code, capsys):
        # the codes no other test checks: with them every command is run
        # for each code it can return (0, 2, and 1 for verify-gray)
        assert cli.run(argv.split()) == code
        out, err = capsys.readouterr()
        assert (out == "", err != "") == (code == 2, code == 2)

    def test_help_exits_zero(self):
        assert cli.run(["--help"]) == 0


def _verify_stdin(monkeypatch, capsys, data, *options):
    """(exit code, stdout, stderr) of ``verify-gray --stdin`` on data."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = cli.run(["verify-gray", "--stdin", *options])
    return (code, *capsys.readouterr())


def _violation_lines(words, cyclic=False):
    return "".join(f"violation index={v.index} word={v.word} next={v.next_word} "
                   f"p={v.p} q={v.q}\n"
                   for v in analysis.verify_gray(words, cyclic=cyclic).violations)


class TestVerifyGrayBlocks:
    """verify-gray reads whole-line blocks; the ones feed_block refuses are
    fed line by line, with the messages, line numbers and exit codes that
    line-by-line feeding gives."""

    LISTING = "".join(w + "\n" for w in pnoracle.pn_words(16)).encode()  # 7,568 lines

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_small_blocks_match_the_checker(self, size, cyclic, monkeypatch, capsys):
        rng = random.Random(size)
        for n in range(10, 15):
            monkeypatch.setattr(bubble, "_BATCH_BYTES", size * (n + 1))  # --stdin and --n
            words = pnoracle.pn_words(n, cyclic=cyclic)
            for i in (0, *rng.sample(range(len(words)), 6), len(words) - 1):
                x = int(words[i], 2)
                for _ in range(rng.randrange(1, 5)):
                    x ^= 1 << rng.randrange(n)
                words[i] = format(x, f"0{n}b")
            options = ["--cyclic"] if cyclic else []
            code, out, err = _verify_stdin(
                monkeypatch, capsys, "".join(w + "\n" for w in words).encode(), *options)
            report = analysis.verify_gray(words, cyclic=cyclic)
            assert out == (f"words={len(words)} pairs={report.pairs} "
                           f"violations={len(report.violations)}\n"
                           + _violation_lines(words, cyclic))
            assert (code, err) == (0 if report.ok else 1, "")
            assert cli.run(["verify-gray", "--n", str(n), *options]) == 0
            assert capsys.readouterr().out.startswith(
                f"words={len(words)} pairs={report.pairs} violations=0\n")

    @pytest.mark.parametrize("edit, code, message", [
        (lambda line: line + b"\r", 0, ""),
        (lambda line: line[:3] + b"\xff" + line[4:], 2, "error: line 5000: 'utf-8' codec"),
        (lambda line: b"", 2, "error: line 5000: blank line\n"),
        (lambda line: line[:-1], 2, "error: line 5000: words must have equal length\n"),
        (None, 0, ""),
    ], ids=["crlf", "xff", "blank", "shorter", "no-final-newline"])
    def test_bad_line_past_the_first_block(self, edit, code, message, monkeypatch, capsys):
        lines = self.LISTING.split(b"\n")
        if edit is None:
            data = b"\n".join(lines[:5000])
        else:
            lines[4999] = edit(lines[4999])
            data = b"\n".join(lines)
        assert len(b"".join(lines[:4999])) > bubble._BATCH_BYTES  # past the first block
        got = _verify_stdin(monkeypatch, capsys, data)
        assert got[0] == code and got[2].startswith(message)
        if edit is None:
            assert got[1] == "words=5000 pairs=4999 violations=0\n"
        monkeypatch.setattr(analysis.GrayChecker, "feed_block", lambda self, block: 0)
        assert _verify_stdin(monkeypatch, capsys, data) == got

    def test_words_longer_than_a_lane_go_line_by_line(self, monkeypatch, capsys):
        def kernel(*args):
            raise AssertionError("a width-300 block reached the kernel")

        monkeypatch.setattr(analysis, "_lanes_close", kernel)
        rng = random.Random(300)
        x, words = rng.getrandbits(300), []
        for _ in range(600):
            for _ in range(rng.randrange(4)):
                x ^= 1 << rng.randrange(300)
            words.append(format(x, "0300b"))
        code, out, err = _verify_stdin(monkeypatch, capsys,
                                       "".join(w + "\n" for w in words).encode())
        report = analysis.verify_gray(words)
        assert len(report.violations) > 5
        assert (code, err) == (1, "")
        assert out == (f"words=600 pairs=599 violations={len(report.violations)}\n"
                       + _violation_lines(words))


def _simple_words(n):
    sink = bubble.Collector()
    pnoracle.simple_generate_pn(n, sink)
    return sink.words


class TestListingBatches:
    """Every listing reaches its writer as the batches of bubble._lines:
    with a batch of 1-3 lines, each write is whole lines, at most one batch
    plus one line long, and the writes join to the listing, serial or
    pooled."""

    LISTINGS = {
        "coolex": ([], pnoracle.pn_words),
        "weight": (["--weight", "8"],
                   lambda n: [w for w in pnoracle.pn_words(n) if w.count("1") == 8]),
        "cyclic": (["--cyclic"], lambda n: pnoracle.pn_words(n, cyclic=True)),
        "visit-first": (["--order", "visit-first"],
                        lambda n: pnoracle.pn_words(n, order="visit-first")),
        "simple": (["--algo", "simple"], _simple_words),
    }
    POOLED = ("coolex", "cyclic", "visit-first")  # more than one class

    @pytest.fixture(params=["serial", pytest.param("pooled", marks=needs_fork_pool)])
    def made(self, request, monkeypatch):
        """The sizes of the pools made; None when the run is held serial."""
        if request.param == "pooled":
            return request.getfixturevalue("pooled")
        monkeypatch.setattr(pnoracle, "_POOL_MIN_N", 0)
        monkeypatch.setattr(pnoracle, "_cores", lambda: 1)
        return None

    @staticmethod
    def check(writes, words, n, size):
        assert "".join(writes) == "".join(w + "\n" for w in words)
        assert all(text.endswith("\n") and len(text) <= (size + 1) * (n + 1) for text in writes)

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("mode", LISTINGS)
    def test_generate(self, mode, size, made, monkeypatch):
        options, listing = self.LISTINGS[mode]
        for n in range(12, 17):
            monkeypatch.setattr(bubble, "_BATCH_BYTES", size * (n + 1))
            writes = []
            monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
            assert cli.run(["generate", "--n", str(n), *options]) == 0
            self.check(writes, listing(n), n, size)
        if made is not None:
            assert made == ([2] * 5 if mode in self.POOLED else [])

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("cyclic", [False, True])
    def test_verify_gray_n(self, cyclic, size, made, monkeypatch, capsys):
        blocks = []
        feed_block = analysis.GrayChecker.feed_block
        monkeypatch.setattr(analysis.GrayChecker, "feed_block",
                            lambda self, block: blocks.append(block) or feed_block(self, block))
        options = ["--cyclic"] if cyclic else []
        for n in range(12, 17):
            monkeypatch.setattr(bubble, "_BATCH_BYTES", size * (n + 1))
            blocks.clear()
            assert cli.run(["verify-gray", "--n", str(n), *options]) == 0
            words = pnoracle.pn_words(n, cyclic=cyclic)
            pairs = len(words) if cyclic else len(words) - 1
            assert capsys.readouterr().out == f"words={len(words)} pairs={pairs} violations=0\n"
            self.check([block.decode() for block in blocks], words, n, size)
        if made is not None:
            assert made == [2] * 5
