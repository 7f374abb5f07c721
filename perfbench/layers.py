"""Per-layer metrics of one traced iteration.

The layers are the package modules ``cli``, ``pnoracle``, ``bubble``,
``core`` and ``analysis``.  Times ending in ``_s`` are corrected for the
calibrated cost of the wrappers; ``*_raw_s`` are the uncorrected self
times.  Every metric is reported on every workload, so a layer a workload
does not enter reads 0.  Names, units and directions are declared in
``BENCHMARK.json``; this module only computes the values.
"""

import io

from tracing import CALLS, DESC, SELF, TOTAL, TRUE_CALLS, TRUE_TOTAL

SERIAL = "serial"  # scope of the jobs=1 rerun of the exhaustive scan


class TracedIO:
    """In-memory streams whose ``write`` and line reads are spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.bytes_written = 0
        self._outputs = []

    def output(self):
        out = _TracedOutput(self.tracer)
        self._outputs.append(out)
        return out

    def input(self, data):
        return _TracedInput(self.tracer, data)

    def scope(self, name):
        self.tracer.scope = name

    def close(self):
        self.bytes_written = sum(len(out.buffer.getvalue()) for out in self._outputs)


class _TracedOutput:
    def __init__(self, tracer):
        inner = io.TextIOWrapper(io.BytesIO(), encoding="ascii", newline="\n")
        self.buffer = inner.buffer
        self.flush = inner.flush
        self.write = tracer.wrap(inner.write, "cli.write")


class _TracedInput:
    def __init__(self, tracer, data):
        inner = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline="\n")
        self.buffer = inner.buffer
        # lines returned are counted as the span's true results
        self._next = tracer.wrap(inner.__next__, "cli.read", count_true=True)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class _Spans:
    """Sums of span records by name over a set of scopes."""

    def __init__(self, tracer, scopes, cost_inside, cost_total):
        self.by_name = {}
        self.child_calls = {}
        for (scope, name, parent), rec in tracer.records.items():
            if scope not in scopes:
                continue
            acc = self.by_name.setdefault(name, [0, 0.0, 0.0, 0, 0, 0.0])
            for k, v in enumerate(rec):
                acc[k] += v
            self.child_calls[parent] = self.child_calls.get(parent, 0) + rec[CALLS]
        self.inside = cost_inside
        self.total_cost = cost_total

    def _rec(self, name):
        return self.by_name.get(name, [0, 0.0, 0.0, 0, 0, 0.0])

    def calls(self, name):
        return self._rec(name)[CALLS]

    def true_calls(self, name):
        return self._rec(name)[TRUE_CALLS]

    def total(self, name):
        rec = self._rec(name)
        return rec[TOTAL] - rec[CALLS] * self.inside - rec[DESC] * self.total_cost

    def self_time(self, name):
        rec = self._rec(name)
        outside = self.total_cost - self.inside
        return (rec[SELF] - rec[CALLS] * self.inside
                - self.child_calls.get(name, 0) * outside)

    def raw_self(self, name):
        return self._rec(name)[SELF]

    def true_time(self, name):
        rec = self._rec(name)
        return rec[TRUE_TOTAL] - rec[TRUE_CALLS] * self.inside

    def false_time(self, name):
        rec = self._rec(name)
        return (rec[TOTAL] - rec[TRUE_TOTAL]) - (rec[CALLS] - rec[TRUE_CALLS]) * self.inside


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, streams, cost, overhead_frac, jobs):
    """Name -> value of every per-layer metric from the records of one
    traced iteration.

    ``cost`` is (inside, total) from ``tracing.calibrate``; ``jobs`` is the
    pool size of the exhaustive scan, whose serial rerun is recorded under
    the ``serial`` scope (0 when the workload has no such rerun).
    """
    inside, total = cost
    main_scopes = {"", "short", "long"}
    every = _Spans(tracer, main_scopes, inside, total)
    short = _Spans(tracer, {"short"}, inside, total)
    long_ = _Spans(tracer, {"long"}, inside, total)
    serial = _Spans(tracer, {SERIAL}, inside, total)
    c = tracer.counters
    words = c.get("pnoracle.count", 0)
    member_calls = every.calls("pnoracle.member_pn")
    parallel_scan = every.total("analysis.scan")
    serial_scan = serial.total("analysis.scan")
    return {
        "pnoracle.generate_calls": every.calls("pnoracle.generate"),
        "pnoracle.generate_s": every.total("pnoracle.generate"),
        "pnoracle.walk_self_s": every.self_time("pnoracle.generate"),
        "pnoracle.walk_self_raw_s": every.raw_self("pnoracle.generate"),
        "pnoracle.oracle_s": every.self_time("pnoracle.oracle"),
        "pnoracle.oracle_raw_s": every.raw_self("pnoracle.oracle"),
        "pnoracle.member_pn_s": every.total("pnoracle.member_pn"),
        "pnoracle.member_pn_calls": member_calls,
        "pnoracle.update_f_s": every.total("pnoracle.update_f"),
        "pnoracle.snapshot_restore_s": every.total("pnoracle.snapshot_restore"),
        "pnoracle.swap_s": every.total("pnoracle.swap"),
        "pnoracle.swap_calls": every.calls("pnoracle.swap"),
        "pnoracle.words": words,
        "pnoracle.membership_calls": c.get("pnoracle.membership_calls", 0),
        "pnoracle.symbol_reads": c.get("pnoracle.symbol_reads", 0),
        "pnoracle.swaps": c.get("pnoracle.swaps", 0),
        "pnoracle.reads_per_word": _ratio(c.get("pnoracle.symbol_reads", 0), words),
        "pnoracle.avg_cr": _ratio(c.get("pnoracle.cr_sum", 0), words),
        "pnoracle.member_accept_ratio": _ratio(every.true_calls("pnoracle.member_pn"),
                                               member_calls),
        "bubble.word_str_s": every.total("bubble.word_str"),
        "bubble.word_str_calls": every.calls("bubble.word_str"),
        "cli.run_calls": every.calls("cli.run"),
        "cli.run_self_s": every.self_time("cli.run"),
        "cli.run_self_raw_s": every.raw_self("cli.run"),
        "cli.write_s": every.total("cli.write"),
        "cli.write_calls": every.calls("cli.write"),
        "cli.bytes_written": streams.bytes_written,
        "cli.read_s": every.total("cli.read"),
        "cli.lines_read": every.true_calls("cli.read"),
        "core.parse_word_s": every.total("core.parse_word"),
        "core.parse_word_calls": every.calls("core.parse_word"),
        "core.bjpm_build_s.short": short.total("core.bjpm_build"),
        "core.bjpm_build_s.long": long_.total("core.bjpm_build"),
        "core.bjpm_build_calls": every.calls("core.bjpm_build"),
        "core.max_ones_s.short": short.total("core.max_ones"),
        "core.max_ones_s.long": long_.total("core.max_ones"),
        "core.pnf_s.short": short.total("core.pnf"),
        "core.pnf_s.long": long_.total("core.pnf"),
        "core.bjpm_query_s": every.total("core.bjpm_query"),
        "core.bjpm_query_calls": every.calls("core.bjpm_query"),
        "core.is_prefix_normal_s.reject": every.false_time("core.is_prefix_normal"),
        "core.is_prefix_normal_s.accept": every.true_time("core.is_prefix_normal"),
        "core.member_two_phase_s": every.total("core.member_two_phase"),
        "core.phase1_reject_ratio": _ratio(every.true_calls("core.phase1_rejects"),
                                           every.calls("core.phase1_rejects")),
        "analysis.gray_feed_s": every.total("analysis.gray_feed"),
        "analysis.gray_pairs": c.get("analysis.gray_pairs", 0),
        "analysis.scan_kernel_s": serial_scan,
        "analysis.scan_pool_efficiency": _ratio(serial_scan, jobs * parallel_scan),
        "analysis.cr_of_pnf_s": every.total("analysis.cr_of_pnf"),
        "trace_overhead_frac": overhead_frac,
        "trace.call_cost_ns": total * 1e9,
    }
