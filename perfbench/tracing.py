"""In-memory span aggregation around the public functions of ``pnwords``.

Spans are recorded only from here: ``instrument`` rebinds public functions
and methods of the package to timing wrappers for the duration of a
``with`` block and puts the originals back afterwards.  Nothing in the
package itself is edited.

Hot spans (millions of calls at n=23) are not kept one by one.  Each call
is folded into a record keyed by (scope, name, parent name) holding the
call count, total time, self time, nested call count and, for predicates,
how many calls returned a true value and how long those took.  Self time
is a span's duration minus the time its child spans cover.

Spans are recorded on the calling thread's stack; the benchmark calls the
wrapped functions only from the main thread (the scan pool in
``analysis`` runs private chunk kernels, which are not wrapped).
"""

import sys
import time
from contextlib import contextmanager

ROOT = "<root>"

# Record fields.
CALLS, TOTAL, SELF, DESC, TRUE_CALLS, TRUE_TOTAL = range(6)


class Tracer:
    """Span records plus counters taken from return values."""

    def __init__(self):
        self.records = {}
        self.counters = {}
        self.scope = ""
        self._names = [ROOT]
        self._child_time = [0.0]
        self._child_calls = [0]

    def wrap(self, fn, name, *, count_true=False, on_result=None):
        """A function that calls ``fn`` inside a span called ``name``."""
        names = self._names
        child_time = self._child_time
        child_calls = self._child_calls
        records = self.records
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = names[-1]
            names.append(name)
            child_time.append(0.0)
            child_calls.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                names.pop()
                inner_time = child_time.pop()
                inner_calls = child_calls.pop()
                child_time[-1] += duration
                child_calls[-1] += inner_calls + 1
                key = (self.scope, name, parent)
                rec = records.get(key)
                if rec is None:
                    rec = records[key] = [0, 0.0, 0.0, 0, 0, 0.0]
                rec[CALLS] += 1
                rec[TOTAL] += duration
                rec[SELF] += duration - inner_time
                rec[DESC] += inner_calls
            if count_true and result:
                rec[TRUE_CALLS] += 1
                rec[TRUE_TOTAL] += duration
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value


def calibrate(calls=200_000, repeats=5):
    """Cost of one wrapped call, in seconds, measured on a method taking
    two arguments (the shape of the hot ``OracleState`` methods).

    Returns (inside, total): ``inside`` is the part that lands between a
    span's two clock reads (and so in the span's own time), ``total`` the
    whole extra cost of the wrapper; ``total - inside`` lands in the
    caller's self time.  The smallest of ``repeats`` measurements is kept.
    """
    class Probe:
        def method(self, a, b):
            pass

    bare_method = Probe.method
    obj = Probe()
    clock = time.perf_counter
    best_inside = best_total = float("inf")
    for _ in range(repeats):
        Probe.method = bare_method
        start = clock()
        for _ in range(calls):
            obj.method(1, 2)
        bare = (clock() - start) / calls
        tracer = Tracer()
        Probe.method = tracer.wrap(bare_method, "probe")
        start = clock()
        for _ in range(calls):
            obj.method(1, 2)
        total = (clock() - start) / calls - bare
        recorded = tracer.records[("", "probe", ROOT)][TOTAL] / calls
        best_total = min(best_total, total)
        best_inside = min(best_inside, recorded - bare)
    best_total = max(best_total, 0.0)
    return min(max(best_inside, 0.0), best_total), best_total


# Public functions and methods of the package that get a span:
# (module, attribute path, span name, options).  Several attributes may
# share one span name.  An attribute that does not exist is skipped, so
# its calls fall into the caller's self time and its span reports zero.
def _stats_counters(tracer):
    def on_result(stats):
        for field in ("count", "cr_sum", "membership_calls", "symbol_reads", "swaps"):
            tracer.add("pnoracle." + field, getattr(stats, field, 0))
    return on_result


def _gray_pairs(tracer):
    def on_result(report):
        tracer.add("analysis.gray_pairs", getattr(report, "pairs", 0))
    return on_result


SPANS = (
    ("cli", "run", "cli.run", {}),
    ("pnoracle", "generate_all_pn", "pnoracle.generate", {"on_result": _stats_counters}),
    ("pnoracle", "generate_all_pn_cyclic", "pnoracle.generate", {"on_result": _stats_counters}),
    ("pnoracle", "gen_bubble_pn", "pnoracle.generate", {"on_result": _stats_counters}),
    ("pnoracle", "simple_generate_pn", "pnoracle.generate", {"on_result": _stats_counters}),
    ("pnoracle", "OracleState.oracle_pn", "pnoracle.oracle", {}),
    ("pnoracle", "OracleState.member_pn", "pnoracle.member_pn", {"count_true": True}),
    ("pnoracle", "OracleState.update_f", "pnoracle.update_f", {}),
    ("pnoracle", "OracleState.snapshot", "pnoracle.snapshot_restore", {}),
    ("pnoracle", "OracleState.restore", "pnoracle.snapshot_restore", {}),
    ("pnoracle", "OracleState.swap", "pnoracle.swap", {}),
    ("bubble", "word_str", "bubble.word_str", {}),
    ("core", "parse_word", "core.parse_word", {}),
    ("core", "BjpmIndex.from_word", "core.bjpm_build", {}),
    ("core", "BjpmIndex.query", "core.bjpm_query", {}),
    ("core", "max_ones", "core.max_ones", {}),
    ("core", "min_ones", "core.min_ones", {}),
    ("core", "pnf", "core.pnf", {}),
    ("core", "is_prefix_normal", "core.is_prefix_normal", {"count_true": True}),
    ("core", "phase1_rejects", "core.phase1_rejects", {"count_true": True}),
    ("core", "member_two_phase", "core.member_two_phase", {}),
    ("analysis", "GrayChecker.feed", "analysis.gray_feed", {}),
    ("analysis", "GrayChecker.finish", "analysis.gray_finish", {"on_result": _gray_pairs}),
    ("analysis", "rejection_ratio", "analysis.scan", {}),
    ("analysis", "critical_prefix_sum", "analysis.scan", {}),
    ("analysis", "critical_prefix_of_pnf", "analysis.cr_of_pnf", {}),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pnwords" or name.startswith("pnwords."))]


@contextmanager
def instrument(tracer):
    """Wrap every attribute in ``SPANS`` for the duration of the block.

    A module-level function is rebound in every package module that holds
    the same object (``from .x import f`` bindings included), so calls
    inside the package are traced too.
    """
    import pnwords  # noqa: F401  (loads every submodule)

    modules = _package_modules()
    undo = []
    try:
        for module_name, path, span, options in SPANS:
            module = sys.modules.get("pnwords." + module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            kwargs = {k: (v(tracer) if k == "on_result" else v) for k, v in options.items()}
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(tracer.wrap(original.__func__, span, **kwargs))
            elif callable(original):
                replacement = tracer.wrap(original, span, **kwargs)
            else:
                continue
            if owner_name:
                undo.append((owner, attr, original))
                setattr(owner, attr, replacement)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, name, original))
                        setattr(m, name, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
