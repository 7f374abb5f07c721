"""The traced run: every per-layer metric is reported, the bypass map
holds, the pnoracle counters equal GenerationStats and repeat exactly, and
the benchmark refuses to run without the package source.  Metric names
and units come from BENCHMARK.json; these tests check that every declared
metric is emitted.

These tests run the benchmark command itself, as a subprocess from the
checkout root; together they take about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pnwords import analysis, pnoracle

import layers
import tracing
import workloads
from tracing import Tracer, instrument

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKLOADS = sorted(workloads.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _run(workload, trace, seconds=1, cwd=ROOT, seed=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(workload, trace, **kwargs):
    proc = _run(workload, trace, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {name: _result(name, 1) for name in WORKLOADS}


def _value(result, name):
    return result["metrics"][name]["value"]


def test_untraced_run_reports_every_declared_metric():
    assert sorted(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    untraced = _result("word-index", 0)
    assert untraced["correct"] and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_traced_run_reports_every_layer_metric(traced):
    for name, result in traced.items():
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["metrics"]) == set(PER_LAYER), name
        assert _value(result, "trace.call_cost_ns") > 0, name


def test_bypass_map(traced):
    assert _value(traced["count"], "bubble.word_str_calls") == 0
    for name in ("exhaustive-scan", "word-index"):
        for metric in ("pnoracle.generate_calls", "pnoracle.member_pn_calls",
                       "pnoracle.swap_calls", "pnoracle.words",
                       "pnoracle.membership_calls", "pnoracle.symbol_reads", "pnoracle.swaps"):
            assert _value(traced[name], metric) == 0, (name, metric)
    for metric in ("core.bjpm_build_calls", "core.bjpm_query_calls"):
        assert _value(traced["gray-stream"], metric) == 0


def test_layers_are_entered_where_expected(traced):
    assert _value(traced["gray-stream"], "bubble.word_str_calls") == workloads.GRAY_WORDS
    assert _value(traced["gray-stream"], "cli.lines_read") == workloads.GRAY_WORDS
    assert _value(traced["gray-stream"], "analysis.gray_pairs") == workloads.GRAY_WORDS - 1
    assert _value(traced["exhaustive-scan"], "analysis.scan_kernel_s") > 0
    assert _value(traced["word-index"], "core.bjpm_build_calls") == 1 + workloads.SHORT_PER_ROUND


def test_pnoracle_counters_equal_generation_stats(traced):
    stats = pnoracle.generate_all_pn(workloads.GRAY_N)
    gray = traced["gray-stream"]
    assert _value(gray, "pnoracle.words") == stats.count
    assert _value(gray, "pnoracle.membership_calls") == stats.membership_calls
    assert _value(gray, "pnoracle.symbol_reads") == stats.symbol_reads
    assert _value(gray, "pnoracle.swaps") == stats.swaps
    for result in (gray, traced["count"]):
        assert (_value(result, "pnoracle.member_pn_calls")
                == _value(result, "pnoracle.membership_calls"))
        assert _value(result, "pnoracle.swap_calls") == _value(result, "pnoracle.swaps")


def test_pnoracle_counters_repeat_exactly(traced):
    again = _result("count", 1, seed=2)
    counters = [name for name, unit in PER_LAYER.items()
                if name.startswith("pnoracle.") and unit != "s"]
    for name in counters:
        assert _value(again, name) == _value(traced["count"], name), name
    assert _value(again, "pnoracle.words") == 2 * workloads.COUNT_WORDS


def test_missing_attributes_are_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", (
        ("pnoracle", "OracleState.no_such_method", "pnoracle.swap", {}),
        ("core", "no_such_function", "core.pnf", {}),
        ("no_such_module", "f", "core.pnf", {}),
        ("pnoracle", "generate_all_pn", "pnoracle.generate", {}),
    ))
    original = pnoracle.generate_all_pn
    tracer = Tracer()
    with instrument(tracer):
        assert analysis.generate_all_pn is pnoracle.generate_all_pn is not original
        analysis.count_pnw(8)
    assert analysis.generate_all_pn is pnoracle.generate_all_pn is original
    metrics = layers.layer_metrics(tracer, layers.TracedIO(tracer), (0.0, 0.0), 0.0, 0)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["pnoracle.generate_calls"] == 1
    assert metrics["pnoracle.swap_calls"] == 0
    assert metrics["core.pnf_s.short"] == 0
    # unwrapped methods fall into the walk's self time
    assert metrics["pnoracle.walk_self_raw_s"] == metrics["pnoracle.generate_s"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("count", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
