"""Benchmark of the pnwords package: four workloads, end-to-end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs untraced in a closed loop for
``--seconds`` seconds and the end-to-end metrics are printed; with
``--trace 1`` one warm-up, one untraced and one traced iteration run and
the per-layer metrics are printed.  Every output is checked.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metrics printed, and their
units, are the ones ``BENCHMARK.json`` declares.

The package is imported from ``src/`` of the checkout, never from an
installed copy; without ``src/pnwords`` the benchmark exits with code 1.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "pnwords"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 9
REFERENCE_LOOPS = 300_000
# Times of reference_seconds() and of a fresh interpreter running
# SPAWN_REFERENCE, about as they read on an unloaded core of the 2-core
# x86-64 machine (CPython 3.11.7, numpy 2.4.6) on which this benchmark was
# defined.
REFERENCE_NOMINAL_S = 0.032
SPAWN_REFERENCE = "import numpy"
SPAWN_NOMINAL_S = 0.12
PROBE = ("import sys, workloads; "
         "workloads.WORKLOADS[sys.argv[1]]().make_inputs(int(sys.argv[2]))")


def _import_package():
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: {PACKAGE} not found; run from a checkout of the repository")
    sys.path[:0] = [str(PACKAGE.parent), str(HERE)]
    import pnwords

    if Path(pnwords.__file__).resolve().parent != PACKAGE:
        sys.exit(f"perfbench: imported pnwords from {pnwords.__file__}, not {PACKAGE}")


def reference_seconds():
    """Time of a fixed pure-Python loop that runs no pnwords code.

    The machine is shared and its speed drifts by up to a factor of two
    within seconds; timings are scaled by this loop's time around them (see
    ``normalise``).
    """
    start = time.perf_counter()
    acc = 0
    buf = bytearray(64)
    for i in range(REFERENCE_LOOPS):
        j = i & 63
        buf[j] = (buf[j] + i) & 255
        if buf[j] > acc & 255:
            acc += 1
    return time.perf_counter() - start


def normalise(seconds, ref_before, ref_after, nominal=REFERENCE_NOMINAL_S):
    """``seconds`` as it would read when the reference takes ``nominal``."""
    return seconds * nominal / ((ref_before + ref_after) / 2)


def measure_setup(name, seed):
    """Median time of a fresh interpreter importing pnwords and making the
    workload's inputs, after one untimed run that fills the bytecode cache.

    Each probe is normalised by ``SPAWN_REFERENCE`` run just before and
    just after it: process start-up and imports drift with the machine's
    load in a way the in-process reference loop does not track.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), str(HERE)]))

    def wall(cmd):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        return time.perf_counter() - start

    probe = [sys.executable, "-c", PROBE, name, str(seed)]
    spawn_reference = [sys.executable, "-c", SPAWN_REFERENCE]
    wall(probe)
    times = []
    ref = wall(spawn_reference)
    for _ in range(SETUP_PROBES):
        elapsed = wall(probe)
        ref_after = wall(spawn_reference)
        times.append(normalise(elapsed, ref, ref_after, SPAWN_NOMINAL_S))
        ref = ref_after
    return statistics.median(times)


def _rates(words, times):
    return {"words_per_s": sum(words) / sum(times),
            "part1_words_per_s": words[0] / times[0],
            "part2_words_per_s": words[1] / times[1]}


def _medians(rows):
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def run_untraced(workload, inputs, seconds, tally):
    """End-to-end throughputs: medians over the iterations of a closed loop.

    Each part's time is normalised by the reference loop run just before
    and just after it, if the workload's ``normalise`` is set.  The loop
    stops before an iteration of median length would overrun ``seconds``.
    Also returns the peak resident set after the first iteration (later
    iterations add heap fragmentation that grows with their number), and,
    for the summary line, the same medians from the raw times and the median
    machine slowdown.
    """
    from workloads import PlainIO

    streams = PlainIO()
    rates, raw, slowdowns, durations = [], [], [], []
    start = time.perf_counter()
    ref = reference_seconds()
    while True:
        parts, times = [], []
        for part in workload.iteration(inputs, len(durations), streams):
            ref_after = reference_seconds()
            parts.append(part)
            times.append(normalise(part.seconds, ref, ref_after) if workload.normalise
                         else part.seconds)
            slowdowns.append((ref + ref_after) / 2 / REFERENCE_NOMINAL_S)
            ref = ref_after
        tally.record(workload.check([part.outputs for part in parts]))
        words = [part.words for part in parts]
        raw_times = [part.seconds for part in parts]
        rates.append(_rates(words, times))
        raw.append(_rates(words, raw_times))
        durations.append(sum(raw_times))
        if len(durations) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    return (len(durations), _medians(rates), peak_rss_mb, _medians(raw),
            statistics.median(slowdowns))


def run_traced(workload, inputs, tally):
    """Per-layer metrics of one traced iteration, against an untraced one.

    ``trace_overhead_frac`` is normalised like the end-to-end times, and the
    calibrated wrapper cost is scaled to the machine's speed during the
    traced iteration; the per-layer times are as measured.
    """
    from layers import SERIAL, TracedIO, layer_metrics
    from tracing import Tracer, calibrate, instrument
    from workloads import ExhaustiveScan, PlainIO

    def run(workload, streams):
        """(seconds, mean reference-loop time around them) of one iteration."""
        ref = reference_seconds()
        parts = list(workload.iteration(inputs, 0, streams))
        ref_after = reference_seconds()
        tally.record(workload.check([part.outputs for part in parts]))
        seconds = sum(part.seconds for part in parts)
        if workload.normalise:
            seconds = normalise(seconds, ref, ref_after)
        return seconds, (ref + ref_after) / 2

    plain = PlainIO()
    run(workload, plain)  # warm-up
    untraced, _ = run(workload, plain)
    ref = reference_seconds()
    inside, total = calibrate()
    calibration_ref = (ref + reference_seconds()) / 2
    tracer = Tracer()
    streams = TracedIO(tracer)
    jobs = 0
    with instrument(tracer):
        traced, traced_ref = run(workload, streams)
        if isinstance(workload, ExhaustiveScan):
            jobs = workload.jobs
            tracer.scope = SERIAL
            run(ExhaustiveScan(jobs=1), TracedIO(tracer))
            tracer.scope = ""
    streams.close()
    scale = traced_ref / calibration_ref
    return layer_metrics(tracer, streams, (inside * scale, total * scale),
                         traced / untraced - 1, jobs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    tally = Tally()
    if args.trace:
        inputs = workload.make_inputs(args.seed)
        values = run_traced(workload, inputs, tally)
        summary = "traced"
    else:
        setup_s = measure_setup(workload.name, args.seed)
        inputs = workload.make_inputs(args.seed)
        iterations, values, peak_rss_mb, raw, slowdown = run_untraced(
            workload, inputs, args.seconds, tally)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
        summary = " ".join([f"iterations={iterations}",
                            *(f"raw_{name}={value:.6g}" for name, value in raw.items()),
                            f"machine_slowdown={slowdown:.3f}"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for problem in tally.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"# workload={workload.name} seed={args.seed} {summary} "
          f"attempted={tally.attempted} failed={tally.failed} failed_frac={tally.failed_frac}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
