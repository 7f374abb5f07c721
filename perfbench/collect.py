"""Run the benchmark over several seeds and write one perf-trajectory point.

    python3 perfbench/collect.py --label <name> [--first-seed 1]

Runs ``run.py`` untraced once for each of ten seeds on every workload, then
once traced per workload, and writes ``perfbench/results/<label>.json``: for
every end-to-end metric its ten values, median, quartiles and spread (IQR ÷
median, as the acceptance rule uses it), the same for the raw throughputs
and the machine slowdown from the summary lines, plus the per-layer metrics
of the traced run.  Run it from the root of a checkout.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = 10


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    print(f"{workload} seed={seed} trace={trace}: {out[-2]}", flush=True)
    summary = dict(item.split("=", 1) for item in out[-2].split() if "=" in item)
    return json.loads(out[-1]), summary


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    import numpy

    point = {"label": args.label, "python": platform.python_version(),
             "numpy": numpy.__version__, "run_seconds": SPEC["run_seconds"],
             "seeds": list(range(args.first_seed, args.first_seed + SEEDS)),
             "end_to_end": {}, "raw": {}, "per_layer": {}}
    for w in SPEC["workloads"]:
        runs = [run(w["name"], seed, 0) for seed in point["seeds"]]
        if not all(r["correct"] for r, _ in runs):
            sys.exit(f"{w['name']}: a run failed its output checks")
        point["end_to_end"][w["name"]] = {
            m["name"]: summarise([r["metrics"][m["name"]]["value"] for r, _ in runs])
            for m in SPEC["end_to_end"]}
        point["raw"][w["name"]] = {
            name: summarise([float(s[name]) for _, s in runs])
            for name in runs[0][1] if name.startswith("raw_") or name == "machine_slowdown"}
    for w in SPEC["workloads"]:
        traced, _ = run(w["name"], point["seeds"][0], 1)
        point["per_layer"][w["name"]] = {name: m["value"]
                                         for name, m in traced["metrics"].items()}
    out = HERE / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
