#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady each metric is.

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --workloads vegas_chunked --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --save perfbench/out/set1.json
    python3 perfbench/spread.py --seeds 1-10 --compare perfbench/out/set1.json

With --compare it also reports, per metric, how far the new median moved
from the saved one in the metric's worse direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest "))
    print(f"{workload} {seed} {digest}", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="write the per-run values to this JSON file")
    ap.add_argument("--compare", help="a file written by --save to compare medians with")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in spec["workloads"]]
    seconds = opts.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(opts.seeds)
    previous = {}
    if opts.compare:
        with open(opts.compare) as f:
            previous = json.load(f)

    saved = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            values, wall = run_once(spec["command"], workload, seed, seconds, opts.trace)
            runs.append(values)
            print(f"{workload} seed {seed}: {wall:.1f} s wall", file=sys.stderr)
        saved[workload] = runs
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            m = metrics.get(name, {})
            bound = m.get("bound")
            line = f"{workload:16} {name:28} median {med:14.6g}  spread {spread:7.4f}"
            if bound is not None:
                line += f"  bound {bound:.2f}  {'ok' if spread < bound / 3 else 'WIDE'}"
            old = previous.get(workload)
            if old and bound is not None:
                old_med = statistics.median(r[name] for r in old)
                worse = (med - old_med) / old_med
                if m.get("better") == "higher":
                    worse = -worse
                line += f"  worse-by {worse:+.4f} {'ok' if worse <= bound else 'REGRESSED'}"
            print(line)
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
