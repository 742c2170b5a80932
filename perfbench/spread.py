#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --workload browse --seeds 1-10 [--seconds S]

Runs the benchmark once per seed (untraced), printing each run's wall time
and figures. Then prints, per end-to-end metric, the median, the quartiles
and the quartile spread (Q3 - Q1) as a share of the median, next to the
metric's bound from BENCHMARK.json and a third of it. A spread above the bound fails (exit 1): the benchmark is then
too noisy to judge a change against that bound. A spread at or above a third
of the bound is flagged as a warning, the steadiness the benchmark aims for.
setup_s is exempt from both, as its bound covers only the medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds_of(args.seeds):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"] or result["failed"]:
            print("seed %d: exit %d, correct=%s, failed=%s" %
                  (seed, done.returncode, result["correct"], result["failed"]))
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d (%.1f s): %s" % (seed, time.monotonic() - started, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())), flush=True)
    failed = False
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median
        limit = metric["bound"] / 3
        mark = ""
        if metric["name"] == "setup_s":
            pass
        elif spread > metric["bound"]:
            mark = "  <-- FAIL: above bound"
            failed = True
        elif spread >= limit:
            mark = "  <-- warning: above bound/3"
        print("%-17s median %10.4f %-5s q1 %10.4f q3 %10.4f spread %6.3f "
              "(bound %.3f, bound/3 %.3f)%s" % (metric["name"], median, metric["unit"], q1, q3,
                                                spread, metric["bound"], limit, mark))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
