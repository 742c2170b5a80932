#!/usr/bin/env python3
"""Smoke self-test of the request-to-pixels benchmark at tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs pixels_bench with --tiny for one
second, untraced and traced, and checks that
  - the last line is the result JSON with correct == true and failed == 0,
  - every end-to-end metric (untraced) or per-layer metric (traced) named in
    BENCHMARK.json is present with its unit,
  - failed_share is 0 and the pixel check compared at least one frame,
  - the traced run wrote a Chrome trace file with spans.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seed=7):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    return done.returncode, done.stdout


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            lines = out.strip().splitlines()
            check(code == 0 and lines, "%s exited %d" % (label, code))
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "%s: result keys %s" % (label, sorted(result)))
            check(result["correct"] is True and result["failed"] == 0,
                  "%s: correct=%s failed=%s" % (label, result["correct"], result["failed"]))
            check(result["attempted"] >= 1, "%s: nothing attempted" % label)
            for metric in names:
                got = result["metrics"].get(metric["name"])
                check(got is not None, "%s: metric %s missing" % (label, metric["name"]))
                check(got["unit"] == metric["unit"],
                      "%s: %s unit %s" % (label, metric["name"], got["unit"]))
            check(re.search(r"failed_share\s+0\.000000 ", out) is not None,
                  "%s: failed_share is not 0" % label)
            pixels = re.search(r"pixel check: (\d+) frames compared", out)
            check(pixels is not None and int(pixels.group(1)) > 0,
                  "%s: pixel check did not run" % label)
            if trace:
                spans = re.search(r"trace: (\d+) spans -> (\S+)", out)
                check(spans is not None and int(spans.group(1)) > 0,
                      "%s: no spans recorded" % label)
                with open(os.path.join(ROOT, spans.group(2)), encoding="utf-8") as f:
                    check(json.load(f)["traceEvents"], "%s: empty trace file" % label)
            print("ok   %s (%d ops, %s pixel checks)" % (label, result["attempted"],
                                                         pixels.group(1)))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
