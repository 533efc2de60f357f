#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A sliced repetition, whose report the harness computes, gives the
   same digest as an unsliced one, whose report comes from the
   simulator's own core::measure() (every legacy workload) or
   FrontierWorkload::measure_window() (the sharded engine).
2. gris_frontier_1m gives the same digest at 1 and 4 shards.
3. run.py's last line is the result object with exactly the keys
   correct, attempted, failed and metrics; every metric name matches
   [A-Za-z0-9_.-]+; the names are exactly BENCHMARK.json's end_to_end
   (tracing off) and per_layer (tracing on) lists; and the result file
   it writes parses.
4. run.py fails, without printing a result, in a directory holding only
   BENCHMARK.json and perfbench/.

Tests 1 and 2 use shortened windows; references.py check covers the full
windows against the committed digests. Takes about 40 seconds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
failures = []


def check(cond, what):
    print("%s  %s" % ("PASS" if cond else "FAIL", what), flush=True)
    if not cond:
        failures.append(what)


def harness(workload, *extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "42"] + list(extra)
    r = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(r.stdout.strip().splitlines()[-1])


def test_sliced_equals_unsliced():
    windows = {"gris_frontier_1m": "5,10"}
    for workload in sorted(run.load_references()):
        window = windows.get(workload, "10,20")
        a = harness(workload, "--window", window)
        b = harness(workload, "--window", window, "--unsliced")
        check(a["digest"] == b["digest"],
              "%s: sliced digest %s == unsliced %s" % (workload, a["digest"], b["digest"]))


def test_frontier_shard_invariance():
    a = harness("gris_frontier_1m", "--window", "5,10", "--shards", "1")
    b = harness("gris_frontier_1m", "--window", "5,10", "--shards", "4")
    check(a["digest"] == b["digest"],
          "gris_frontier_1m: 1-shard digest %s == 4-shard %s" % (a["digest"], b["digest"]))


def test_result_format():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for trace in (0, 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               "hawkeye_agent_600", "--seed", "42", "--seconds", "1",
               "--trace", str(trace)]
        r = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
        check(r.returncode == 0, "run.py --trace %d exits 0" % trace)
        res = json.loads(r.stdout.strip().splitlines()[-1])
        check(list(res) == ["correct", "attempted", "failed", "metrics"],
              "--trace %d: result keys are correct, attempted, failed, metrics" % trace)
        check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
              "--trace %d: correct with no failures" % trace)
        names = sorted(res["metrics"])
        check(all(NAME_RE.match(n) for n in names),
              "--trace %d: every metric name matches [A-Za-z0-9_.-]+" % trace)
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        check(got == expected[trace],
              "--trace %d: metric names and units equal BENCHMARK.json (%d metrics)" % (
                  trace, len(got)))
        path = os.path.join(run.OUT_DIR, "result-hawkeye_agent_600-seed42-trace%d.json" % trace)
        with open(path) as f:
            saved = json.load(f)
        check(saved["result"] == res and "provenance" in saved,
              "--trace %d: result file parses and matches the printed result" % trace)


def test_fails_without_sources():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "hawkeye_agent_600",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    r = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    check(r.returncode != 0 and '"correct"' not in r.stdout,
          "run.py without the simulator sources exits %d and prints no result" % r.returncode)
    shutil.rmtree(bare, ignore_errors=True)


def main():
    run.build()
    test_sliced_equals_unsliced()
    test_frontier_shard_invariance()
    test_result_format()
    test_fails_without_sources()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
