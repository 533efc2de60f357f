#!/usr/bin/env python3
"""Benchmark runner for the gridmon simulator.

Builds the harness (perfbench/harness.cpp) from the checkout's sources,
runs fresh-process repetitions of one workload for the requested number
of seconds, checks every repetition's simulated-output digest, and prints
the metrics. Run it from the root of a checkout:

    python3 perfbench/run.py --workload hawkeye_agent_600 --seed 42 \
        --seconds 58 --trace 0

With --trace 0 the metrics are the end-to-end host-time metrics (median
over the repetitions); with --trace 1 one traced repetition supplies the
per-layer metrics, and the untraced repetitions' median run_s is what
ns_per_event, every est_share and the tracing overhead divide by.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric by name and unit, the digest check, and the provenance record.
A copy of the full result is written under .bench_out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "gridmon_perfbench")

# Repetitions are cut off this many seconds after the build step, so a
# run with an up-to-date build ends within three minutes.
RUN_DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build():
    """Configure once, then let the build tool bring the harness up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gridmon", "core", "testbed.hpp")):
        fail_setup("simulator sources (src/gridmon) not found next to perfbench/")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail_setup("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "gridmon_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail_setup("build failed")
    if not os.access(BINARY, os.X_OK):
        fail_setup("harness binary missing after build")


def load_metrics():
    """The end-to-end and per-layer (name, unit) lists from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(m["name"], m["unit"]) for m in bench["per_layer"]])


def load_references():
    path = os.path.join(HERE, "references.json")
    with open(path) as f:
        return json.load(f)["digests"]


def git_describe():
    try:
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_rep(workload, seed, mode, deadline, extra=()):
    """One fresh harness process. Returns (record or None, error text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--mode", mode] + list(extra)
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        return None, "no time left"
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if r.returncode != 0:
        return None, "exit %d: %s" % (r.returncode, r.stderr.strip()[-300:])
    try:
        return json.loads(r.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "unparsable output"


def check_rep(rec, expected_digest, first_digest):
    """Output check for one repetition; returns an error text or ''."""
    want = expected_digest or first_digest
    if want is not None and rec["digest"] != want:
        kind = "reference" if expected_digest else "first repetition"
        return "digest %s differs from %s %s" % (rec["digest"], kind, want)
    layers = rec["layers"]
    if not (layers["sim.events"] > 0 and layers["core.queries"] > 0
            and layers["net.attempts"] >= layers["core.queries"]
            and rec["throughput"] > 0 and rec["run_s"] > 0):
        return "implausible simulated output"
    if rec["slices"] < 100:
        return "fewer than 100 slices"
    return ""


def main():
    end_to_end, per_layer = load_metrics()
    references = load_references()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # Every workload with reference digests runs, also the two that
    # BENCHMARK.json leaves out (see STEADINESS.md).
    ap.add_argument("--workload", required=True, choices=sorted(references))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    expected = references.get(args.workload, {}).get(str(args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    # Measure for --seconds: launch repetitions while the next one is
    # expected to finish inside the window (always at least one, plus
    # one traced repetition first in a traced run).
    measure_start = time.monotonic()
    reps, traced, errors = [], None, []
    first_digest = None
    attempted = 0

    def attempt(mode, extra=()):
        nonlocal attempted, first_digest
        attempted += 1
        t = time.monotonic()
        rec, err = run_rep(args.workload, args.seed, mode, deadline, extra)
        if rec is not None:
            err = check_rep(rec, expected, first_digest)
            if first_digest is None and not err:
                first_digest = rec["digest"]
        if err:
            errors.append("%s repetition %d: %s" % (mode, attempted, err))
            return None, time.monotonic() - t
        return rec, time.monotonic() - t

    if args.trace:
        spans = os.path.join(OUT_DIR, "spans-%s.json" % tag)
        traced, _ = attempt("traced", ["--spans", spans])
    longest = 0.0
    while True:
        rec, took = attempt("timed")
        longest = max(longest, took)
        if rec is not None:
            reps.append(rec)
        elapsed = time.monotonic() - measure_start
        if elapsed + longest > args.seconds or time.monotonic() + longest > deadline:
            break

    failed = len(errors)
    if not reps or (args.trace and traced is None):
        for e in errors:
            log("perfbench: " + e)
        fail_setup("no successful repetition; no result")

    metrics = {}
    if args.trace:
        values = dict(traced["layers"])
        # Everything divided by run_s uses the untraced repetitions' median,
        # so the collector's own cost shows only in trace.overhead_pct.
        run_s = statistics.median(r["run_s"] for r in reps)
        values["trace.overhead_pct"] = 100.0 * (traced["run_s"] / run_s - 1.0)
        values["sim.ns_per_event"] = 1e9 * run_s / values["sim.events"]
        for layer in ("sim", "ldap", "classad"):
            values[layer + ".est_share"] = values[layer + ".est_host_s"] / run_s
        for name, unit in per_layer:
            if name not in values:
                fail_setup("the harness reported no %s" % name)
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        setups = [t for r in reps for t in r["setup_trials_s"]]
        for name, unit in end_to_end:
            value = (statistics.median(setups) if name == "setup_s"
                     else statistics.median(r[name] for r in reps))
            metrics[name] = {"value": value, "unit": unit}

    provenance = {
        "git_describe": git_describe(),
        "build_type": reps[0]["build_type"],
        "compiler": reps[0]["compiler"],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "spec_hash": reps[0]["spec_hash"],
        "slices": reps[0]["slices"],
        "repetitions": len(reps),
        "digest": first_digest,
        "digest_reference": expected or "none for this seed (checked for repeatability)",
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print("workload %s seed %d: %d repetition(s), digest %s, check %s" % (
        args.workload, args.seed, attempted, first_digest,
        "PASS" if failed == 0 else "FAIL"))
    for e in errors:
        print("  failure: " + e)
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag), "w") as f:
        json.dump({"provenance": provenance, "result": result,
                   "repetitions": reps, "traced": traced, "errors": errors},
                  f, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
