#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

Runs perfbench/run.py once per seed for each workload (tracing off) and
reports, per metric, the median of the per-run values and the spread:
the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. Run it
from the root of a checkout:

    python3 perfbench/steadiness.py --seeds 1-10 \
        [--workloads gris_legacy_10k,giis_agg_200] [--out FILE]

Each run lasts BENCHMARK.json's run_seconds, as the benchmark's own runs do.

The record it writes (JSON) is what the bounds in BENCHMARK.json are
derived from; see perfbench/STEADINESS.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out", "steadiness.json"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    record = {"seconds": seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in record["seeds"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed, r.returncode, r.stderr[-2000:]))
                ok = False
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (k, v) for k, v in runs[-1]["metrics"].items())), flush=True)
        summary = {}
        if len(runs) >= 2:
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name] for r in runs]
                s = spread(values)
                summary[name] = {"median": statistics.median(values), "spread": s,
                                 "bound": bounds.get(name),
                                 "within_third_of_bound": s < bounds.get(name, 0) / 3}
                print("  %-14s median %-12.6g spread %6.2f%%  bound %s" % (
                    name, summary[name]["median"], 100 * s, bounds.get(name)))
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("wrote " + args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
