#!/usr/bin/env python3
"""Reference digests of the simulated outputs, per (workload, seed).

A reference is recorded from an unsliced repetition, in which the
simulator measures the window itself (core::measure() or
FrontierWorkload::measure_window()). It is checked against the sliced
repetitions the timed runs make, whose report the harness computes, so
every checked run also shows that slicing does not change the simulation
and that the harness reports what the simulator would. Run from the root
of a checkout:

    python3 perfbench/references.py record --seeds 0-10,42,7919
    python3 perfbench/references.py check --seeds 42,7919

The workloads are those references.json lists, the two in BENCHMARK.json
and the two it leaves out. `record` overwrites the digests of the seeds
given and keeps the rest;
`check` runs both an unsliced and a sliced repetition per seed and fails
unless both equal the committed reference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
from steadiness import parse_seeds  # noqa: E402

PATH = os.path.join(HERE, "references.json")


def digest(workload, seed, sliced):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed)]
    if not sliced:
        cmd.append("--unsliced")
    r = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(r.stdout.strip().splitlines()[-1])["digest"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("action", choices=("record", "check"))
    ap.add_argument("--seeds", required=True)
    args = ap.parse_args()
    run.build()
    with open(PATH) as f:
        refs = json.load(f)
    ok = True
    for workload in sorted(refs["digests"]):
        table = refs["digests"][workload]
        for seed in parse_seeds(args.seeds):
            unsliced = digest(workload, seed, sliced=False)
            if args.action == "record":
                table[str(seed)] = unsliced
                print("%s seed %d: %s" % (workload, seed, unsliced), flush=True)
                continue
            sliced = digest(workload, seed, sliced=True)
            want = table.get(str(seed))
            good = want is not None and unsliced == want and sliced == want
            ok = ok and good
            print("%s seed %d: reference %s unsliced %s sliced %s %s" % (
                workload, seed, want, unsliced, sliced, "PASS" if good else "FAIL"),
                flush=True)
    if args.action == "record":
        for workload in refs["digests"]:
            refs["digests"][workload] = dict(
                sorted(refs["digests"][workload].items(), key=lambda kv: int(kv[0])))
        with open(PATH, "w") as f:
            json.dump(refs, f, indent=1)
            f.write("\n")
        print("wrote " + PATH)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
