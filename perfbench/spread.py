"""Run every workload with several seeds, each run in its own process,
and report each end-to-end metric's median and spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...]

Run n uses seed n.

The spread is the distance between the first and third quartiles
(statistics.quantiles with n=4) as a share of the median; BENCHMARK.json
bounds each metric's spread.  Runs go one after another, never in
parallel, so they do not disturb each other's timings.
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


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s"
                         % (workload, seed, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in names:
        values = {name: [] for name in bounds}
        failed = 0
        t0 = time.time()
        for seed in range(1, args.runs + 1):
            result = one_run(workload, seed, spec["run_seconds"])
            failed += result["failed"] + (not result["correct"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs in %.0f s, %d failures"
              % (workload, args.runs, time.time() - t0, failed))
        report[workload] = {}
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- over a third"
            print("  %-16s median %-12.6g spread %.4f of bound %.2f%s"
                  % (name, med, spread, bounds[name], flag))
            report[workload][name] = {"values": xs, "median": med,
                                      "spread": spread}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", "spread-%d.json" % time.time())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("values in %s" % path)


if __name__ == "__main__":
    main()
