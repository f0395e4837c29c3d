#!/usr/bin/env python3
"""Runs each workload as two separate sets of runs and says whether they agree.

    python3 flowbench/steadiness.py
    python3 flowbench/steadiness.py --overhead 3

Run from the repository root.  Set A uses seeds 1-10, set B seeds 11-20; each
run is `flowbench/run.py --trace 0` with BENCHMARK.json's run_seconds.  For
every end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median of each set and of
both sets together, and how far set B's median lies from set A's, as a share
of A's.  It also prints the host steal time (/proc/stat) over each run.  A
workload passes when every spread stays within the metric's bound, the two
medians differ by no more than the bound in either direction, and both sets
fail the same share of operations.  The full table goes to
.bench_out/steadiness.json.  Exits 1 when any workload fails.

--overhead N instead alternates N untraced and N traced runs per workload
(same seeds) and prints the median flow_s of each and their ratio: the
tracing overhead.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
RUNS_PER_SET = 10  # a set is ten runs, as in the acceptance procedure


def steal_seconds():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def one_run(workload, seed, seconds, trace=0):
    steal = steal_seconds()
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    result["steal_s"] = steal_seconds() - steal
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def overhead(workloads, runs, seconds):
    for workload in workloads:
        plain, traced = [], []
        for seed in range(1, runs + 1):
            plain.append(one_run(workload, seed, seconds)["metrics"]["flow_s"]["value"])
            traced.append(one_run(workload, seed, seconds, 1)["metrics"]["trace.flow_s"]["value"])
        a, b = statistics.median(plain), statistics.median(traced)
        print("%-14s flow_s untraced %.6g  traced %.6g  overhead %+.1f%%"
              % (workload, a, b, 100.0 * (b / a - 1.0)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--overhead", type=int, metavar="N",
                        help="measure the tracing overhead over N seeds instead")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.overhead:
        overhead(workloads, args.overhead, spec["run_seconds"])
        return
    metrics = spec["end_to_end"]
    report = {}
    ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            seeds = range(1 + s * RUNS_PER_SET, 1 + (s + 1) * RUNS_PER_SET)
            sets.append([one_run(workload, seed, spec["run_seconds"]) for seed in seeds])
        print("== %s (%d + %d runs)" % (workload, RUNS_PER_SET, RUNS_PER_SET))
        print("   run wall s: " + " ".join("%.1f" % r["wall_s"] for r in sets[0] + sets[1]))
        print("   steal s:    " + " ".join("%.1f" % r["steal_s"] for r in sets[0] + sets[1]))
        entry = {"runs": sets, "metrics": {}}
        if any(not r["correct"] for r in sets[0] + sets[1]):
            print("   FAIL: a run reported correct = false")
            ok = False
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        if shares[0] != shares[1]:
            print("   FAIL: failed share %r vs %r" % tuple(shares))
            ok = False
        print("   %-16s %12s %8s %12s %8s %8s %8s %6s" %
              ("metric", "A median", "A sprd", "B median", "B sprd", "all", "B-A", "bound"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a, b = (summary([r["metrics"][name]["value"] for r in runs]) for runs in sets)
            both = summary([r["metrics"][name]["value"] for r in sets[0] + sets[1]])
            moved = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            bad = abs(moved) > bound or max(a["spread"], b["spread"]) > bound
            ok = ok and not bad
            print("   %-16s %12.6g %8.4f %12.6g %8.4f %8.4f %+8.4f %6.3f %s" %
                  (name, a["median"], a["spread"], b["median"], b["spread"],
                   both["spread"], moved, bound, "FAIL" if bad else "ok"))
            entry["metrics"][name] = {"A": a, "B": b, "all": both, "moved": moved}
        report[workload] = entry
    os.makedirs(".bench_out", exist_ok=True)
    with open(".bench_out/steadiness.json", "w") as f:
        json.dump(report, f, indent=1)
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
