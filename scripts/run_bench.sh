#!/usr/bin/env bash
# ECC pricing-engine + parallel-RRR benchmark driver
# (docs/pricing_cache.md, DESIGN.md "Parallel conflict-free RRR
# batching").
#
#   1. Release build, run the bench_micro ECC benchmarks + bench_fig2,
#      and distill BENCH_micro.json at the repo root: reference pricer
#      vs engine ECC wall time, the speedup, and the cache/delta reuse
#      rate.
#   2. UD-phase batch reroute at 1 vs 8 router threads, distilled into
#      BENCH_parallel_rrr.json.  The >= 2x speedup gate only applies
#      when the machine exposes >= 4 CPUs — on fewer cores the wall
#      clock is recorded honestly (parallelism cannot help there; the
#      batch plan and routes are identical either way).
#   3. Incremental-ECO vs from-scratch over the crp_test1..10 suite
#      (bench_eco), distilled into BENCH_eco.json with a >= 10x
#      median-speedup gate for the recorded 0.5%-of-cells deltas.
#   4. The scale ladder (bench_scale): the full flow at 10K/30K/100K
#      cells with macros and mixed heights on, wall clock per stage and
#      peak RSS per rung, every rung ending in a clean paranoid audit —
#      distilled into BENCH_scale.json.  Skip with CRP_SKIP_SCALE=1.
#   5. The crp serve daemon under load (crp_loadgen): >= 1000 bmgen
#      jobs over 8 concurrent client sessions, p50/p99 latency and
#      jobs/sec distilled into BENCH_serve.json, and a clean SIGTERM
#      shutdown required.
#   6. Every BENCH_*.json is stamped with the host CPU count and the
#      git SHA of the tree that produced it, so recorded numbers stay
#      attributable.
#
# The sanitizer legs (TSan over the pool / pricing / obs / reroute /
# serve tests, ASan+UBSan) live in scripts/run_fuzz.sh, so a perf gate
# failing here never keeps them from running.
set -euo pipefail
cd "$(dirname "$0")/.."

# Provenance is read before the first leg: the legs rewrite the tracked
# BENCH_*.json files, so a `git status` taken afterwards would call every
# run dirty.  The stamp below and crp_report's ledger entries (through
# RunLedger, which honours both variables) use these values.
CRP_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
CRP_GIT_DIRTY_FILES="$(git status --porcelain 2>/dev/null | wc -l | tr -d ' ')"
export CRP_GIT_SHA CRP_GIT_DIRTY_FILES

BUILD=build
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j "$(nproc)"

# Repetitions + random interleaving: ECC phases are ~20 ms, so on a
# shared machine run-to-run noise swamps a single measurement; medians
# over interleaved repetitions keep the speedup stable.
"$BUILD"/bench/bench_micro \
  --benchmark_filter='BM_Ecc(PriceCandidates|ReferencePricer)' \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json \
  --benchmark_out=ecc_bench_raw.json \
  --benchmark_out_format=json

python3 - <<'EOF'
import json

with open("ecc_bench_raw.json") as f:
    raw = json.load(f)

rows = {b["name"]: b for b in raw["benchmarks"]
        if b.get("aggregate_name") == "median"}
off = rows["BM_EccReferencePricer_median"]
on = rows["BM_EccPriceCandidates_median"]

def ms(row):
    assert row["time_unit"] == "ms", row["time_unit"]
    return row["real_time"]

reused = on["nets_priced"] - on["pattern_routes"]
summary = {
    "benchmark": "BM_EccPriceCandidates",
    "suite": "bmgen micro (600 cells), every 3rd cell critical",
    "ecc_naive_ms": round(ms(off), 3),
    "ecc_engine_ms": round(ms(on), 3),
    "speedup": round(ms(off) / ms(on), 2),
    "nets_priced": int(on["nets_priced"]),
    "pattern_routes": int(on["pattern_routes"]),
    "cache_hit_rate": round(reused / on["nets_priced"], 4),
    "context": raw["context"],
}
with open("BENCH_micro.json", "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")

print("BENCH_micro.json:")
print(json.dumps({k: v for k, v in summary.items() if k != "context"},
                 indent=2))
assert summary["speedup"] >= 3.0, \
    f"ECC engine speedup {summary['speedup']}x below the 3x target"
EOF
rm -f ecc_bench_raw.json

# ---- parallel UD batch reroute ---------------------------------------------
"$BUILD"/bench/bench_micro \
  --benchmark_filter='BM_UdBatchReroute' \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json \
  --benchmark_out=rrr_bench_raw.json \
  --benchmark_out_format=json

python3 - <<'EOF'
import json
import os

with open("rrr_bench_raw.json") as f:
    raw = json.load(f)

rows = {b["name"]: b for b in raw["benchmarks"]
        if b.get("aggregate_name") == "median"}
serial = rows["BM_UdBatchReroute/threads:1_median"]
parallel = rows["BM_UdBatchReroute/threads:8_median"]

def ms(row):
    assert row["time_unit"] == "ms", row["time_unit"]
    return row["real_time"]

cpus = os.cpu_count() or 1
summary = {
    "benchmark": "BM_UdBatchReroute",
    "suite": "bmgen 2400 cells, fine gcell grid, every 9th cell shifted 4 gcells",
    "cpus": cpus,
    "ud_reroute_serial_ms": round(ms(serial), 3),
    "ud_reroute_threads8_ms": round(ms(parallel), 3),
    "speedup": round(ms(serial) / ms(parallel), 2),
    "nets": int(parallel["nets"]),
    "batches": int(parallel["batches"]),
    "context": raw["context"],
}
with open("BENCH_parallel_rrr.json", "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")

print("BENCH_parallel_rrr.json:")
print(json.dumps({k: v for k, v in summary.items() if k != "context"},
                 indent=2))
# Wall-clock parallel speedup needs actual cores; on a small container
# the run still guards correctness (the routes are bit-identical) but a
# speedup assertion would only measure the machine, not the code.
if cpus >= 4:
    assert summary["speedup"] >= 2.0, \
        f"parallel RRR speedup {summary['speedup']}x below the 2x target"
else:
    print(f"note: only {cpus} CPU(s) visible - skipping the 2x gate")
EOF
rm -f rrr_bench_raw.json

# ---- spatial-observability overhead ----------------------------------------
# One CR&P iteration with heatmap snapshots off vs on.  The off row is
# the PR-2 era hot path and must stay within noise of it (the ECC/RRR
# medians above already run snapshot-free); the on row records what the
# spatial tier costs so regressions in capture/delta-encoding show up
# here rather than in user flows.
"$BUILD"/bench/bench_micro \
  --benchmark_filter='BM_CrpIterationSpatial' \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json \
  --benchmark_out=obs_bench_raw.json \
  --benchmark_out_format=json

python3 - <<'EOF'
import json

with open("obs_bench_raw.json") as f:
    raw = json.load(f)

rows = {b["name"]: b for b in raw["benchmarks"]
        if b.get("aggregate_name") == "median"}
off = rows["BM_CrpIterationSpatial/snapshots:0_median"]
on = rows["BM_CrpIterationSpatial/snapshots:1_median"]

def ms(row):
    assert row["time_unit"] == "ms", row["time_unit"]
    return row["real_time"]

summary = {
    "benchmark": "BM_CrpIterationSpatial",
    "suite": "bmgen micro (600 cells), one CR&P iteration",
    "iteration_snapshots_off_ms": round(ms(off), 3),
    "iteration_snapshots_on_ms": round(ms(on), 3),
    "snapshot_overhead_percent": round(100.0 * (ms(on) - ms(off)) / ms(off), 2),
    "heatmaps_per_run": int(on["heatmaps"]),
    "context": raw["context"],
}
with open("BENCH_obs_spatial.json", "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")

print("BENCH_obs_spatial.json:")
print(json.dumps({k: v for k, v in summary.items() if k != "context"},
                 indent=2))
assert summary["heatmaps_per_run"] == 2, summary["heatmaps_per_run"]
# Guard rail, not a target: capture + delta encoding must stay a small
# fraction of an iteration (the grids are a few thousand doubles).
assert summary["snapshot_overhead_percent"] < 50.0, \
    f"spatial tier costs {summary['snapshot_overhead_percent']}% per iteration"
EOF
rm -f obs_bench_raw.json

"$BUILD"/bench/bench_fig2

# ---- incremental ECO vs from-scratch ---------------------------------------
# Paired runs over the 10-design suite (check::runEcoVsScratch): every
# design must audit clean on both sides and hold the parity bounds; the
# gate is the median wall-clock speedup of the recorded configuration
# (0.5%-of-cells clustered deltas, min-of-3 timing).
"$BUILD"/bench/bench_eco

python3 - <<'EOF'
import json

with open("BENCH_eco.json") as f:
    summary = json.load(f)

print("BENCH_eco.json:")
print(json.dumps({k: v for k, v in summary.items() if k != "designs"},
                 indent=2))
assert summary["failures"] == 0, \
    f"{summary['failures']} design(s) failed the eco-vs-scratch pairing"
assert summary["median_speedup"] >= 10.0, \
    f"eco median speedup {summary['median_speedup']}x below the 10x target"
EOF

# ---- scale ladder -----------------------------------------------------------
# Growth curve, not a speedup gate: wall clock per stage and peak RSS
# at 10K/30K/100K cells (scenario axes on), each rung audited paranoid.
# bench_scale exits nonzero when any rung's final audit is dirty.
if [[ "${CRP_SKIP_SCALE:-0}" != "1" ]]; then
  "$BUILD"/bench/bench_scale
fi

# ---- serve daemon load test -------------------------------------------------
# Boot the daemon on a private socket, flood it with >= 1000 bmgen jobs
# over 8 client connections, and distill latency percentiles +
# throughput into BENCH_serve.json (crp_loadgen writes it directly; the
# provenance stamp below adds host CPUs + git SHA).  The daemon must
# come down clean on SIGTERM — a hung or crashed shutdown fails the
# `wait`.
SERVE_SOCK="$(mktemp -u /tmp/crp-serve-bench.XXXXXX.sock)"
"$BUILD"/tools/crp serve --socket "$SERVE_SOCK" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$SERVE_SOCK" ]] && break; sleep 0.05; done
"$BUILD"/tools/crp_loadgen --socket "$SERVE_SOCK" \
  --jobs 1000 --clients 8 --cells 150 --out BENCH_serve.json
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"

python3 - <<'EOF'
import json

with open("BENCH_serve.json") as f:
    summary = json.load(f)

print("BENCH_serve.json:")
print(json.dumps(summary, indent=2))
assert summary["jobs"] >= 1000, summary["jobs"]
assert 0 < summary["latencyMsP50"] <= summary["latencyMsP99"], summary
assert summary["jobsPerSec"] > 0, summary
EOF

# ---- provenance stamp ------------------------------------------------------
# Machine-checkable dirty state: an explicit boolean plus the changed-
# path count, not just a "-dirty" sha suffix a consumer would have to
# string-match for (crp_report ledger --skip-dirty keys off the same
# facts).  Both come from the pre-leg reading at the top of this script.
python3 - <<'EOF'
import glob
import json
import os

sha = os.environ["CRP_GIT_SHA"] or "unknown"
dirty_files = int(os.environ["CRP_GIT_DIRTY_FILES"])
host = {"cpus": os.cpu_count() or 1,
        "git_sha": sha + ("-dirty" if dirty_files else ""),
        "dirty": dirty_files > 0,
        "dirty_files": dirty_files}
for path in sorted(glob.glob("BENCH_*.json")):
    with open(path) as f:
        data = json.load(f)
    data["host"] = host
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")
    print(f"stamped {path} with {host}")
EOF

# ---- run ledger -------------------------------------------------------------
# Fold every bench artifact into the persistent run ledger (one bench
# entry per BENCH_*.json, numeric fields only), then gate the newest
# entry of every series against its predecessor.  The first run of a
# fresh ledger passes trivially (nothing to gate against); later runs
# fail here when a latency/seconds metric grows or a speedup/throughput
# metric shrinks past the tolerance band (docs/observability.md).
LEDGER="${CRP_LEDGER:-crp_ledger.jsonl}"
for bench in BENCH_*.json; do
  [[ -e "$bench" ]] || continue
  "$BUILD"/tools/crp_report ledger "$LEDGER" --add-bench "$bench"
done
"$BUILD"/tools/crp_report ledger "$LEDGER" --check 1
