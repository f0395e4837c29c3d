#!/usr/bin/env bash
# Invariant-audit fuzz driver (docs/checking.md).
#
#   1. Release build, then the fixed-seed smoke campaign: 25 seeds at
#      k=2 with paranoid in-flow audits (these re-price every ECC
#      candidate with the reference pricer and require the engine's
#      price bit for bit).  Every seed runs three paired configurations
#      (serial / rt-4 / obs-off) that must all finish with clean audits
#      and a bit-identical state fingerprint, plus the eco-vs-scratch
#      paired leg (clean audits on
#      both sides and WL/via/overflow parity; disable with
#      CRP_FUZZ_ECO=0).  Failing seeds are minimized and dumped under
#      fuzz-artifacts/ with a one-line replay command.
#   2. Scenario-axis campaigns (docs/scenarios.md): the same 25-seed
#      window re-run with fixed macro blocks + routing blockages
#      (--macros) and again with mixed cell heights (--multi-row),
#      both at paranoid audit level.  Skip with CRP_SKIP_SCENARIOS=1.
#   3. A shorter campaign in a separate ASan+UBSan build tree
#      (CRP_SANITIZE=address), so memory errors on the audited paths
#      surface even when every invariant holds, plus the ObsContext and
#      ThreadPool tests in the same tree (a pool helper that outlives
#      its caller's context, the context-scope nesting) and every
#      LEF/DEF/guide parser and file-reading test (the tokenizer views
#      its caller's buffer).  Skip with CRP_SKIP_ASAN=1.
#   4. ThreadPool + pricing + observability + parallel-reroute + serve
#      tests under ThreadSanitizer (CRP_SANITIZE=thread, separate
#      build tree), guarding the sharded cache, the dynamic parallelFor
#      scheduling, the metrics registry / span tracer / flight-recorder
#      ring, the concurrent rerouteNet batches and the interleaved
#      serve sessions.  Skip with CRP_SKIP_TSAN=1.
#
# Nightly use: raise the range via the environment, e.g.
#   CRP_FUZZ_SEEDS=500 CRP_FUZZ_SEED_START=1000 scripts/run_fuzz.sh
# (each night a fresh, disjoint seed window; see docs/checking.md).
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${CRP_FUZZ_SEEDS:-25}"
SEED_START="${CRP_FUZZ_SEED_START:-1}"
ECO="${CRP_FUZZ_ECO:-1}"

BUILD=build
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j "$(nproc)" --target crp_fuzz

"$BUILD"/tools/crp_fuzz --seeds "$SEEDS" --seed-start "$SEED_START" --k 2 \
  --eco "$ECO" --artifacts fuzz-artifacts

if [[ "${CRP_SKIP_SCENARIOS:-0}" != "1" ]]; then
  # Macro/blockage axis: up to 3 fixed macro blocks per seed, each with
  # full lower-layer obstructions and a partial routing blockage.
  "$BUILD"/tools/crp_fuzz --seeds "$SEEDS" --seed-start "$SEED_START" --k 2 \
    --macros 3 --artifacts fuzz-artifacts-macro
  # Mixed-height axis: per-seed multi-row cell fraction in [0.05, 0.3].
  "$BUILD"/tools/crp_fuzz --seeds "$SEEDS" --seed-start "$SEED_START" --k 2 \
    --multi-row 0.3 --artifacts fuzz-artifacts-multirow
fi

if [[ "${CRP_SKIP_ASAN:-0}" != "1" ]]; then
  ASAN_BUILD=build-asan
  cmake -B "$ASAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCRP_SANITIZE=address
  cmake --build "$ASAN_BUILD" -j "$(nproc)" \
    --target crp_fuzz test_obs test_util test_lefdef
  "$ASAN_BUILD"/tools/crp_fuzz --seeds 6 --seed-start "$SEED_START" --k 1 \
    --artifacts fuzz-artifacts-asan
  ctest --test-dir "$ASAN_BUILD" --output-on-failure -R 'ObsContext|ThreadPool'
  # Anchored: the unanchored names would also pick Cli.* tests whose
  # crp binary this tree does not build.
  ctest --test-dir "$ASAN_BUILD" --output-on-failure \
    -R 'FileIo|^(Tokenizer|Lef|Def|Guide|FileReaders|FileWriters|Cases/Malformed)'
fi

if [[ "${CRP_SKIP_TSAN:-0}" != "1" ]]; then
  TSAN_BUILD=build-tsan
  cmake -B "$TSAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCRP_SANITIZE=thread
  cmake --build "$TSAN_BUILD" -j "$(nproc)" \
    --target test_util test_pricing test_obs test_groute test_serve
  ctest --test-dir "$TSAN_BUILD" --output-on-failure \
    -R 'ThreadPool|PricingCache|PricingEngine|Metrics|Tracer|ObsMacros|FlightRecorder|ParallelReroute|ObsContext|Logger|Serve'
fi
