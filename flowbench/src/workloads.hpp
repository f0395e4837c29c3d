// The benchmark's workloads and its own tests.
#pragma once

#include "common.hpp"

namespace flowbench {

/// route-10k and detail-test7: generate the design from the seed,
/// write and parse it back (set-up), then time GR -> CR&P k=10 (-> DR)
/// -> DEF + guides in whole rounds until `seconds` have passed, and
/// check every round's outputs.
void runFlowWorkload(const RunOptions& options, Result& result);

/// eco-serve: an in-process `crp serve` daemon on a unix socket and a
/// closed loop of clients, each repeating run(k=0, perturb) -> eco on
/// its own session; one session's chain is then replayed serially
/// in-process and compared.
void runEcoServe(const RunOptions& options, Result& result);

/// The benchmark's own tests: the checks' self-tests plus routes and
/// placement identical at 1 thread and at workloadThreads() on a small
/// design.  Returns the number of failures.
int runSelfTests();

}  // namespace flowbench
