// Tests for the ECC incremental candidate-cost engine: terminal-set
// canonicalization + hashing, the sharded pricing cache, engine prices
// equal to the reference pricer's bit for bit, and the framework-level
// determinism guarantee (threads=1 vs threads=8 — identical selections
// and costs, bit for bit).
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "bmgen/generator.hpp"
#include "crp/framework.hpp"
#include "crp/pricing_cache.hpp"
#include "test_helpers.hpp"

namespace crp::core {
namespace {

using groute::GPoint;

// ---- terminal-set hash -------------------------------------------------------

TEST(TerminalHash, OrderIndependentAfterCanonicalization) {
  std::vector<GPoint> a{{0, 3, 4}, {1, 1, 2}, {0, 5, 6}};
  std::vector<GPoint> b{{0, 5, 6}, {0, 3, 4}, {1, 1, 2}};
  canonicalizeTerminals(a);
  canonicalizeTerminals(b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(terminalSetHash(a), terminalSetHash(b));
}

TEST(TerminalHash, DuplicatesCollapse) {
  std::vector<GPoint> a{{0, 3, 4}, {0, 3, 4}, {1, 1, 2}};
  std::vector<GPoint> b{{1, 1, 2}, {0, 3, 4}};
  canonicalizeTerminals(a);
  canonicalizeTerminals(b);
  EXPECT_EQ(terminalSetHash(a), terminalSetHash(b));
}

TEST(TerminalHash, NoCollisionBetweenDistinctSmallSets) {
  // All canonical sets of size 1 and 2 over a small grid must hash
  // distinctly (the cache compares full keys, so a collision would not
  // be a correctness bug — but the hash should still be that good).
  std::vector<GPoint> points;
  for (int l = 0; l < 2; ++l) {
    for (int x = 0; x < 6; ++x) {
      for (int y = 0; y < 6; ++y) points.push_back(GPoint{l, x, y});
    }
  }
  std::set<std::uint64_t> hashes;
  std::size_t sets = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::vector<GPoint> single{points[i]};
    canonicalizeTerminals(single);
    hashes.insert(terminalSetHash(single));
    ++sets;
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      std::vector<GPoint> pair{points[i], points[j]};
      canonicalizeTerminals(pair);
      hashes.insert(terminalSetHash(pair));
      ++sets;
    }
  }
  EXPECT_EQ(hashes.size(), sets);
}

TEST(TerminalHash, SizeDistinguishesPrefixSets) {
  std::vector<GPoint> one{{0, 0, 0}};
  std::vector<GPoint> two{{0, 0, 0}, {0, 0, 1}};
  EXPECT_NE(terminalSetHash(one), terminalSetHash(two));
  EXPECT_NE(terminalSetHash({}), terminalSetHash(one));
}

// ---- pricing cache -----------------------------------------------------------

struct Fixture {
  Fixture() : Fixture(crp::testing::makeGridDatabase(10, 6)) {}
  explicit Fixture(db::Database database)
      : db(std::move(database)), router(db) {
    router.run();
  }
  db::Database db;
  groute::GlobalRouter router;
};

TEST(PricingCache, HitReturnsIdenticalValue) {
  Fixture f;
  const groute::PatternRouter pattern(f.router.graph());
  groute::PatternRouter::Scratch scratch;
  PricingCache cache;
  std::vector<GPoint> terminals{{0, 1, 1}, {0, 4, 3}, {1, 2, 5}};
  canonicalizeTerminals(terminals);
  const double first = cache.price(terminals, pattern, scratch);
  const double second = cache.price(terminals, pattern, scratch);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, pattern.priceTree(terminals));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.cacheMisses, 1u);
  EXPECT_EQ(stats.cacheHits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PricingCache, DistinctSetsGetDistinctEntries) {
  Fixture f;
  const groute::PatternRouter pattern(f.router.graph());
  groute::PatternRouter::Scratch scratch;
  PricingCache cache;
  std::vector<GPoint> a{{0, 1, 1}, {0, 4, 3}};
  std::vector<GPoint> b{{0, 1, 1}, {0, 4, 4}};
  cache.price(a, pattern, scratch);
  cache.price(b, pattern, scratch);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().cacheMisses, 2u);
}

TEST(PricingCache, SharedAcrossThreads) {
  Fixture f;
  const groute::PatternRouter pattern(f.router.graph());
  PricingCache cache;
  std::vector<GPoint> terminals{{0, 1, 1}, {0, 4, 5}};
  util::ThreadPool pool(4);
  std::vector<double> prices(64, 0.0);
  pool.parallelFor(prices.size(), [&](std::size_t i) {
    static thread_local groute::PatternRouter::Scratch scratch;
    prices[i] = cache.price(terminals, pattern, scratch);
  });
  for (const double p : prices) EXPECT_EQ(p, prices[0]);
  EXPECT_EQ(cache.size(), 1u);
  const auto stats = cache.stats();
  // At least one miss computed it; racing duplicates are allowed but
  // every call must be accounted as a hit or a miss.
  EXPECT_GE(stats.cacheMisses, 1u);
  EXPECT_EQ(stats.cacheHits + stats.cacheMisses, prices.size());
}

// ---- engine == naive reference ----------------------------------------------

TEST(PricingEngine, MatchesNaiveReferencePrices) {
  // A dense generated design, so legalizer candidates displace
  // conflict cells and the displaced-pin paths of the engine are
  // exercised (the 50%-utilization grid fixture never displaces).
  bmgen::BenchmarkSpec spec;
  spec.targetCells = 300;
  spec.utilization = 0.85;
  spec.seed = 2;
  Fixture f(bmgen::generateBenchmark(spec));
  const legalizer::IlpLegalizer legalizer(f.db);
  std::vector<db::CellId> critical;
  for (db::CellId c = 0; c < f.db.numCells(); c += 3) critical.push_back(c);
  auto engine = buildCandidates(f.db, legalizer, critical, nullptr);
  auto naive = engine;
  std::size_t displacing = 0;
  for (const auto& cc : engine) {
    for (const auto& candidate : cc.candidates) {
      if (!candidate.displaced.empty()) ++displacing;
    }
  }
  ASSERT_GT(displacing, 0u);

  obs::PricingStats stats;
  PricingCache cache;
  priceCandidates(f.db, f.router, engine, nullptr, cache, &stats);

  const groute::PatternRouter pattern(f.router.graph());
  groute::PatternRouter::Scratch scratch;
  for (auto& cc : naive) {
    for (auto& candidate : cc.candidates) {
      candidate.routeCost = estimateCandidateCost(f.db, f.router, pattern,
                                                  cc.cell, candidate, scratch);
    }
  }
  for (std::size_t i = 0; i < engine.size(); ++i) {
    for (std::size_t k = 0; k < engine[i].candidates.size(); ++k) {
      // Bitwise equality: the engine substitutes identical values only,
      // and sums them in the reference's order.
      EXPECT_EQ(engine[i].candidates[k].routeCost,
                naive[i].candidates[k].routeCost)
          << "cell " << engine[i].cell << " candidate " << k;
    }
  }
  // The engine must actually be reusing work on this fixture.
  EXPECT_GT(stats.cacheHits + stats.deltaSkips, 0u);
}

TEST(PricingEngine, ReportsStats) {
  Fixture f;
  const legalizer::IlpLegalizer legalizer(f.db);
  obs::PricingStats stats;
  auto candidates = buildCandidates(f.db, legalizer, {2, 7, 13}, nullptr);
  PricingCache cache;
  priceCandidates(f.db, f.router, candidates, nullptr, cache, &stats);
  EXPECT_GT(stats.netsPriced(), 0u);
  EXPECT_GT(stats.cacheMisses, 0u);
  EXPECT_GE(stats.hitRate(), 0.0);
  EXPECT_LE(stats.hitRate(), 1.0);
}

// ---- framework determinism ---------------------------------------------------

struct RunOutcome {
  std::vector<geom::Point> positions;
  std::vector<double> selectedCosts;

  friend bool operator==(const RunOutcome&, const RunOutcome&) = default;
};

RunOutcome runFramework(int threads) {
  auto db = crp::testing::makeGridDatabase(10, 6);
  groute::GlobalRouter router(db);
  router.run();
  CrpOptions options;
  options.iterations = 2;
  options.seed = 42;
  options.threads = threads;
  CrpFramework framework(db, router, options);
  const obs::RunReport& report = framework.run();
  RunOutcome outcome;
  for (db::CellId c = 0; c < db.numCells(); ++c) {
    outcome.positions.push_back(db.cell(c).pos);
  }
  for (const auto& iteration : report.iterationStats) {
    outcome.selectedCosts.push_back(iteration.selectedCost);
  }
  return outcome;
}

TEST(PricingEngine, DeterministicAcrossThreads) {
  EXPECT_EQ(runFramework(1), runFramework(8));
}

TEST(PricingEngine, FrameworkReportCarriesPricingStats) {
  Fixture f;
  CrpOptions options;
  options.iterations = 2;
  CrpFramework framework(f.db, f.router, options);
  const obs::RunReport& report = framework.run();
  ASSERT_EQ(report.iterationStats.size(), 2u);
  std::uint64_t summed = 0;
  for (const auto& iteration : report.iterationStats) {
    summed += iteration.netsPriced;
  }
  EXPECT_EQ(report.pricing.netsPriced(), summed);
  EXPECT_GT(report.pricing.netsPriced(), 0u);
  EXPECT_GE(report.phaseSeconds(kPhaseEcc), 0.0);
}

}  // namespace
}  // namespace crp::core
