// Memoized net pricing for the ECC phase (Alg. 3).
//
// Candidate pricing re-routes the same terminal sets over and over:
// every candidate of a cell that lands in the same GCell column
// produces a byte-identical terminal set, and the baseline (stay)
// price of a net is needed by every candidate that does not move its
// pins.  The cache memoizes PatternRouter::priceTree by the canonical
// (sorted, deduplicated) terminal set, sharded under mutex stripes so
// all ThreadPool workers share hits.
//
// Lifetime/invalidation: demand maps are frozen during Alg. 3 (pattern
// routing is read-only on the RoutingGraph), so a cache is valid for at
// least one ECC phase.  The framework keeps one cache alive across
// iterations (and into runEco) and, before every reroute, evicts the
// entries whose terminal bbox the rerouted region touches via
// invalidateRegions() (docs/pricing_cache.md, docs/eco.md).
//
// Determinism: priceTree is a pure function of the terminal set and
// the frozen graph, and entries compare the full terminal vector (the
// hash only picks the shard/bucket), so a cached value is bit-identical
// to a recomputed one regardless of thread schedule.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "groute/pattern_route.hpp"
#include "obs/run_report.hpp"

namespace crp::groute {
struct GCellRect;  // global_router.hpp (kept out of this header)
}

namespace crp::core {

/// Sorts + deduplicates a terminal set in place (the canonical form
/// terminalsWithOverrides produces; exposed for tests).
void canonicalizeTerminals(std::vector<groute::GPoint>& terminals);

/// 64-bit hash of a canonical terminal set.  Order-sensitive by design:
/// canonicalize first.  Mixes each (layer, x, y) with a splitmix64-style
/// finalizer so distinct small sets do not collide in practice (and a
/// collision is harmless: entries compare the full key).
std::uint64_t terminalSetHash(const std::vector<groute::GPoint>& terminals);

/// Snapshot of cache contents: (canonical terminal set, price) pairs in
/// deterministic (sorted) order.  Produced by PricingCache::entries()
/// and replayed by the pricing-coherence audit.
using PricingCacheEntries =
    std::vector<std::pair<std::vector<groute::GPoint>, double>>;

class PricingCache {
 public:
  /// Mutex stripes (a power of 2).
  static constexpr std::size_t kShards = 64;

  PricingCache();

  /// Returns priceTree(terminals), memoized.  `terminals` must be
  /// canonical (terminalsWithOverrides output already is).  On a miss
  /// the route runs outside the shard lock using `scratch`.
  double price(const std::vector<groute::GPoint>& terminals,
               const groute::PatternRouter& pattern,
               groute::PatternRouter::Scratch& scratch);

  /// Records nets skipped entirely by delta pricing.
  void countDeltaSkip(std::uint64_t n = 1) {
    deltaSkips_.fetch_add(n, std::memory_order_relaxed);
  }

  obs::PricingStats stats() const;
  std::size_t size() const;  ///< resident entries across all shards

  /// Evicts every entry whose terminal bbox overlaps any of `regions`
  /// and returns the eviction count (also published as the
  /// crp.cache.evictions obs counter).  This is the targeted
  /// invalidation path for a cache that outlives one ECC phase: after
  /// demand changes inside a region, evict the entries whose terminal
  /// bbox the region touches — the pattern-route containment contract
  /// (pattern_route.hpp) guarantees every other entry priced against
  /// state that did not change.  A persistent cache holds entries for
  /// the whole die while a delta touches a sliver of it, so the scan
  /// short-circuits on the union bound of `regions` first — entries far
  /// from the dirty region cost four comparisons, not a scan of every
  /// rect.  Deterministic: the survivor set depends only on the entry
  /// keys and the regions, never on shard layout or thread schedule.
  std::size_t invalidateRegions(
      const std::vector<groute::GCellRect>& regions);

  /// Drops every entry (counters are kept; they describe work done, not
  /// residency).
  void clear();

  /// Snapshot of every (canonical terminal set, cached price) entry, in
  /// a deterministic order (sorted by terminal set): what the
  /// pricing-coherence audit (check::auditCachedPrices) replays against
  /// a from-scratch priceTree while the demand maps are still frozen.
  PricingCacheEntries entries() const;

 private:
  struct Key {
    std::vector<groute::GPoint> terminals;
    std::uint64_t hash = 0;
  };
  /// Borrowed key for the hit path: heterogeneous lookup avoids copying
  /// the terminal vector just to probe.
  struct KeyView {
    const std::vector<groute::GPoint>* terminals;
    std::uint64_t hash;
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.hash);
    }
    std::size_t operator()(const KeyView& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const {
      return a.hash == b.hash && a.terminals == b.terminals;
    }
    bool operator()(const Key& a, const KeyView& b) const {
      return a.hash == b.hash && a.terminals == *b.terminals;
    }
    bool operator()(const KeyView& a, const Key& b) const {
      return a.hash == b.hash && *a.terminals == b.terminals;
    }
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, double, KeyHash, KeyEq> entries;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> deltaSkips_{0};
};

}  // namespace crp::core
