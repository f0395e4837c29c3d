#include "crp/pricing_cache.hpp"

#include <algorithm>

#include "groute/global_router.hpp"
#include "obs/obs.hpp"

namespace crp::core {

namespace {

/// splitmix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void canonicalizeTerminals(std::vector<groute::GPoint>& terminals) {
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
}

std::uint64_t terminalSetHash(const std::vector<groute::GPoint>& terminals) {
  // Seed with the size so {} and {origin} differ; chain mixes so the
  // hash depends on position (canonical order makes that well-defined).
  std::uint64_t h = mix64(0x7275746552435026ULL ^ terminals.size());
  for (const groute::GPoint& t : terminals) {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.x)) << 32) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.y));
    h = mix64(h ^ packed);
    h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                      t.layer)));
  }
  return h;
}

PricingCache::PricingCache() {
  static_assert((kShards & (kShards - 1)) == 0, "kShards: a power of 2");
  shards_.reserve(kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

double PricingCache::price(const std::vector<groute::GPoint>& terminals,
                           const groute::PatternRouter& pattern,
                           groute::PatternRouter::Scratch& scratch) {
  const std::uint64_t hash = terminalSetHash(terminals);
  // The top bits pick the shard; unordered_map buckets use the low ones.
  Shard& shard = *shards_[(hash >> 48) & (kShards - 1)];
  {
    std::lock_guard lock(shard.mutex);
    // Heterogeneous probe: no terminal-vector copy on the hit path.
    const auto it = shard.entries.find(KeyView{&terminals, hash});
    if (it != shard.entries.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Miss: route outside the lock so shard contention never serializes
  // pattern routing.  A concurrent duplicate computes the same value
  // (priceTree is deterministic), so try_emplace keeps the first.
  const double price = pattern.priceTree(terminals, scratch);
  misses_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(shard.mutex);
    shard.entries.try_emplace(Key{terminals, hash}, price);
  }
  return price;
}

obs::PricingStats PricingCache::stats() const {
  obs::PricingStats stats;
  stats.cacheHits = hits_.load(std::memory_order_relaxed);
  stats.cacheMisses = misses_.load(std::memory_order_relaxed);
  stats.deltaSkips = deltaSkips_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t PricingCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

std::size_t PricingCache::invalidateRegions(
    const std::vector<groute::GCellRect>& regions) {
  if (regions.empty()) return 0;
  groute::GCellRect bound;
  for (const groute::GCellRect& region : regions) bound.cover(region);
  std::size_t evicted = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (auto it = shard->entries.begin(); it != shard->entries.end();) {
      groute::GCellRect bbox;
      for (const groute::GPoint& t : it->first.terminals) {
        bbox.cover(t.x, t.y);
      }
      if (bbox.overlaps(bound) && overlapsAny(bbox, regions)) {
        it = shard->entries.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  CRP_OBS_COUNT("crp.cache.evictions", evicted);
  return evicted;
}

void PricingCache::clear() {
  std::size_t evicted = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    evicted += shard->entries.size();
    shard->entries.clear();
  }
  CRP_OBS_COUNT("crp.cache.evictions", evicted);
}

PricingCacheEntries PricingCache::entries() const {
  PricingCacheEntries out;
  out.reserve(size());
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (const auto& [key, price] : shard.get()->entries) {
      out.emplace_back(key.terminals, price);
    }
  }
  // Hash-map iteration order is schedule-dependent; sorting keeps audit
  // reports and artifacts deterministic.
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace crp::core
