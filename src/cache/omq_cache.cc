#include "cache/omq_cache.h"

#include <algorithm>

#include "base/fault_injection.h"

namespace omqc {

OmqCache::OmqCache(OmqCacheConfig config)
    : capacity_(std::max<size_t>(config.capacity, 1)) {
  size_t num_shards =
      std::min(std::max<size_t>(config.num_shards, 1), capacity_);
  per_shard_capacity_ = (capacity_ + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const void> OmqCache::Probe(const CacheKey& key,
                                            CacheCounters* counters,
                                            ProbeTally tally) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (tally != ProbeTally::kResolve) {
    ++shard.counters.lookups;
    if (counters != nullptr) ++counters->lookups;
  }
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (tally != ProbeTally::kFirst) {
      ++shard.counters.misses;
      if (counters != nullptr) ++counters->misses;
    }
    return nullptr;
  }
  // Refresh: move to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.counters.hits;
  if (counters != nullptr) ++counters->hits;
  return it->second->value;
}

void OmqCache::PutErased(const CacheKey& key, std::shared_ptr<const void> value,
                         size_t bytes, CacheCounters* counters,
                         const Fingerprint& /*tgd_tag*/) {
  if (FaultInjector* fi = fault_injector_.load(std::memory_order_acquire)) {
    // A dropped insert is indistinguishable from an immediate eviction:
    // the caller keeps its freshly computed value, only reuse is lost.
    if (fi->OnCacheInsert()) return;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.bytes += bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(value), bytes});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.counters.insertions;
  shard.counters.bytes_inserted += bytes;
  if (counters != nullptr) {
    ++counters->insertions;
    counters->bytes_inserted += bytes;
  }
  while (shard.lru.size() > per_shard_capacity_) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.counters.evictions;
    if (counters != nullptr) ++counters->evictions;
  }
}

void OmqCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

OmqCacheStats OmqCache::Stats() const {
  OmqCacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.counters.Merge(shard->counters);
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  stats.counters.coalesced = coalesced_waits();
  return stats;
}

size_t OmqCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace omqc
