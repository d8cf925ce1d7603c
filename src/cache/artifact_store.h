// ArtifactStore: the abstract interface every compiled-artifact cache
// implements — the process-local sharded LRU (cache/omq_cache.h) and the
// tiered memory+disk store (cache/persist.h). The cache key and counter
// types live here so both implementations and every consumer
// (cache/cached_ops.h, src/core, src/server) share one vocabulary.
//
// Contract (inherited from the original OmqCache and unchanged by
// tiering): a store never changes semantics. Every consumer compiles on a
// miss (or a null store pointer) through GetOrCompile, which coalesces
// concurrent misses on one key into one compilation; only *saturated*
// artifacts are inserted, and a served artifact is observationally
// identical to what the fallback would compute for the same key. This is
// what makes verdicts byte-identical cold vs warm vs cross-process.

#ifndef OMQC_CACHE_ARTIFACT_STORE_H_
#define OMQC_CACHE_ARTIFACT_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "base/status.h"
#include "cache/canonical.h"

namespace omqc {

class FaultInjector;
class ResourceGovernor;

/// What a cache entry holds. Part of the key: the same fingerprint may
/// cache several artifact kinds side by side.
enum class ArtifactKind : uint8_t {
  kRewriting = 0,       ///< CachedRewriting (cache/cached_ops.h)
  kClassification = 1,  ///< TgdProfile (cache/cached_ops.h)
  kRhsEvaluator = 2,    ///< RhsEvaluator (src/core/containment.cc)
  kChasedInstance = 3,  ///< CachedChase (cache/cached_ops.h)
};

struct CacheKey {
  Fingerprint fingerprint;
  uint64_t options_digest = 0;
  ArtifactKind kind = ArtifactKind::kRewriting;

  bool operator==(const CacheKey& other) const {
    return fingerprint == other.fingerprint &&
           options_digest == other.options_digest && kind == other.kind;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    size_t h = FingerprintHash{}(key.fingerprint);
    h ^= (key.options_digest + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    return h ^ (static_cast<size_t>(key.kind) << 1);
  }
};

/// Tallies of cache traffic. Used both per-run (embedded in EngineStats,
/// merged across worker threads) and as the cache-global aggregate.
/// `lookups`/`hits`/`misses` describe the in-memory tier; the persist_*
/// fields describe the on-disk tier of a TieredStore (always zero for a
/// plain OmqCache).
struct CacheCounters {
  size_t lookups = 0;
  size_t hits = 0;
  size_t misses = 0;
  size_t insertions = 0;
  size_t evictions = 0;
  size_t bytes_inserted = 0;
  /// L2 traffic: lookups served from the on-disk segment store after an L1
  /// miss, records appended to it, and L2 hits promoted into L1.
  size_t persist_hits = 0;
  size_t persist_writes = 0;
  size_t promotions = 0;
  /// Lookups that missed while another caller was compiling the same key
  /// and waited for it (ArtifactStore::GetOrCompile). Each is still one
  /// lookup, resolved as a hit or miss by the look after the wait, so
  /// hits / lookups stays the share of lookups served without compiling.
  /// A wait abandoned on the waiter's own governor trip resolves as
  /// neither.
  size_t coalesced = 0;

  void Merge(const CacheCounters& other) {
    lookups += other.lookups;
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    bytes_inserted += other.bytes_inserted;
    persist_hits += other.persist_hits;
    persist_writes += other.persist_writes;
    promotions += other.promotions;
    coalesced += other.coalesced;
  }

  std::string ToString() const;
};

/// Aggregate snapshot across all shards (plus, for a TieredStore, the
/// on-disk tier's occupancy and load-time health counters).
struct OmqCacheStats {
  CacheCounters counters;
  size_t entries = 0;  ///< live in-memory entries
  size_t bytes = 0;    ///< approximate bytes held by live entries
  /// On-disk tier (zero for a memory-only store):
  size_t persist_entries = 0;   ///< records indexed from the segment files
  size_t persist_segments = 0;  ///< sealed segments referenced by the manifest
  size_t persist_corrupt_records = 0;  ///< records rejected by checksum/bounds
  size_t persist_version_rejects = 0;  ///< segments/manifests of a foreign
                                       ///< format version or build epoch

  std::string ToString() const;
};

/// How a memory-tier probe is tallied (ArtifactStore::Probe). A lookup
/// ends as exactly one hit or one miss; the single-flight path splits that
/// across two probes so a coalesced wait is not also counted as a miss.
enum class ProbeTally : uint8_t {
  kLookup,   ///< a whole lookup: lookups + 1, then hits or misses + 1
  kFirst,    ///< opens a lookup: lookups + 1, and hits + 1 on a hit only
  kResolve,  ///< closes a kFirst lookup that missed: hits or misses + 1
};

/// Abstract compiled-artifact store. Implementations must be safe for
/// concurrent use from many threads; values are immutable objects handed
/// out as shared_ptr<const T> that stay alive while any reader holds
/// them, even after eviction or invalidation.
///
/// Single flight: GetOrCompile is the one miss -> compile -> Put path of
/// every consumer. The first caller to miss on a key runs the compilation
/// (the key's *leader*); concurrent callers missing on the same key wait
/// for that flight to end and then look again. A leader that ends without
/// a cacheable artifact — an error, a governor trip, a stopped
/// enumeration, or an insert the store dropped — leaves nothing behind,
/// so the next look misses again and exactly one waiter becomes the next
/// leader. Nothing is poisoned: only saturated artifacts are ever stored.
class ArtifactStore {
 public:
  virtual ~ArtifactStore() = default;

  /// Looks up `key` in every tier. Returns nullptr on miss. If `counters`
  /// is non-null the traffic is tallied into it as well as into
  /// store-global counters.
  std::shared_ptr<const void> GetErased(const CacheKey& key,
                                        CacheCounters* counters = nullptr) {
    if (auto hit = Probe(key, counters, ProbeTally::kLookup)) return hit;
    return ProbeBacking(key, counters);
  }

  /// Probes the in-memory tier only, refreshing the entry's LRU position
  /// and tallying per `tally`. Returns nullptr on miss.
  virtual std::shared_ptr<const void> Probe(const CacheKey& key,
                                            CacheCounters* counters,
                                            ProbeTally tally) = 0;

  /// Inserts (or replaces) `key`. `bytes` is the caller's size estimate,
  /// used only for accounting/eviction. `tgd_tag` is the canonical
  /// fingerprint of the tgd set the artifact was compiled from — the
  /// incremental-invalidation handle (TieredStore::InvalidateTgdSet drops
  /// exactly the entries carrying a given tag); memory-only stores ignore
  /// it. Stores may drop an insert (capacity, fault injection, kind not
  /// persistable): callers must treat Put as advisory.
  virtual void PutErased(const CacheKey& key, std::shared_ptr<const void> value,
                         size_t bytes, CacheCounters* counters = nullptr,
                         const Fingerprint& tgd_tag = Fingerprint{}) = 0;

  /// Drops every in-memory entry (counters are kept).
  virtual void Clear() = 0;

  /// Aggregated counters + occupancy.
  virtual OmqCacheStats Stats() const = 0;

  /// Makes pending state durable (no-op for memory-only stores). Called
  /// by the CLI on exit and the server on drain.
  virtual void Flush() {}

  /// Test-only: installs a fault injector whose OnCacheInsert hook may
  /// drop inserts. Default no-op; pass nullptr to detach.
  virtual void set_fault_injector(FaultInjector* injector) { (void)injector; }

  /// Typed convenience wrappers. The ArtifactKind in the key is the type
  /// tag: every producer/consumer of a kind must agree on T.
  template <typename T>
  std::shared_ptr<const T> Get(const CacheKey& key,
                               CacheCounters* counters = nullptr) {
    return std::static_pointer_cast<const T>(GetErased(key, counters));
  }
  template <typename T>
  void Put(const CacheKey& key, std::shared_ptr<const T> value, size_t bytes,
           CacheCounters* counters = nullptr,
           const Fingerprint& tgd_tag = Fingerprint{}) {
    PutErased(key, std::static_pointer_cast<const void>(std::move(value)),
              bytes, counters, tgd_tag);
  }

  /// Single-flight get-or-compile (see the class comment). Returns the
  /// stored artifact on a hit, else what `compile` returned for the caller
  /// that ran it. `compile` takes no arguments, returns a
  /// Result<shared_ptr<const T>> (or a shared_ptr<const T>), and Puts
  /// whatever is cacheable itself — it may return an artifact it did not
  /// store, or nullptr. A waiter polls `governor` (may be null) and gives
  /// up with its trip status; the leader's compilation is unaffected.
  /// A caller never waits on a flight whose leader is, directly or through
  /// other waits, waiting on this caller: it compiles on its own instead,
  /// so nested keys cannot deadlock.
  template <typename T, typename Compile>
  Result<std::shared_ptr<const T>> GetOrCompile(const CacheKey& key,
                                                CacheCounters* counters,
                                                ResourceGovernor* governor,
                                                Compile&& compile) {
    if (auto hit = Probe(key, counters, ProbeTally::kFirst)) {
      return std::static_pointer_cast<const T>(std::move(hit));
    }
    Result<std::shared_ptr<const void>> value = CompileOnMiss(
        key, counters, governor,
        [&compile]() -> Result<std::shared_ptr<const void>> {
          Result<std::shared_ptr<const T>> compiled = compile();
          if (!compiled.ok()) return compiled.status();
          return std::shared_ptr<const void>(std::move(compiled).value());
        });
    if (!value.ok()) return value.status();
    return std::static_pointer_cast<const T>(std::move(value).value());
  }

 protected:
  /// Fills an in-memory miss from a slower tier (TieredStore: decode from
  /// disk and promote). Runs under the key's flight, so concurrent misses
  /// share one decode. Default: no slower tier.
  virtual std::shared_ptr<const void> ProbeBacking(const CacheKey& key,
                                                   CacheCounters* counters) {
    (void)key;
    (void)counters;
    return nullptr;
  }

  /// Lookups that waited on another caller's flight (store-global).
  size_t coalesced_waits() const {
    return coalesced_.load(std::memory_order_relaxed);
  }

 private:
  struct Flight;

  /// The slow path of GetOrCompile after its first probe missed: lead the
  /// key's flight (re-check, slower tier, then `compile`) or wait on it.
  Result<std::shared_ptr<const void>> CompileOnMiss(
      const CacheKey& key, CacheCounters* counters, ResourceGovernor* governor,
      const std::function<Result<std::shared_ptr<const void>>()>& compile);

  /// True when `self` waiting on `flight` would close a cycle of waits.
  /// Caller holds flights_mu_.
  bool WaitWouldCycle(const Flight* flight, std::thread::id self) const;

  std::mutex flights_mu_;
  /// Keys being compiled right now, by their leader.
  std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash> flights_;
  /// The flight each blocked thread is waiting on.
  std::unordered_map<std::thread::id, const Flight*> waiting_;
  std::atomic<size_t> coalesced_{0};
};

}  // namespace omqc

#endif  // OMQC_CACHE_ARTIFACT_STORE_H_
