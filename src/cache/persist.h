// The persistent tier of the artifact cache: a versioned, append-only,
// crash-safe on-disk segment store plus the TieredStore that stacks the
// sharded in-memory LRU (cache/omq_cache.h) in front of it.
//
// On-disk layout (all integers little-endian, see DESIGN.md "Artifact
// store & snapshot format"):
//
//   <dir>/MANIFEST          magic "OMQM", format version, build epoch,
//                           the ordered list of sealed segment names,
//                           XXH64 checksum of everything before it.
//   <dir>/seg-<n>.omqs      magic "OMQS", format version, build epoch,
//                           then a run of records, each carrying its own
//                           XXH64 checksum:
//                             artifact : key {fingerprint, options digest,
//                                        kind} + tgd tag + payload version
//                                        + length-prefixed payload
//                             tombstone: tgd tag (erases every earlier
//                                        artifact carrying that tag)
//
// Durability: segments are sealed by writing to a temp file, fsync'ing,
// renaming into place and fsync'ing the directory; the manifest is
// rewritten the same way afterwards. A crash mid-flush therefore leaves
// either the old manifest (new segment invisible, cache merely colder) or
// the new one (segment fully durable) — never a half-read state.
//
// Robustness: the loader treats segment bytes as untrusted input. A record
// failing its checksum or bounds stops that segment (append-only files
// cannot be resynced past a tear) and is counted in `corrupt_records`; a
// foreign format version or build epoch rejects the file and is counted in
// `version_rejects`. Every failure degrades to a cold compile — opening a
// store never fails on bad segment bytes and never serves a bad artifact.
//
// Laziness: opening a store only indexes raw payload spans. Artifacts are
// decoded (and their terms interned) on first lookup, so loading a large
// store does not touch the process-wide interning tables.

#ifndef OMQC_CACHE_PERSIST_H_
#define OMQC_CACHE_PERSIST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "cache/omq_cache.h"
#include "cache/serialize.h"

namespace omqc {

/// XXH64 of `size` bytes (seed 0). Used for record and manifest checksums;
/// implemented in persist.cc (public-domain algorithm, no dependency).
uint64_t Xxh64(const void* data, size_t size, uint64_t seed = 0);

/// On-disk format version of segments and the manifest. Bump on layout
/// changes; kArtifactPayloadVersion (cache/serialize.h) separately versions
/// the payloads inside records.
constexpr uint32_t kSegmentFormatVersion = 1;

/// Build epoch stamped into segments and the manifest: artifacts encode by
/// name and carry their own payload version, so the epoch only changes
/// when cross-build reuse must be severed wholesale (e.g. a fingerprint
/// function change, which silently re-keys everything).
constexpr uint64_t kBuildEpoch = 1;

struct PersistentStoreStats {
  size_t entries = 0;
  size_t segments = 0;
  size_t corrupt_records = 0;
  size_t version_rejects = 0;
  size_t pending_records = 0;  ///< appended since the last Flush
};

/// The on-disk tier. Thread-safe. Single-writer per directory is assumed
/// (concurrent writers do not corrupt each other — rename is atomic — but
/// the last manifest rewrite wins).
class PersistentStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir` and indexes its
  /// sealed segments. Fails only on filesystem errors (unreachable or
  /// uncreatable directory), never on segment contents.
  static Result<std::unique_ptr<PersistentStore>> Open(const std::string& dir);

  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  /// The raw (still-encoded) payload for `key`, or nullptr. Decoding is
  /// the caller's job — this tier never interns terms.
  std::shared_ptr<const std::string> Lookup(const CacheKey& key) const;

  bool Contains(const CacheKey& key) const;

  /// Stages an artifact record for the next Flush and makes it visible to
  /// Lookup immediately. Last write wins per key.
  void Append(const CacheKey& key, const Fingerprint& tgd_tag,
              uint32_t payload_version, std::string payload);

  /// Drops every entry whose tgd tag equals `tgd_tag` and stages a
  /// tombstone so the drop survives restarts.
  void Invalidate(const Fingerprint& tgd_tag);

  /// Seals pending records into a new segment and rewrites the manifest
  /// (temp + fsync + rename). No-op when nothing is pending.
  Status Flush();

  PersistentStoreStats stats() const;

  const std::string& dir() const { return dir_; }

 private:
  explicit PersistentStore(std::string dir) : dir_(std::move(dir)) {}

  struct Entry {
    std::shared_ptr<const std::string> payload;
    Fingerprint tgd_tag;
    uint32_t payload_version = 0;
  };

  void LoadSegment(const std::string& path);
  Status WriteFileDurably(const std::string& final_path,
                          const std::string& bytes);

  const std::string dir_;
  mutable std::mutex mu_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> index_;
  /// Staged records, encoded, in append order (tombstones interleaved so
  /// replay order matches the in-memory effect).
  std::vector<std::string> pending_;
  std::vector<std::string> segment_names_;  ///< manifest order
  uint64_t next_segment_id_ = 0;
  size_t corrupt_records_ = 0;
  size_t version_rejects_ = 0;
};

struct TieredStoreConfig {
  OmqCacheConfig l1;
  std::string dir;
};

/// ArtifactStore stacking the in-memory LRU (L1) over a PersistentStore
/// (L2). Lookups fall through L1 misses to L2, decode the stored payload
/// and promote the artifact into L1; inserts go to L1 and (for persistable
/// kinds, deduplicated by key) are appended to L2. Artifact semantics are
/// unchanged: L2 only ever holds payloads written for saturated artifacts,
/// and a decoded artifact is observationally identical to the cold-computed
/// one, so verdicts are byte-identical cold vs warm vs cross-process.
class TieredStore : public ArtifactStore {
 public:
  static Result<std::unique_ptr<TieredStore>> Open(TieredStoreConfig config);

  /// Flushes the persistent tier (crash after destruction loses nothing
  /// that was inserted before it).
  ~TieredStore() override;

  std::shared_ptr<const void> Probe(const CacheKey& key,
                                    CacheCounters* counters,
                                    ProbeTally tally) override {
    return l1_->Probe(key, counters, tally);
  }
  void PutErased(const CacheKey& key, std::shared_ptr<const void> value,
                 size_t bytes, CacheCounters* counters = nullptr,
                 const Fingerprint& tgd_tag = Fingerprint{}) override;

  /// Drops L1 wholesale (entries do not remember their tags) and exactly
  /// the on-disk artifacts compiled from the tgd set with this
  /// fingerprint. Artifacts of unchanged ontologies stay warm.
  void InvalidateTgdSet(const Fingerprint& tgd_tag);

  void Clear() override;
  OmqCacheStats Stats() const override;
  void Flush() override;
  void set_fault_injector(FaultInjector* injector) override;

  OmqCache* l1() { return l1_.get(); }
  PersistentStore* persist() { return persist_.get(); }

 protected:
  /// L2 after an L1 miss: decodes the stored payload and promotes it into
  /// L1. Under GetOrCompile concurrent misses share one decode.
  std::shared_ptr<const void> ProbeBacking(const CacheKey& key,
                                           CacheCounters* counters) override;

 private:
  TieredStore(std::unique_ptr<OmqCache> l1,
              std::unique_ptr<PersistentStore> persist)
      : l1_(std::move(l1)), persist_(std::move(persist)) {}

  std::unique_ptr<OmqCache> l1_;
  std::unique_ptr<PersistentStore> persist_;
  std::atomic<size_t> persist_hits_{0};
  std::atomic<size_t> persist_writes_{0};
  std::atomic<size_t> promotions_{0};
};

}  // namespace omqc

#endif  // OMQC_CACHE_PERSIST_H_
