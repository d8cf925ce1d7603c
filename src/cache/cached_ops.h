// Cache-aware wrappers around the compilation steps of the engine:
// ontology classification (src/tgd/classify) and UCQ rewriting
// (src/rewrite/xrewrite). Every function degrades to a plain computation
// when `cache` is null, so callers thread one optional pointer through and
// never branch on caching themselves. All wrappers are safe to call
// concurrently with a shared cache (per-run tallies go to the caller's
// CacheCounters, which must not be shared across threads).
//
// The store parameter is the abstract ArtifactStore: a plain OmqCache, or
// a TieredStore (cache/persist.h) that transparently consults and fills
// its on-disk tier. Inserts carry the tgd set's fingerprint as the
// invalidation tag so a tiered store can drop exactly the artifacts
// compiled from an ontology that changed.
//
// Σ reaches every wrapper as a CompiledTgds: the tgd set with its
// canonical fingerprint (and, once known, its profile). The engine entry
// points (EvalTuple, EvalAll, CheckContainment and its variants) resolve
// Σ once per call — or reuse the handle an Omq carries from a
// CompiledProgram (core/frontend.h) — so no consult point canonicalizes
// Σ again.

#ifndef OMQC_CACHE_CACHED_OPS_H_
#define OMQC_CACHE_CACHED_OPS_H_

#include <memory>
#include <optional>

#include "cache/artifact_store.h"
#include "logic/instance.h"
#include "rewrite/xrewrite.h"
#include "tgd/classify.h"

namespace omqc {

/// The classification facts the evaluation/containment dispatchers need,
/// precomputed once per distinct (modulo renaming) ontology.
struct TgdProfile {
  TgdClass primary = TgdClass::kEmpty;
  bool linear = false;
  bool guarded = false;
  bool full = false;
  bool non_recursive = false;
  bool sticky = false;

  /// True when the restricted chase provably reaches a fixpoint.
  bool ChaseTerminates() const { return full || non_recursive; }
};

/// The dispatch profile of a classified Σ; its primary class is
/// PrimaryClassOf(report).
TgdProfile TgdProfileOf(const ClassificationReport& report);

/// Σ as the consult points below see it: the tgd set, its canonical
/// fingerprint (FingerprintTgdSet, the one canonicalization a call pays)
/// and its profile once classified. A view — `tgds` must outlive it.
struct CompiledTgds {
  /// Fingerprints `tgds` now and leaves the profile to GetTgdProfile.
  /// Implicit on purpose: a one-off caller passes a plain TgdSet.
  CompiledTgds(const TgdSet& tgds);  // NOLINT(google-explicit-constructor)
  CompiledTgds(const TgdSet& tgds, const Fingerprint& fingerprint,
               std::optional<TgdProfile> profile)
      : tgds(&tgds), fingerprint(fingerprint), profile(profile) {}

  const TgdSet* tgds;
  Fingerprint fingerprint;
  std::optional<TgdProfile> profile;
};

/// Σ for one engine call: `carried`'s fingerprint and profile when it was
/// compiled from exactly `tgds` — structural equality over interned ids,
/// no canonicalization, so an Omq whose tgds were edited after compile
/// can never key the wrong artifact — else a fresh fingerprint of `tgds`.
/// `carried` may be null. The result views `tgds`.
CompiledTgds ResolveTgds(const TgdSet& tgds, const CompiledTgds* carried);

/// An owning copy of `sigma` (tgd set included) with `profile` attached:
/// the handle an Omq carries (Omq::compiled_tgds), valid for as long as
/// anyone holds it.
std::shared_ptr<const CompiledTgds> KeepCompiledTgds(
    const CompiledTgds& sigma, const TgdProfile& profile);

/// Σ's profile: `sigma.profile` when already resolved, else classified,
/// consulting/filling `cache` (keyed by the fingerprint) when non-null.
TgdProfile GetTgdProfile(ArtifactStore* cache, const CompiledTgds& sigma,
                         CacheCounters* counters = nullptr);

/// A cached (complete) UCQ rewriting together with the stats of the run
/// that produced it.
struct CachedRewriting {
  UnionOfCQs ucq;
  XRewriteStats compute_stats;
};

/// A cached chase result: the *saturated* (fixpoint) instance of chasing
/// a database under a tgd set. Only complete chases are ever cached —
/// truncated chases depend on the budget that stopped them and are
/// recomputed. Keyed by ChaseCacheKey (src/core/eval.cc wires this into
/// the certain-answer chase path).
struct CachedChase {
  Instance instance;
};

/// Digest of every XRewriteOptions field that can change the rewriting.
uint64_t XRewriteOptionsDigest(const XRewriteOptions& options);

/// Cache key for the rewriting of (data_schema, Σ, q) under `options`.
CacheKey RewritingCacheKey(const Schema& data_schema,
                           const CompiledTgds& sigma,
                           const ConjunctiveQuery& q,
                           const XRewriteOptions& options);

/// Cache key for the chase of `db` under Σ. The fingerprint combines
/// the database's fact-multiset hash with Σ's canonical fingerprint;
/// `chase_options_digest` folds every chase option that can change the
/// result (variant, strategy, budgets).
CacheKey ChaseCacheKey(const Database& db, const CompiledTgds& sigma,
                       uint64_t chase_options_digest);

/// Rough byte footprint of a UCQ (for cache accounting only).
size_t ApproxBytes(const UnionOfCQs& ucq);

/// XRewrite with caching: returns a shared complete rewriting, computing
/// and inserting it on miss. Budget exhaustion propagates as
/// ResourceExhausted and is never cached. On a hit, `stats` is untouched
/// (EngineStats counters mean work performed; the saved compilation shows
/// up as a hit in `counters` instead).
Result<std::shared_ptr<const UnionOfCQs>> CachedXRewrite(
    ArtifactStore* cache, const Schema& data_schema, const CompiledTgds& sigma,
    const ConjunctiveQuery& q, const XRewriteOptions& options,
    XRewriteStats* stats = nullptr, CacheCounters* counters = nullptr);

/// EnumerateRewritings with caching: replays a cached saturated rewriting
/// through `on_disjunct` (outcome kSaturated, or kStopped if the callback
/// stops), or enumerates live and caches the disjunct list when the
/// enumeration saturates. Budget-exhausted and stopped enumerations are
/// not cached (they are incomplete).
Result<RewriteEnumeration> CachedEnumerateRewritings(
    ArtifactStore* cache, const Schema& data_schema, const CompiledTgds& sigma,
    const ConjunctiveQuery& q, const XRewriteOptions& options,
    const std::function<bool(const ConjunctiveQuery&)>& on_disjunct,
    XRewriteStats* stats = nullptr, CacheCounters* counters = nullptr);

}  // namespace omqc

#endif  // OMQC_CACHE_CACHED_OPS_H_
