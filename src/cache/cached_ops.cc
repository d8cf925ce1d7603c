#include "cache/cached_ops.h"

#include <utility>
#include <vector>

#include "base/governor.h"

namespace omqc {
namespace {

uint64_t DigestCombine(uint64_t h, uint64_t v) {
  return (h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2))) *
         0x00000100000001b3ULL;
}

size_t ApproxBytes(const ConjunctiveQuery& q) {
  size_t bytes = sizeof(ConjunctiveQuery);
  bytes += q.answer_vars.size() * sizeof(Term);
  for (const Atom& a : q.body) {
    bytes += sizeof(Atom) + a.args.size() * sizeof(Term);
  }
  return bytes;
}

}  // namespace

TgdProfile TgdProfileOf(const ClassificationReport& report) {
  TgdProfile p;
  p.primary = PrimaryClassOf(report);
  if (report.empty) {
    p.full = true;
    p.non_recursive = true;
    return p;
  }
  p.linear = report.linear;
  p.guarded = report.guarded;
  p.full = report.full;
  p.non_recursive = report.non_recursive;
  p.sticky = report.sticky;
  return p;
}

CompiledTgds::CompiledTgds(const TgdSet& tgds)
    : CompiledTgds(tgds, FingerprintTgdSet(tgds), std::nullopt) {}

CompiledTgds ResolveTgds(const TgdSet& tgds, const CompiledTgds* carried) {
  if (carried != nullptr &&
      (carried->tgds == &tgds || carried->tgds->tgds == tgds.tgds)) {
    return CompiledTgds(tgds, carried->fingerprint, carried->profile);
  }
  return CompiledTgds(tgds);
}

std::shared_ptr<const CompiledTgds> KeepCompiledTgds(
    const CompiledTgds& sigma, const TgdProfile& profile) {
  // One allocation holds the copied tgd set and the view onto it; the
  // returned pointer aliases the view and keeps both alive.
  struct Kept {
    Kept(const CompiledTgds& sigma, const TgdProfile& profile)
        : tgds(*sigma.tgds), view(tgds, sigma.fingerprint, profile) {}
    Kept(const Kept&) = delete;
    Kept& operator=(const Kept&) = delete;
    TgdSet tgds;
    CompiledTgds view;
  };
  auto kept = std::make_shared<const Kept>(sigma, profile);
  return std::shared_ptr<const CompiledTgds>(kept, &kept->view);
}

TgdProfile GetTgdProfile(ArtifactStore* cache, const CompiledTgds& sigma,
                         CacheCounters* counters) {
  if (sigma.profile.has_value()) return *sigma.profile;
  auto classify = [&] {
    return TgdProfileOf(ClassifyForDispatch(*sigma.tgds));
  };
  if (cache == nullptr) return classify();
  CacheKey key{sigma.fingerprint, 0, ArtifactKind::kClassification};
  // Ungoverned: classification never fails, so neither can this.
  return **cache->GetOrCompile<TgdProfile>(
      key, counters, /*governor=*/nullptr, [&] {
        auto profile = std::make_shared<const TgdProfile>(classify());
        cache->Put(key, profile, sizeof(TgdProfile), counters,
                   sigma.fingerprint);
        return profile;
      });
}

uint64_t XRewriteOptionsDigest(const XRewriteOptions& options) {
  // Deliberately excludes options.governor: the rewriting a saturated run
  // produces is independent of how the run was governed, and keying on a
  // per-request pointer would defeat cross-request sharing (and tempt the
  // cache into holding a dangling pointer).
  uint64_t h = 0xa0761d6478bd642fULL;
  h = DigestCombine(h, options.max_queries);
  h = DigestCombine(h, options.max_steps);
  h = DigestCombine(h, options.max_group_size);
  h = DigestCombine(h, options.minimize_disjuncts ? 1 : 0);
  h = DigestCombine(h, options.prune_subsumed ? 1 : 0);
  return h;
}

CacheKey RewritingCacheKey(const Schema& data_schema,
                           const CompiledTgds& sigma,
                           const ConjunctiveQuery& q,
                           const XRewriteOptions& options) {
  return CacheKey{CombineOmqFingerprint(data_schema, sigma.fingerprint, q),
                  XRewriteOptionsDigest(options), ArtifactKind::kRewriting};
}

CacheKey ChaseCacheKey(const Database& db, const CompiledTgds& sigma,
                       uint64_t chase_options_digest) {
  Fingerprint d = FingerprintDatabase(db);
  const Fingerprint& t = sigma.fingerprint;
  // Pairwise-combine the two 128-bit fingerprints (order-sensitive: the
  // database and ontology roles are distinct).
  Fingerprint fp;
  fp.hi = DigestCombine(DigestCombine(d.hi, t.hi), 0xC0DEC0DE01ULL);
  fp.lo = DigestCombine(DigestCombine(d.lo, t.lo), 0xC0DEC0DE02ULL);
  return CacheKey{fp, chase_options_digest, ArtifactKind::kChasedInstance};
}

size_t ApproxBytes(const UnionOfCQs& ucq) {
  size_t bytes = sizeof(UnionOfCQs);
  for (const ConjunctiveQuery& d : ucq.disjuncts) bytes += ApproxBytes(d);
  return bytes;
}

Result<std::shared_ptr<const UnionOfCQs>> CachedXRewrite(
    ArtifactStore* cache, const Schema& data_schema, const CompiledTgds& sigma,
    const ConjunctiveQuery& q, const XRewriteOptions& options,
    XRewriteStats* stats, CacheCounters* counters) {
  if (cache == nullptr) {
    OMQC_ASSIGN_OR_RETURN(
        UnionOfCQs rewriting,
        XRewrite(data_schema, *sigma.tgds, q, options, stats));
    return std::make_shared<const UnionOfCQs>(std::move(rewriting));
  }
  CacheKey key = RewritingCacheKey(data_schema, sigma, q, options);
  // On a hit no rewriting work was performed, so `stats` stays untouched
  // (the hit itself shows up in `counters`).
  OMQC_ASSIGN_OR_RETURN(
      std::shared_ptr<const CachedRewriting> entry,
      cache->GetOrCompile<CachedRewriting>(
          key, counters, options.governor,
          [&]() -> Result<std::shared_ptr<const CachedRewriting>> {
            auto computed = std::make_shared<CachedRewriting>();
            OMQC_ASSIGN_OR_RETURN(
                computed->ucq, XRewrite(data_schema, *sigma.tgds, q, options,
                                        &computed->compute_stats));
            if (stats != nullptr) stats->Merge(computed->compute_stats);
            cache->Put<CachedRewriting>(key, computed,
                                        ApproxBytes(computed->ucq), counters,
                                        sigma.fingerprint);
            return std::shared_ptr<const CachedRewriting>(
                std::move(computed));
          }));
  // Aliasing constructor: share ownership of the entry, expose the UCQ.
  return std::shared_ptr<const UnionOfCQs>(entry, &entry->ucq);
}

Result<RewriteEnumeration> CachedEnumerateRewritings(
    ArtifactStore* cache, const Schema& data_schema, const CompiledTgds& sigma,
    const ConjunctiveQuery& q, const XRewriteOptions& options,
    const std::function<bool(const ConjunctiveQuery&)>& on_disjunct,
    XRewriteStats* stats, CacheCounters* counters) {
  if (cache == nullptr) {
    return EnumerateRewritings(data_schema, *sigma.tgds, q, options,
                               on_disjunct, stats);
  }
  CacheKey key = RewritingCacheKey(data_schema, sigma, q, options);
  // The caller that compiles streams its disjuncts live; everyone else
  // replays the stored list.
  bool streamed = false;
  RewriteEnumeration outcome = RewriteEnumeration::kSaturated;
  Result<std::shared_ptr<const CachedRewriting>> entry =
      cache->GetOrCompile<CachedRewriting>(
          key, counters, options.governor,
          [&]() -> Result<std::shared_ptr<const CachedRewriting>> {
            streamed = true;
            auto collected = std::make_shared<CachedRewriting>();
            auto wrapped = [&collected,
                            &on_disjunct](const ConjunctiveQuery& d) {
              collected->ucq.disjuncts.push_back(d);
              return on_disjunct(d);
            };
            OMQC_ASSIGN_OR_RETURN(
                outcome,
                EnumerateRewritings(data_schema, *sigma.tgds, q, options,
                                    wrapped, &collected->compute_stats));
            if (stats != nullptr) stats->Merge(collected->compute_stats);
            if (outcome != RewriteEnumeration::kSaturated) {
              return std::shared_ptr<const CachedRewriting>();
            }
            cache->Put<CachedRewriting>(key, collected,
                                        ApproxBytes(collected->ucq),
                                        counters, sigma.fingerprint);
            return std::shared_ptr<const CachedRewriting>(
                std::move(collected));
          });
  if (!entry.ok()) {
    // A wait given up on the request governor's trip ends the way a live
    // enumeration cut short by that governor does.
    if (options.governor != nullptr && options.governor->tripped()) {
      return RewriteEnumeration::kBudgetExhausted;
    }
    return entry.status();
  }
  if (streamed) return outcome;
  for (const ConjunctiveQuery& d : (*entry)->ucq.disjuncts) {
    if (!on_disjunct(d)) return RewriteEnumeration::kStopped;
  }
  return RewriteEnumeration::kSaturated;
}

}  // namespace omqc
