// Ontology-mediated queries (Sec. 2): Q = (S, Σ, q).

#ifndef OMQC_CORE_OMQ_H_
#define OMQC_CORE_OMQ_H_

#include <memory>
#include <string>

#include "base/status.h"
#include "logic/cq.h"
#include "tgd/classify.h"
#include "tgd/tgd.h"

namespace omqc {

struct CompiledTgds;  // cache/cached_ops.h

/// An OMQ (S, Σ, q) with q a CQ. `data_schema` is the schema the query is
/// evaluated over; Σ and q may use additional predicates.
struct Omq {
  Schema data_schema;
  TgdSet tgds;
  ConjunctiveQuery query;
  /// Σ already compiled (fingerprint and profile), when this OMQ came from
  /// a CompiledProgram (core/frontend.h); null otherwise. A hint only: an
  /// engine entry point uses it after checking it was compiled from
  /// exactly `tgds`, and compiles `tgds` itself otherwise — so editing
  /// `tgds` afterwards is safe.
  std::shared_ptr<const CompiledTgds> compiled_tgds;

  Omq() = default;
  Omq(Schema s, TgdSet t, ConjunctiveQuery q)
      : data_schema(std::move(s)), tgds(std::move(t)), query(std::move(q)) {}

  /// Arity of the answer tuple.
  size_t AnswerArity() const { return query.answer_vars.size(); }

  /// S ∪ sch(Σ): the combined schema.
  Schema CombinedSchema() const {
    return data_schema.Union(tgds.SchemaOf());
  }

  /// The most specific tgd class of the ontology (for dispatch).
  TgdClass OntologyClass() const { return PrimaryClass(tgds); }

  /// ||Q||: symbols in Σ and q.
  size_t SymbolCount() const;

  std::string ToString() const;
};

/// An OMQ whose query is a UCQ (used by Prop. 9's UCQ→CQ transform and by
/// Sec. 6's guarded-vs-rewritable combinations).
struct UcqOmq {
  Schema data_schema;
  TgdSet tgds;
  UnionOfCQs query;

  std::string ToString() const;
};

/// Validates an OMQ: well-formed tgds and query; the data schema must not
/// be empty unless the query body is empty too.
Status ValidateOmq(const Omq& omq);

/// Builds the data schema from everything mentioned in tgd bodies/heads
/// and the query — convenient for tests ("the full schema is the data
/// schema").
Schema FullSchemaOf(const TgdSet& tgds, const ConjunctiveQuery& q);

}  // namespace omqc

#endif  // OMQC_CORE_OMQ_H_
