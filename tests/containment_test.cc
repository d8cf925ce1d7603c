// Tests for OMQ containment (Secs. 3-6): the small-witness engine on the
// UCQ-rewritable classes, the guarded semi-procedure and cross-language
// combinations.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "core/containment.h"
#include "logic/homomorphism.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

Schema S(std::initializer_list<std::pair<const char*, int>> preds) {
  Schema s;
  for (const auto& [name, arity] : preds) {
    s.Add(Predicate::Get(name, arity));
  }
  return s;
}

Omq MakeOmq(Schema schema, const std::string& tgds,
            const std::string& query) {
  return Omq{std::move(schema), ParseTgds(tgds).value(),
             ParseQuery(query).value()};
}

// ---------- No ontology: classical (U)CQ containment. ----------

TEST(ContainmentTest, PlainCQContainment) {
  Schema schema = S({{"R", 2}});
  Omq longer = MakeOmq(schema, "", "Q(X) :- R(X,Y), R(Y,Z)");
  Omq shorter = MakeOmq(schema, "", "Q(X) :- R(X,Y)");
  auto forward = CheckContainment(longer, shorter);
  ASSERT_TRUE(forward.ok()) << forward.status().ToString();
  EXPECT_EQ(forward->outcome, ContainmentOutcome::kContained);

  auto backward = CheckContainment(shorter, longer);
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(backward->outcome, ContainmentOutcome::kNotContained);
  ASSERT_TRUE(backward->witness.has_value());
  // The witness is a counterexample: one R edge, no 2-path.
  EXPECT_EQ(backward->witness->database.size(), 1u);
}

// ---------- Linear LHS (Sec. 4.1). ----------

TEST(ContainmentTest, LinearOntologyMakesQueriesComparable) {
  // Σ: T ⊑ P. Q1 asks for T(x), Q2 for P(x): Q1 ⊆ Q2 but not conversely.
  Schema schema = S({{"P", 1}, {"T", 1}});
  Omq q1 = MakeOmq(schema, "T(X) -> P(X).", "Q(X) :- T(X)");
  Omq q2 = MakeOmq(schema, "T(X) -> P(X).", "Q(X) :- P(X)");
  EXPECT_EQ(CheckContainment(q1, q2)->outcome,
            ContainmentOutcome::kContained);
  EXPECT_EQ(CheckContainment(q2, q1)->outcome,
            ContainmentOutcome::kNotContained);
}

TEST(ContainmentTest, PaperExample1Equivalence) {
  // From Example 1: Q = (S, Σ, ∃y R(x,y) ∧ P(y)) is equivalent to the
  // rewriting P(x) ∨ T(x) — here checked against the OMQ with query P(x),
  // which contains Q... and conversely Q covers P(x) because P(x) chases
  // to R(x,·) ∧ P(·).
  Schema schema = S({{"P", 1}, {"T", 1}});
  const std::string sigma =
      "P(X) -> R(X,Y). R(X,Y) -> P(Y). T(X) -> P(X).";
  Omq q = MakeOmq(schema, sigma, "Q(X) :- R(X,Y), P(Y)");
  Omq p = MakeOmq(schema, sigma, "Q(X) :- P(X)");
  auto equivalence = CheckEquivalence(q, p);
  ASSERT_TRUE(equivalence.ok());
  EXPECT_EQ(equivalence->outcome, ContainmentOutcome::kContained);
}

TEST(ContainmentTest, DifferentOntologiesSameQuery) {
  // Q1's ontology derives more: containment holds one way only.
  Schema schema = S({{"A", 1}, {"B", 1}});
  Omq q1 = MakeOmq(schema, "A(X) -> P(X).", "Q(X) :- P(X)");
  Omq q2 = MakeOmq(schema, "A(X) -> P(X). B(X) -> P(X).", "Q(X) :- P(X)");
  EXPECT_EQ(CheckContainment(q1, q2)->outcome,
            ContainmentOutcome::kContained);
  EXPECT_EQ(CheckContainment(q2, q1)->outcome,
            ContainmentOutcome::kNotContained);
}

TEST(ContainmentTest, WitnessSizeObeysProposition12) {
  // Linear LHS: every candidate witness has at most |q1| atoms.
  Schema schema = S({{"R", 2}, {"P", 1}});
  Omq q1 = MakeOmq(schema, "P(X) -> R(X,Y).",
                   "Q(X) :- R(X,Y), R(Y,Z)");
  Omq q2 = MakeOmq(schema, "", "Q(X) :- P(X)");
  auto result = CheckContainment(q1, q2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kNotContained);
  EXPECT_LE(result->max_witness_size, q1.query.size());
}

// ---------- Evaluation vs containment sanity (Props. 5/6 use these). ----

TEST(ContainmentTest, ContainmentImpliesAnswerInclusion) {
  Schema schema = S({{"A", 1}, {"R", 2}});
  Omq q1 = MakeOmq(schema, "A(X) -> B(X).", "Q(X) :- B(X), R(X,Y)");
  Omq q2 = MakeOmq(schema, "A(X) -> B(X).", "Q(X) :- B(X)");
  ASSERT_EQ(CheckContainment(q1, q2)->outcome,
            ContainmentOutcome::kContained);
}

// ---------- Sticky LHS (Sec. 4.3). ----------

TEST(ContainmentTest, StickyLhs) {
  Schema schema = S({{"R", 2}, {"P", 2}});
  const std::string sigma = "R(X,Y), P(X,Z) -> T(X,Y,Z).";
  Omq q1 = MakeOmq(schema, sigma, "Q(X) :- T(X,Y,Z)");
  Omq q2 = MakeOmq(schema, sigma, "Q(X) :- R(X,Y)");
  EXPECT_EQ(CheckContainment(q1, q2)->outcome,
            ContainmentOutcome::kContained);
  EXPECT_EQ(CheckContainment(q2, q1)->outcome,
            ContainmentOutcome::kNotContained);
}

// ---------- Non-recursive LHS (Sec. 4.2). ----------

TEST(ContainmentTest, NonRecursiveLhs) {
  Schema schema = S({{"E", 2}});
  Omq q1 = MakeOmq(schema,
                   "E(X,Y), E(Y,Z) -> Path2(X,Z)."
                   "Path2(X,Z), E(Z,W) -> Path3(X,W).",
                   "Q(X) :- Path3(X,Y)");
  Omq q2 = MakeOmq(schema, "E(X,Y), E(Y,Z) -> Path2(X,Z).",
                   "Q(X) :- Path2(X,Y)");
  EXPECT_EQ(CheckContainment(q1, q2)->outcome,
            ContainmentOutcome::kContained);
  EXPECT_EQ(CheckContainment(q2, q1)->outcome,
            ContainmentOutcome::kNotContained);
}

// ---------- Guarded LHS (Sec. 5). ----------

TEST(ContainmentTest, GuardedLhsContainedSaturates) {
  // Σ: A(x) ∧ R(x,y) → A(y) (guarded, recursive). With q = ∃x A(x) the
  // pruned rewriting saturates: every deeper disjunct is subsumed by A(x).
  Schema schema = S({{"A", 1}, {"R", 2}});
  const std::string sigma = "R(X,Y), A(X) -> A(Y).";
  Omq q1 = MakeOmq(schema, sigma, "Q() :- A(X)");
  Omq q2 = MakeOmq(schema, sigma, "Q() :- A(Y)");
  auto result = CheckContainment(q1, q2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
}

TEST(ContainmentTest, GuardedLhsRefutation) {
  // Reachability of B from an A-node along R: contained in "some B", but
  // not in "some C".
  Schema schema = S({{"A", 1}, {"B", 1}, {"C", 1}, {"R", 2}});
  const std::string sigma = "R(X,Y), A(X) -> A(Y).";
  Omq q1 = MakeOmq(schema, sigma, "Q() :- A(X), B(X)");
  Omq q2 = MakeOmq(schema, sigma, "Q() :- C(X)");
  ContainmentOptions options;
  options.rewrite.max_queries = 200;
  auto result = CheckContainment(q1, q2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kNotContained);
  ASSERT_TRUE(result->witness.has_value());
}

TEST(ContainmentTest, GuardedLhsUnknownAtBudget) {
  // q = A(c) for a constant c: the perfect rewriting is an infinite
  // R-path family with no subsumptions; the engine reports kUnknown.
  Schema schema = S({{"A", 1}, {"R", 2}});
  const std::string sigma = "R(X,Y), A(Y) -> A(X).";
  Omq q1 = MakeOmq(schema, sigma, "Q() :- A(c)");
  // Q2 is literally the same OMQ, so containment holds — but the engine
  // cannot certify it: the enumeration never saturates.
  Omq q2 = MakeOmq(schema, sigma, "Q() :- A(c)");
  ContainmentOptions options;
  options.rewrite.max_queries = 60;
  auto result = CheckContainment(q1, q2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kUnknown);
}

// ---------- Cross-language combinations (Sec. 6). ----------

TEST(ContainmentTest, LinearInGuarded) {
  Schema schema = S({{"A", 1}, {"R", 2}, {"B", 1}});
  Omq linear = MakeOmq(schema, "A(X) -> T(X).", "Q(X) :- T(X)");
  Omq guarded = MakeOmq(schema, "R(X,Y), A(X) -> T(Y). A(X) -> T(X).",
                        "Q(X) :- T(X)");
  auto result = CheckContainment(linear, guarded);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
}

TEST(ContainmentTest, StickyInLinear) {
  Schema schema = S({{"R", 2}, {"P", 2}});
  Omq sticky = MakeOmq(schema, "R(X,Y), P(X,Z) -> T(X). T(X) -> U(X).",
                       "Q(X) :- U(X)");
  Omq linear = MakeOmq(schema, "R(X,Y) -> W(X).", "Q(X) :- W(X)");
  auto result = CheckContainment(sticky, linear);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
}

// ---------- UCQ OMQs. ----------

TEST(ContainmentTest, UcqOmqContainment) {
  Schema schema = S({{"A", 1}, {"B", 1}});
  UcqOmq q1{schema, ParseTgds("A(X) -> P(X).").value(),
            ParseUCQ("Q(X) :- P(X).").value()};
  UcqOmq q2{schema, ParseTgds("A(X) -> P(X). B(X) -> P(X).").value(),
            ParseUCQ("Q(X) :- P(X).").value()};
  auto result = CheckUcqOmqContainment(q1, q2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
  auto backward = CheckUcqOmqContainment(q2, q1);
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(backward->outcome, ContainmentOutcome::kNotContained);
}

TEST(ContainmentTest, ContainmentInPlainUcq) {
  Schema schema = S({{"A", 1}, {"R", 2}});
  Omq q1 = MakeOmq(schema, "A(X) -> R(X,Y).", "Q() :- R(X,Y)");
  UnionOfCQs ucq = ParseUCQ("Q() :- A(X). Q() :- R(X,Y).").value();
  auto result = CheckContainmentInUcq(q1, ucq);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);

  UnionOfCQs smaller = ParseUCQ("Q() :- A(X).").value();
  auto refuted = CheckContainmentInUcq(q1, smaller);
  ASSERT_TRUE(refuted.ok());
  EXPECT_EQ(refuted->outcome, ContainmentOutcome::kNotContained);
}

// ---------- Input validation. ----------

TEST(ContainmentTest, RejectsMismatchedSchemas) {
  Omq q1 = MakeOmq(S({{"R", 2}}), "", "Q(X) :- R(X,Y)");
  Omq q2 = MakeOmq(S({{"P", 1}}), "", "Q(X) :- P(X)");
  EXPECT_FALSE(CheckContainment(q1, q2).ok());
}

TEST(ContainmentTest, RejectsMismatchedArity) {
  Schema schema = S({{"R", 2}});
  Omq q1 = MakeOmq(schema, "", "Q(X) :- R(X,Y)");
  Omq q2 = MakeOmq(schema, "", "Q(X,Y) :- R(X,Y)");
  EXPECT_FALSE(CheckContainment(q1, q2).ok());
}

// ---------- Budget soundness (tri-state homomorphism search). ----------

TEST(ContainmentTest, TinyHomBudgetYieldsUnknownNotRefutation) {
  // Regression: this pair is definitely contained. Before the tri-state
  // homomorphism result, an exhausted step budget looked like "tuple not
  // in answer" and flipped the verdict to kNotContained — it must be
  // kUnknown with an explanation.
  Schema schema = S({{"R", 2}});
  Omq longer = MakeOmq(schema, "", "Q(X) :- R(X,Y), R(Y,Z)");
  Omq shorter = MakeOmq(schema, "", "Q(X) :- R(X,Y)");
  ContainmentOptions options;
  options.eval.hom_max_steps = 1;
  auto result = CheckContainment(longer, shorter, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, ContainmentOutcome::kUnknown);
  EXPECT_FALSE(result->witness.has_value());
  EXPECT_NE(result->detail.find("exhausted"), std::string::npos)
      << result->detail;
  EXPECT_GT(result->stats.budget_exhaustions, 0u);
  EXPECT_GT(result->stats.hom.budget_exhaustions, 0u);

  // With an adequate budget the same pair certifies.
  options.eval.hom_max_steps = 10000;
  auto exact = CheckContainment(longer, shorter, options);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->outcome, ContainmentOutcome::kContained);
}

TEST(ContainmentTest, StatsReportPerLayerWork) {
  Schema schema = S({{"P", 1}, {"T", 1}});
  Omq q1 = MakeOmq(schema, "T(X) -> P(X).", "Q(X) :- T(X)");
  Omq q2 = MakeOmq(schema, "T(X) -> P(X).", "Q(X) :- P(X)");
  auto result = CheckContainment(q1, q2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
  EXPECT_EQ(result->stats.disjuncts_checked, result->candidates_checked);
  EXPECT_EQ(result->stats.witnesses_rejected, result->candidates_checked);
  EXPECT_GT(result->stats.hom.searches, 0u);
  EXPECT_GT(result->stats.rewrite.queries_generated, 0u);
  EXPECT_FALSE(result->stats.ToString().empty());
}

// ---------- Frozen-constant pool under the parallel engine. ----------

TEST(ContainmentTest, ThreadedEngineAgreesWithSerialOnFrozenCandidates) {
  // Every LHS rewriting disjunct is frozen into the same pool prefix; the
  // workers check those databases concurrently, each RHS under a guarded
  // Σ2 whose evaluation freezes again inside the worker (XRewrite's
  // minimization and subsumption pruning).
  Schema schema = S({{"Edge", 2}, {"Conn", 2}});
  const std::string chain =
      "Q(X0) :- Conn(X0,X1), Conn(X1,X2), Conn(X2,X3), Conn(X3,X4)";
  Omq lhs = MakeOmq(schema, "Edge(X,Y) -> Conn(X,Y).", chain);
  Omq same = MakeOmq(schema, "Edge(X,Y) -> Conn(X,Y).", chain);
  Omq guarded = MakeOmq(
      schema, "Edge(X,Y) -> Conn(X,Y). Conn(X,Y), Edge(Y,X) -> Loop(X,Z).",
      "Q(X0) :- Conn(X0,X1), Conn(X1,X2), Loop(X2,W)");
  for (const Omq* rhs : {&same, &guarded}) {
    ContainmentOptions serial;
    auto expected = CheckContainment(lhs, *rhs, serial);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_NE(expected->outcome, ContainmentOutcome::kUnknown);
    ContainmentOptions parallel;
    parallel.num_threads = 4;
    for (int round = 0; round < 3; ++round) {
      auto result = CheckContainment(lhs, *rhs, parallel);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->outcome, expected->outcome);
      EXPECT_EQ(result->witness.has_value(), expected->witness.has_value());
    }
  }
}

TEST(ContainmentTest, FrozenPoolMembersAgreeAcrossThreads) {
  // Each thread grows its own view of the pool, in a different order, while
  // the others freeze; member i must be the same Term everywhere.
  constexpr size_t kMembers = 64;
  std::vector<std::vector<Term>> seen(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([t, &seen]() {
      std::vector<Term>& out = seen[t];
      out.resize(kMembers);
      for (size_t k = 0; k < kMembers; ++k) {
        size_t i = t % 2 == 0 ? k : kMembers - 1 - k;
        out[i] = FrozenConstant(i);
        ConjunctiveQuery q1 = ParseQuery("Q(X) :- R(X,Y), R(Y,Z)").value();
        ConjunctiveQuery q2 = ParseQuery("Q(X) :- R(X,Y)").value();
        EXPECT_TRUE(CQContainedIn(q1, q2));
        EXPECT_FALSE(CQContainedIn(q2, q1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 1; t < seen.size(); ++t) EXPECT_EQ(seen[t], seen[0]);
  std::set<Term> distinct(seen[0].begin(), seen[0].end());
  EXPECT_EQ(distinct.size(), kMembers);
}

TEST(ContainmentTest, OutcomeToString) {
  EXPECT_STREQ(ContainmentOutcomeToString(ContainmentOutcome::kContained),
               "CONTAINED");
  EXPECT_STREQ(
      ContainmentOutcomeToString(ContainmentOutcome::kNotContained),
      "NOT_CONTAINED");
  EXPECT_STREQ(ContainmentOutcomeToString(ContainmentOutcome::kUnknown),
               "UNKNOWN");
}

}  // namespace
}  // namespace omqc
