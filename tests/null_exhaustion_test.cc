// Labeled-null id exhaustion: the fresh-null counter is process-wide and
// never recycled, so a long-lived process can in principle use up the int32
// id space. Once it does, the chase must stop with ResourceExhausted and
// callers must degrade to an error or `unknown`; no wrapped (negative or
// reused) null id may ever reach an instance. Lives in its own binary
// because reserving the id space poisons the counter for the whole
// process.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "chase/chase.h"
#include "core/containment.h"
#include "core/eval.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

constexpr int32_t kMaxId = std::numeric_limits<int32_t>::max();

// A chain that needs one fresh null per step: three nulls in all.
constexpr char kChain[] =
    "R(X) -> S(X,Y). S(X,Y) -> T(Y,Z). T(Y,Z) -> U(Z,W).";

class NullExhaustionTest : public ::testing::Test {
 protected:
  // Leaves exactly two ids (kMaxId - 1 and kMaxId) to hand out. The
  // counter never moves back, so later tests start exhausted anyway.
  static void SetUpTestSuite() { Term::ReserveNullIds(kMaxId - 1); }
};

TEST_F(NullExhaustionTest, ChaseStopsWithResourceExhausted) {
  Database db = ParseDatabase("R(a).").value();
  ChaseResult result = Chase(db, ParseTgds(kChain).value()).value();
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.interrupt.code(), StatusCode::kResourceExhausted)
      << result.interrupt.ToString();
  // The first two steps used the last two ids; the third was refused
  // before any of its head atoms was added.
  EXPECT_EQ(result.steps, 2u);
  EXPECT_EQ(result.instance.size(), 3u);
  EXPECT_EQ(result.instance.IdsWith(Predicate::Get("U", 2)).size(), 0u);
  for (const Atom& atom : result.instance.atoms()) {
    for (const Term& t : atom.args) {
      EXPECT_TRUE(t.valid()) << atom.ToString();
      if (t.IsNull()) {
        EXPECT_GE(t.id(), kMaxId - 1) << atom.ToString();
      }
    }
  }
  // Exhaustion is sticky: the counter is never recycled.
  EXPECT_FALSE(Term::FreshNull().valid());
}

TEST_F(NullExhaustionTest, EvalDegradesToAnError) {
  Schema schema;
  schema.Add(Predicate::Get("R", 1));
  Omq omq{schema, ParseTgds(kChain).value(),
          ParseQuery("Q(X) :- S(X,Y), T(Y,Z), U(Z,W)").value()};
  EvalOptions options;
  options.strategy = EvalOptions::Strategy::kChase;
  Result<bool> answer = EvalTuple(omq, ParseDatabase("R(a).").value(),
                                  {Term::Constant("a")}, options);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(NullExhaustionTest, ContainmentDegradesToUnknown) {
  // Nothing derives V, so a complete chase of the frozen candidate R(c)
  // refutes the containment. That chase needs nulls; with none left it is
  // interrupted, and an incomplete chase cannot certify the refutation.
  Schema schema;
  schema.Add(Predicate::Get("R", 1));
  Omq q1{schema, TgdSet{}, ParseQuery("Q(X) :- R(X)").value()};
  Omq q2{schema, ParseTgds(kChain).value(),
         ParseQuery("Q(X) :- R(X), V(X)").value()};
  ContainmentOptions options;
  options.eval.strategy = EvalOptions::Strategy::kChase;
  Result<ContainmentResult> result = CheckContainment(q1, q2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, ContainmentOutcome::kUnknown);
  EXPECT_FALSE(result->witness.has_value());
}

}  // namespace
}  // namespace omqc
