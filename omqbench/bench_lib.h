// Building blocks of the omqc end-to-end benchmark: seeded request sets
// drawn from the soak scenario factory, the correctness gate that checks
// every answer against its construction certificate, percentile helpers,
// and an in-memory span recorder for the traced run.
//
// Everything here drives omqc from the outside, through the same public
// functions the CLI and the server call. See NOTES.md for why the
// workloads look the way they do.

#ifndef OMQBENCH_BENCH_LIB_H_
#define OMQBENCH_BENCH_LIB_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/containment.h"
#include "server/wire.h"
#include "soak/scenario.h"
#include "tgd/classify.h"

namespace omqbench {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Statistics.

/// The q-quantile (q in [0, 1]) of `samples` by nearest rank; 0 when empty.
double Quantile(std::vector<double> samples, double q);

/// A percentile together with the sample count it was taken from.
struct Tail {
  double level = 0;  ///< percentile level, e.g. 99 (0 = no level supported)
  double value = 0;
  size_t samples = 0;
};

/// The highest percentile of {50, 90, 99, 99.9} that has at least ten
/// samples beyond it (n * (1 - level/100) >= 10), with its value.
Tail HighestSupportedPercentile(const std::vector<double>& samples);

/// The percentile at `level`, or level 0 when fewer than ten samples lie
/// beyond it.
Tail PercentileIfSupported(const std::vector<double>& samples, double level);

// ---------------------------------------------------------------------------
// Request sets. Every program is a soak scenario (MakeScenario), so each
// answer has a certificate that does not come from the engine under test.

/// One generated program and what its construction certifies.
struct BenchProgram {
  omqc::ScenarioSpec spec;
  std::string text;  ///< the only thing the program under test sees
  omqc::TgdClass target = omqc::TgdClass::kLinear;
  /// Q1 ⊆ Q2, by the scenario's polarity certificate.
  omqc::ContainmentOutcome forward = omqc::ContainmentOutcome::kUnknown;
  /// Q2 ⊆ Q1, by ReversePolarity.
  omqc::ContainmentOutcome reverse = omqc::ContainmentOutcome::kUnknown;
  /// The certified Q1 answer, and as FormatAnswers prints it.
  std::vector<omqc::Term> witness_tuple;
  std::string witness;
  /// Number of guarded-recursion (walk) tiles in the main chain.
  int walk_tiles = 0;
};

/// One request: an operation on one program.
struct Op {
  omqc::RequestType type = omqc::RequestType::kContain;
  uint32_t program = 0;  ///< index into RequestSet::programs
  std::string query;     ///< eval query, or containment LHS
  std::string query2;    ///< containment RHS
};

struct RequestSet {
  std::vector<BenchProgram> programs;
  std::vector<Op> ops;
};

/// Q2 ⊆ Q1 for a scenario, from its construction alone: the scenario's
/// Probe predicate occurs in no tgd head, so Q2 ⊆ Q1 holds exactly when
/// Q2 keeps Q1's Probe atom on its answer variable (then Q1's body maps
/// into Q2's by the identity). Otherwise Q2's frozen rewriting disjuncts
/// carry no Probe fact on the answer and refute Q2 ⊆ Q1.
omqc::ContainmentOutcome ReversePolarity(const omqc::Scenario& scenario);

BenchProgram MakeBenchProgram(const omqc::ScenarioSpec& spec);

/// SpecForIndex(seed, index) at one fixed shape: four tiles of width 2,
/// walks of depth 2, one decoy tile. Class, polarity and the tile stream
/// still come from the seed. Rewriting size grows exponentially with chain
/// length on some tile mixes (a length-6 non-recursive chain can take half
/// a minute to compile), so at the stream's own shapes a handful of
/// scenarios would set every timing; one shape keeps each cell's cost
/// comparable from seed to seed.
omqc::ScenarioSpec ShapedSpec(uint64_t seed, uint64_t index);

/// The four requests the served workloads send per program: contain
/// Q1 ⊆ Q2, contain Q2 ⊆ Q1, eval Q1, classify — adjacent in that order.
void AppendProgramOps(uint32_t program, std::vector<Op>* ops);

/// The class/polarity cells of the corpus and their share per 100
/// scenarios. Guarded contained scenarios are split by whether the chain
/// recurses once (about 1.7 s to burn the rewrite budget) or more (about
/// 0.2 s). The shares follow SpecForIndex's mix (30/25/25/20 linear/
/// sticky/non-recursive/guarded, 55% contained) except inside the guarded
/// contained cells: 13 per 100, of which one recurses once. At the
/// stream's own split (about 6 once, 5 more) the once-recursing scenarios
/// took 85% of a run, so a 30 s run saw only ~250 scenarios and p50/p90
/// moved by 15-25% from seed to seed; with one per deck a run sees ~21
/// scenarios a second. With 13 guarded contained per 100, p90 falls inside
/// the cell that recurses more rather than on its edge.
struct Cell {
  omqc::TgdClass klass;
  bool contained;
  int walks;  ///< guarded contained only: 1 = one walk tile, 2 = two or more
  int per_deck;
};
const std::vector<Cell>& CorpusCells();

/// `count` programs taken in order from the ShapedSpec(seed, ·) stream,
/// interleaved so that every prefix of 100 follows the cell shares above.
std::vector<BenchProgram> StratifiedPrograms(uint64_t seed, size_t count);

/// serve_hot: kHotCopies copies of four program slots (linear, sticky,
/// non-recursive contained; linear not contained), each program with its
/// four ops.
inline constexpr int kHotCopies = 2;
RequestSet HotRequests(uint64_t seed);

/// A byte-stable rendering of a request set (determinism self-test).
std::string DescribeRequestSet(const RequestSet& set);

// ---------------------------------------------------------------------------
// Correctness gate.

/// Checks one response body against the program's certificates. Returns
/// "" when the body is acceptable, else what is wrong. `contain_outcome`
/// receives the reported verdict of a contain op (kUnknown otherwise).
std::string CheckBody(const BenchProgram& program, const Op& op,
                      const std::string& body,
                      omqc::ContainmentOutcome* contain_outcome);

/// The cause of a kUnknown verdict, from the three detail prefixes that
/// core/containment.cc writes.
enum class UnknownCause { kLhsBudget, kRhsInconclusive, kGovernor, kOther };
UnknownCause ClassifyUnknown(const std::string& detail);

// ---------------------------------------------------------------------------
// Tracing. One recorder per thread; spans stay in memory until the end.

struct Span {
  uint64_t op = 0;      ///< shared by every span of one operation
  int32_t parent = -1;  ///< index of the enclosing span in the same recorder
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Opens a span now; returns its index.
  int32_t Begin(uint64_t op, const char* name, int32_t parent = -1);
  void End(int32_t index);
  /// Records a span whose start and end were taken elsewhere.
  int32_t Add(uint64_t op, const char* name, int32_t parent, int64_t start_ns,
              int64_t end_ns);

  void Append(const SpanRecorder& other);

  /// Self time (duration minus the time of direct children) in µs of
  /// every span called `name`.
  std::vector<double> SelfTimesUs(const std::string& name) const;

  /// Writes every span as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  static int64_t NowNs();

  std::vector<Span> spans_;
};

}  // namespace omqbench

#endif  // OMQBENCH_BENCH_LIB_H_
