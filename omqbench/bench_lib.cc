#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/string_util.h"
#include "core/frontend.h"

namespace omqbench {

using omqc::ContainmentOutcome;
using omqc::StrCat;
using omqc::RequestType;
using omqc::TgdClass;

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

Tail PercentileIfSupported(const std::vector<double>& samples, double level) {
  Tail tail;
  tail.samples = samples.size();
  double beyond = static_cast<double>(samples.size()) * (1 - level / 100);
  // A hair of slack so 1000 samples support p99 despite rounding.
  if (beyond + 1e-9 < 10) return tail;
  tail.level = level;
  tail.value = Quantile(samples, level / 100);
  return tail;
}

Tail HighestSupportedPercentile(const std::vector<double>& samples) {
  for (double level : {99.9, 99.0, 90.0, 50.0}) {
    Tail tail = PercentileIfSupported(samples, level);
    if (tail.level != 0) return tail;
  }
  Tail none;
  none.samples = samples.size();
  return none;
}

// ---------------------------------------------------------------------------

ContainmentOutcome ReversePolarity(const omqc::Scenario& scenario) {
  const omqc::ConjunctiveQuery* q2 = nullptr;
  for (const omqc::NamedQuery& named : scenario.program.queries) {
    if (named.name == omqc::kRhsQuery) q2 = &named.query;
  }
  if (q2 == nullptr || q2->answer_vars.empty()) {
    return ContainmentOutcome::kUnknown;
  }
  for (const omqc::Atom& atom : q2->body) {
    if (atom.predicate.name() == "Probe" && atom.args.size() == 1 &&
        atom.args[0] == q2->answer_vars[0]) {
      return ContainmentOutcome::kContained;
    }
  }
  return ContainmentOutcome::kNotContained;
}

namespace {

const char* ClassTag(TgdClass klass) {
  switch (klass) {
    case TgdClass::kLinear:
      return "linear";
    case TgdClass::kSticky:
      return "sticky";
    case TgdClass::kNonRecursive:
      return "non-recursive";
    case TgdClass::kGuarded:
      return "guarded";
    default:
      return "general";
  }
}

/// The generator's own class check, done once per program; a program that
/// misses its target fails every classify op on it.
bool TargetHolds(const omqc::Scenario& scenario) {
  return omqc::SatisfiesClass(scenario.program.tgds, scenario.spec.tgd_class);
}

}  // namespace

BenchProgram MakeBenchProgram(const omqc::ScenarioSpec& spec) {
  omqc::Scenario scenario = omqc::MakeScenario(spec);
  BenchProgram out;
  out.spec = spec;
  out.text = std::move(scenario.program_text);
  out.target = TargetHolds(scenario) ? spec.tgd_class : TgdClass::kGeneral;
  out.forward = scenario.expected;
  out.reverse = ReversePolarity(scenario);
  out.witness_tuple = scenario.witness_tuple;
  out.witness = StrCat(
      "(",
      omqc::JoinMapped(scenario.witness_tuple, ", ",
                       [](const omqc::Term& t) { return t.ToString(); }),
      ")");
  for (omqc::TileKind kind : scenario.tiles) {
    if (kind == omqc::TileKind::kWalk) ++out.walk_tiles;
  }
  return out;
}

omqc::ScenarioSpec ShapedSpec(uint64_t seed, uint64_t index) {
  omqc::ScenarioSpec spec = omqc::SpecForIndex(seed, index);
  spec.length = 4;
  spec.width = 2;
  spec.walk_depth = 2;
  spec.decoy_tiles = 1;
  return spec;
}

void AppendProgramOps(uint32_t program, std::vector<Op>* ops) {
  ops->push_back({RequestType::kContain, program, omqc::kLhsQuery,
                  omqc::kRhsQuery});
  ops->push_back({RequestType::kContain, program, omqc::kRhsQuery,
                  omqc::kLhsQuery});
  ops->push_back({RequestType::kEval, program, omqc::kLhsQuery, ""});
  ops->push_back({RequestType::kClassify, program, "", ""});
}

const std::vector<Cell>& CorpusCells() {
  static const std::vector<Cell> cells = {
      {TgdClass::kLinear, true, 0, 15},
      {TgdClass::kLinear, false, 0, 13},
      {TgdClass::kSticky, true, 0, 14},
      {TgdClass::kSticky, false, 0, 11},
      {TgdClass::kNonRecursive, true, 0, 14},
      {TgdClass::kNonRecursive, false, 0, 11},
      {TgdClass::kGuarded, true, 1, 1},
      {TgdClass::kGuarded, true, 2, 12},
      {TgdClass::kGuarded, false, 0, 9},
  };
  return cells;
}

namespace {

int CellOf(const BenchProgram& p, const std::vector<Cell>& cells) {
  for (size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    if (cell.klass != p.spec.tgd_class || cell.contained != p.spec.contained) {
      continue;
    }
    if (cell.walks != 0 && cell.walks != std::min(p.walk_tiles, 2)) continue;
    return static_cast<int>(c);
  }
  return -1;
}

/// Slot order of one deck: at every prefix, each cell has had its share
/// rounded down or up, so a run cut mid-deck still sees the mix.
std::vector<int> DeckOrder(const std::vector<Cell>& cells) {
  int total = 0;
  for (const Cell& c : cells) total += c.per_deck;
  std::vector<int> taken(cells.size(), 0), order;
  for (int t = 1; t <= total; ++t) {
    int best = -1;
    double best_lag = -1e9;
    for (size_t c = 0; c < cells.size(); ++c) {
      if (taken[c] >= cells[c].per_deck) continue;
      double lag = cells[c].per_deck * static_cast<double>(t) / total -
                   taken[c];
      if (lag > best_lag) {
        best_lag = lag;
        best = static_cast<int>(c);
      }
    }
    ++taken[best];
    order.push_back(best);
  }
  return order;
}

}  // namespace

std::vector<BenchProgram> StratifiedPrograms(uint64_t seed, size_t count) {
  const std::vector<Cell>& cells = CorpusCells();
  std::vector<int> order = DeckOrder(cells);
  std::vector<std::vector<BenchProgram>> pending(cells.size());
  std::vector<size_t> next(cells.size(), 0);
  std::vector<BenchProgram> out;
  out.reserve(count);
  uint64_t index = 0;
  while (out.size() < count) {
    int cell = order[out.size() % order.size()];
    while (next[cell] == pending[cell].size()) {
      BenchProgram p = MakeBenchProgram(ShapedSpec(seed, index++));
      int c = CellOf(p, cells);
      if (c >= 0) pending[c].push_back(std::move(p));
    }
    out.push_back(std::move(pending[cell][next[cell]++]));
  }
  return out;
}

RequestSet HotRequests(uint64_t seed) {
  struct Slot {
    TgdClass klass;
    bool contained;
    ContainmentOutcome reverse;
  };
  // A refuted containment stops its enumeration early, and a stopped
  // enumeration is never cached, so it recompiles on every call. Only the
  // two linear slots refute one containment each (Q2 ⊆ Q1, then Q1 ⊆ Q2);
  // every other containment holds. So two ops in 16 recompile, both on
  // small linear rewritings, for every seed.
  const Slot slots[] = {
      {TgdClass::kLinear, true, ContainmentOutcome::kNotContained},
      {TgdClass::kSticky, true, ContainmentOutcome::kContained},
      {TgdClass::kNonRecursive, true, ContainmentOutcome::kContained},
      {TgdClass::kLinear, false, ContainmentOutcome::kContained}};
  RequestSet set;
  uint64_t index = 0;
  for (int copy = 0; copy < kHotCopies; ++copy) {
    for (const Slot& slot : slots) {
      BenchProgram p;
      do {
        omqc::ScenarioSpec spec = ShapedSpec(seed, index++);
        spec.tgd_class = slot.klass;
        spec.contained = slot.contained;
        p = MakeBenchProgram(spec);
      } while (p.reverse != slot.reverse);
      AppendProgramOps(static_cast<uint32_t>(set.programs.size()), &set.ops);
      set.programs.push_back(std::move(p));
    }
  }
  return set;
}

std::string DescribeRequestSet(const RequestSet& set) {
  std::string out;
  for (const BenchProgram& p : set.programs) {
    out += StrCat("program ", p.spec.ToString(), " forward=",
                  omqc::ContainmentOutcomeToString(p.forward), " reverse=",
                  omqc::ContainmentOutcomeToString(p.reverse), " witness=",
                  p.witness, "\n", p.text, "\n");
  }
  for (const Op& op : set.ops) {
    out += StrCat("op ", omqc::RequestTypeToString(op.type), " ", op.program,
                  " ", op.query, " ", op.query2, "\n");
  }
  return out;
}

// ---------------------------------------------------------------------------

namespace {

/// The verdict a contain body reports ("Q1 ⊆ Q2: CONTAINED").
bool ParseVerdict(const std::string& body, ContainmentOutcome* out) {
  std::string line = body.substr(0, body.find('\n'));
  size_t pos = line.rfind(": ");
  if (pos == std::string::npos) return false;
  std::string token = line.substr(pos + 2);
  for (ContainmentOutcome o :
       {ContainmentOutcome::kContained, ContainmentOutcome::kNotContained,
        ContainmentOutcome::kUnknown}) {
    if (token == omqc::ContainmentOutcomeToString(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string CheckBody(const BenchProgram& program, const Op& op,
                      const std::string& body,
                      ContainmentOutcome* contain_outcome) {
  *contain_outcome = ContainmentOutcome::kUnknown;
  switch (op.type) {
    case RequestType::kContain: {
      ContainmentOutcome got;
      if (!ParseVerdict(body, &got)) {
        return StrCat("unparsable contain body: ", body.substr(0, 80));
      }
      *contain_outcome = got;
      ContainmentOutcome expected =
          op.query == omqc::kLhsQuery ? program.forward : program.reverse;
      if (got != ContainmentOutcome::kUnknown && got != expected) {
        return StrCat(op.query, " ⊆ ", op.query2, " answered ",
                      omqc::ContainmentOutcomeToString(got),
                      " but the construction certifies ",
                      omqc::ContainmentOutcomeToString(expected), " (",
                      program.spec.ToString(), ")");
      }
      return "";
    }
    case RequestType::kEval:
      if (body.find(StrCat("\n  ", program.witness, "\n")) ==
          std::string::npos) {
        return StrCat("eval answers miss the certified witness ",
                      program.witness, " (", program.spec.ToString(), ")");
      }
      return "";
    case RequestType::kClassify: {
      const std::string key = "\nclasses: ";
      size_t at = body.find(key);
      if (at == std::string::npos) return "classify body has no classes line";
      size_t from = at + key.size();
      std::string line = body.substr(from, body.find('\n', from) - from);
      std::vector<std::string> tags = omqc::SplitString(line, ',');
      bool named = false;
      for (const std::string& tag : tags) {
        if (omqc::StripWhitespace(tag) == ClassTag(program.target)) {
          named = true;
        }
      }
      if (!named) {
        return StrCat("classify names [", line, "], not the target class ",
                      ClassTag(program.spec.tgd_class), " (",
                      program.spec.ToString(), ")");
      }
      return "";
    }
    default:
      return "unexpected request type";
  }
}

UnknownCause ClassifyUnknown(const std::string& detail) {
  auto starts = [&](const char* prefix) { return detail.rfind(prefix, 0) == 0; };
  if (starts("LHS rewriting enumeration hit its budget")) {
    return UnknownCause::kLhsBudget;
  }
  if (starts("RHS evaluation was inconclusive")) {
    return UnknownCause::kRhsInconclusive;
  }
  if (starts("request governor tripped")) return UnknownCause::kGovernor;
  return UnknownCause::kOther;
}

// ---------------------------------------------------------------------------

int64_t SpanRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int32_t SpanRecorder::Begin(uint64_t op, const char* name, int32_t parent) {
  int64_t now = NowNs();
  return Add(op, name, parent, now, now);
}

void SpanRecorder::End(int32_t index) { spans_[index].end_ns = NowNs(); }

int32_t SpanRecorder::Add(uint64_t op, const char* name, int32_t parent,
                          int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{op, parent, name, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::Append(const SpanRecorder& other) {
  int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<double> SpanRecorder::SelfTimesUs(const std::string& name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    int64_t self = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    out.push_back(static_cast<double>(std::max<int64_t>(self, 0)) / 1000.0);
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"spans\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"op\": %llu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_us\": %.3f, \"dur_us\": %.3f}",
                 i == 0 ? "" : ",\n", static_cast<unsigned long long>(s.op),
                 s.name, s.parent, (s.start_ns - t0) / 1000.0,
                 (s.end_ns - s.start_ns) / 1000.0);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace omqbench
