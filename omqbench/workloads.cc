#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "base/string_util.h"
#include "bench_lib.h"
#include "cache/canonical.h"
#include "cache/omq_cache.h"
#include "core/containment.h"
#include "core/eval.h"
#include "core/frontend.h"
#include "rewrite/xrewrite.h"
#include "server/client.h"
#include "server/server.h"
#include "tgd/classify.h"
#include "tgd/parser.h"

namespace omqbench {
namespace {

using omqc::ContainmentOutcome;
using omqc::RequestType;
using omqc::StrCat;

constexpr size_t kMaxErrors = 5;
/// contain_corpus: scenarios generated per run (fifteen decks of 100,
/// about 60 s of calls); a run that gets through them all starts over,
/// each call still cold.
constexpr size_t kCorpusPrograms = 1500;
/// Traced runs: wall-clock cap on the single-threaded direct replay.
constexpr double kReplaySeconds = 8;
/// Set-ups per run; setup_s is the median of their CPU time (NOTES.md: on
/// serve_hot the wall time of a set-up is mostly the warm-up's admission
/// linger and thread wake-ups, and moved by 65% with the hypervisor's
/// steal; the CPU time is the work done in set-up, which setup_s guards).
constexpr int kSetupRepeats = 7;

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time of the whole process (every thread), in µs. The guest kernel
/// leaves time stolen by the hypervisor out of it.
double ProcessCpuUs() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e6 +
         static_cast<double>(t.tv_nsec) / 1e3;
}

double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Peak resident set, printed but not bounded: on serve_hot it grows with
/// the number of requests served (26 MB after 5 s, 29-56 MB after 30 s),
/// and its spread across seeds was twice the largest bound allowed.
std::string PeakRssNote() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return StrCat("peak_rss_mb = ", static_cast<double>(usage.ru_maxrss) / 1024.0,
                " MB");
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Correctness accounting of one thread.
struct Gate {
  bool correct = true;
  std::vector<std::string> errors;

  /// A wrong answer or a failed op: the run is not correct. A failed op
  /// would otherwise drop out of every timing and of decided_frac, so an
  /// op that errors instead of running slowly would look like a gain.
  void Fail(std::string error) {
    correct = false;
    if (errors.size() < kMaxErrors) errors.push_back(std::move(error));
  }
  void Merge(const Gate& other) {
    correct = correct && other.correct;
    for (const std::string& e : other.errors) {
      if (errors.size() < kMaxErrors) errors.push_back(e);
    }
  }
};

int UnknownIndex(const std::string& detail) {
  return static_cast<int>(ClassifyUnknown(detail));
}

/// Work counters gathered around the direct library calls.
struct LayerTally {
  omqc::EngineStats stats;
  size_t ops = 0;
  size_t contain_ops = 0;
  size_t unknown[4] = {0, 0, 0, 0};  ///< indexed by UnknownCause
  omqc::CacheCounters cache;         ///< per-call caches (contain_corpus)
};

/// Opens a span on construction and closes it on destruction; does
/// nothing without a recorder, so untraced runs pay one branch.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, uint64_t op, const char* name,
            int32_t parent = -1)
      : rec_(rec), index_(rec != nullptr ? rec->Begin(op, name, parent) : -1) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

/// How the direct library calls are configured.
struct LibraryConfig {
  omqc::ContainmentOptions contain;
  omqc::EvalOptions eval;
  /// Shared store, or null for a fresh 1024-entry cache per call (what a
  /// CLI call gets).
  omqc::ArtifactStore* cache = nullptr;
  /// Also time Classify and Q1's rewriting on their own (traced runs).
  bool probes = false;
  /// Eval asks only whether the certified witness is a certain answer
  /// (EvalTuple, as the soak does): a guarded chase may stop at its budget
  /// before it has every answer, but positive answers stay sound.
  bool eval_witness = false;
};

struct LibraryResult {
  double us = 0;
  bool ok = false;
  std::string body;
  bool witness_found = false;  ///< eval_witness only
  std::string error;
};

/// One operation done the way the CLI and the server do it: parse, infer
/// the schema and pick the queries, fingerprint Σ, run the engine, format.
/// The root span "op" covers exactly that; the probes are separate roots
/// of the same op id.
LibraryResult LibraryOp(const BenchProgram& p, const Op& op,
                        const LibraryConfig& config, SpanRecorder* rec,
                        uint64_t op_id, LayerTally* tally) {
  LibraryResult out;
  std::unique_ptr<omqc::OmqCache> own_cache;
  omqc::ContainmentOutcome outcome = ContainmentOutcome::kUnknown;
  std::string detail;
  omqc::EngineStats stats;
  omqc::Program program;
  omqc::Schema schema;
  omqc::Omq q1, q2;
  Clock::time_point t0 = Clock::now();
  {
    SpanScope root(rec, op_id, "op");
    omqc::ArtifactStore* cache = config.cache;
    if (cache == nullptr) {
      own_cache = std::make_unique<omqc::OmqCache>();
      cache = own_cache.get();
    }
    {
      SpanScope s(rec, op_id, "tgd.parse", root.index());
      auto parsed = omqc::ParseProgram(p.text);
      if (!parsed.ok()) {
        out.error = parsed.status().ToString();
        return out;
      }
      program = std::move(*parsed);
    }
    {
      SpanScope s(rec, op_id, "core.frontend", root.index());
      schema = omqc::InferProgramDataSchema(program);
      if (op.type != RequestType::kClassify) {
        auto a = omqc::SingleQueryNamed(program, schema, op.query);
        if (!a.ok()) {
          out.error = a.status().ToString();
          return out;
        }
        q1 = std::move(*a);
      }
      if (op.type == RequestType::kContain) {
        auto b = omqc::SingleQueryNamed(program, schema, op.query2);
        if (!b.ok()) {
          out.error = b.status().ToString();
          return out;
        }
        q2 = std::move(*b);
      }
    }
    {
      SpanScope s(rec, op_id, "cache.fingerprint", root.index());
      omqc::Fingerprint fp = omqc::FingerprintTgdSet(program.tgds);
      (void)fp;
    }
    switch (op.type) {
      case RequestType::kEval: {
        omqc::EvalOptions eopts = config.eval;
        eopts.cache = cache;
        if (config.eval_witness) {
          omqc::Result<bool> found = omqc::Status::Internal("not run");
          {
            SpanScope s(rec, op_id, "core.eval", root.index());
            found = omqc::EvalTuple(q1, program.facts, p.witness_tuple, eopts,
                                    &stats);
          }
          if (!found.ok()) {
            out.error = found.status().ToString();
            out.us = UsBetween(t0, Clock::now());
            return out;
          }
          out.witness_found = *found;
          break;
        }
        omqc::Result<std::vector<std::vector<omqc::Term>>> answers =
            omqc::Status::Internal("not run");
        {
          SpanScope s(rec, op_id, "core.eval", root.index());
          answers = omqc::EvalAll(q1, program.facts, eopts, &stats);
        }
        if (!answers.ok()) {
          out.error = answers.status().ToString();
          return out;
        }
        SpanScope s(rec, op_id, "core.format", root.index());
        out.body = omqc::FormatAnswers(*answers);
        break;
      }
      case RequestType::kContain: {
        omqc::ContainmentOptions copts = config.contain;
        copts.cache = cache;
        omqc::Result<omqc::ContainmentResult> result =
            omqc::Status::Internal("not run");
        {
          SpanScope s(rec, op_id, "core.contain", root.index());
          result = omqc::CheckContainment(q1, q2, copts);
        }
        if (!result.ok()) {
          out.error = result.status().ToString();
          return out;
        }
        outcome = result->outcome;
        detail = result->detail;
        stats = result->stats;
        SpanScope s(rec, op_id, "core.format", root.index());
        out.body = omqc::FormatContainmentReport(op.query, op.query2, *result);
        break;
      }
      case RequestType::kClassify: {
        SpanScope s(rec, op_id, "core.format", root.index());
        out.body = omqc::FormatClassificationReport(program.tgds);
        break;
      }
      default:
        out.error = "unexpected request type";
        return out;
    }
  }
  out.us = UsBetween(t0, Clock::now());
  out.ok = true;

  if (config.probes) {
    if (op.type == RequestType::kClassify) {
      SpanScope s(rec, op_id, "tgd.classify");
      omqc::ClassificationReport report = omqc::Classify(program.tgds);
      (void)report;
    }
    if (op.type == RequestType::kContain) {
      omqc::XRewriteStats xstats;
      SpanScope s(rec, op_id, "rewrite.lhs");
      auto enumerated = omqc::EnumerateRewritings(
          q1.data_schema, q1.tgds, q1.query, config.contain.rewrite,
          [](const omqc::ConjunctiveQuery&) { return true; }, &xstats);
      (void)enumerated;
    }
  }
  if (tally != nullptr) {
    ++tally->ops;
    tally->stats.Merge(stats);
    if (op.type == RequestType::kContain) {
      ++tally->contain_ops;
      if (outcome == ContainmentOutcome::kUnknown) {
        ++tally->unknown[UnknownIndex(detail)];
      }
    }
    if (own_cache != nullptr) tally->cache.Merge(own_cache->Stats().counters);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Served traffic.

/// One completed served request.
struct Sample {
  uint32_t op_index = 0;
  uint64_t op_id = 0;
  RequestType type = RequestType::kContain;
  double us = 0;
  double admission_us = 0;
  double end_s = 0;  ///< completion, seconds after the window opened
  bool ok = false;
  ContainmentOutcome outcome = ContainmentOutcome::kUnknown;
  int unknown_cause = -1;
};

/// One phase of closed-loop traffic: clients take the next op from a
/// shared cursor, so a program's adjacent ops go out together.
struct Window {
  const RequestSet* set = nullptr;
  bool cyclic = false;
  size_t end = 0;  ///< non-cyclic: first op index not to send
  Clock::time_point start;  ///< set by Drive
  Clock::time_point deadline = Clock::time_point::max();
  bool trace = false;
  /// Bodies every repeat of an op must reproduce (serve_hot), or null.
  const std::vector<std::string>* expect_bodies = nullptr;
  /// Warm-up: where to keep each op's first body, or null.
  std::vector<std::string>* record_bodies = nullptr;
};

struct ClientTally {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Gate gate;
  SpanRecorder spans;
};

struct Served {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Gate gate;
  SpanRecorder spans;
  double elapsed_s = 0;
  double cpu_us = 0;  ///< process CPU time over the window
};

void RunClient(omqc::OmqClient* client, const Window& w,
               std::atomic<size_t>* cursor, std::atomic<uint64_t>* op_ids,
               ClientTally* t) {
  const RequestSet& set = *w.set;
  for (;;) {
    if (Clock::now() >= w.deadline) break;
    size_t k = cursor->fetch_add(1, std::memory_order_relaxed);
    if (!w.cyclic && k >= w.end) break;
    const uint32_t idx = static_cast<uint32_t>(k % set.ops.size());
    const Op& op = set.ops[idx];
    const BenchProgram& p = set.programs[op.program];
    omqc::WireRequest request;
    request.type = op.type;
    request.program = p.text;
    request.query = op.query;
    request.query2 = op.query2;
    Sample s;
    s.op_index = idx;
    s.op_id = op_ids->fetch_add(1, std::memory_order_relaxed);
    s.type = op.type;
    ++t->attempted;
    Clock::time_point t0 = Clock::now();
    auto response = client->Call(std::move(request));
    Clock::time_point t1 = Clock::now();
    s.us = UsBetween(t0, t1);
    s.end_s = std::chrono::duration<double>(t1 - w.start).count();
    if (!response.ok()) {
      ++t->failed;
      t->gate.Fail(StrCat("transport: ", response.status().ToString()));
      continue;
    }
    s.admission_us = static_cast<double>(response->admission_wait_us);
    if (w.trace) {
      int32_t root = t->spans.Add(s.op_id, "client.call", -1, Ns(t0), Ns(t1));
      t->spans.Add(s.op_id, "server.admission_wait", root, Ns(t0),
                   Ns(t0) + static_cast<int64_t>(response->admission_wait_us) *
                                1000);
    }
    if (response->code != omqc::StatusCode::kOk) {
      ++t->failed;
      t->gate.Fail(StrCat("server ", omqc::StatusCodeToString(response->code),
                          ": ", response->message));
      continue;
    }
    s.ok = true;
    std::string error = CheckBody(p, op, response->body, &s.outcome);
    if (!error.empty()) t->gate.Fail(std::move(error));
    if (op.type == RequestType::kContain &&
        s.outcome == ContainmentOutcome::kUnknown) {
      size_t eol = response->body.find('\n');
      std::string detail =
          eol == std::string::npos ? "" : response->body.substr(eol + 1);
      s.unknown_cause = UnknownIndex(std::string(omqc::StripWhitespace(detail)));
    }
    if (w.expect_bodies != nullptr && (*w.expect_bodies)[idx] != response->body) {
      t->gate.Fail(StrCat("op ", idx, " (", omqc::RequestTypeToString(op.type),
                          ") answered differently on a repeat"));
    }
    // Each op index is taken once per warm-up pass, so no two clients
    // write the same slot.
    if (w.record_bodies != nullptr) (*w.record_bodies)[idx] = response->body;
    t->samples.push_back(s);
  }
}

Served Drive(std::vector<omqc::OmqClient>& clients, Window w,
             std::atomic<size_t>* cursor, std::atomic<uint64_t>* op_ids) {
  std::vector<ClientTally> tallies(clients.size());
  const double cpu0 = ProcessCpuUs();
  const Clock::time_point start = Clock::now();
  w.start = start;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back(RunClient, &clients[c], std::cref(w), cursor,
                           op_ids, &tallies[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  Served out;
  out.elapsed_s = SecondsSince(start);
  out.cpu_us = ProcessCpuUs() - cpu0;
  for (ClientTally& t : tallies) {
    out.samples.insert(out.samples.end(), t.samples.begin(), t.samples.end());
    out.attempted += t.attempted;
    out.failed += t.failed;
    out.gate.Merge(t.gate);
    out.spans.Append(t.spans);
  }
  return out;
}

std::vector<double> Latencies(const std::vector<Sample>& samples,
                              int type = -1) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.ok && (type < 0 || static_cast<int>(s.type) == type)) {
      out.push_back(s.us);
    }
  }
  return out;
}

/// The set-up a served run measures: inputs, server, connections, warm-up.
struct ServeSetup {
  RequestSet set;
  std::unique_ptr<omqc::OmqServer> server;
  std::vector<omqc::OmqClient> clients;
  std::vector<std::string> bodies;  ///< each op's warm-up response
  Gate gate;
};

std::unique_ptr<ServeSetup> SetUpServe(const RunOptions& o, size_t clients) {
  auto s = std::make_unique<ServeSetup>();
  s->set = HotRequests(o.seed);
  if (o.flip_program >= 0 &&
      static_cast<size_t>(o.flip_program) < s->set.programs.size()) {
    ContainmentOutcome& f = s->set.programs[o.flip_program].forward;
    f = f == ContainmentOutcome::kContained ? ContainmentOutcome::kNotContained
                                            : ContainmentOutcome::kContained;
  }
  s->server = std::make_unique<omqc::OmqServer>(omqc::ServerConfig());
  s->server->Start();
  for (size_t c = 0; c < clients; ++c) {
    auto fd = s->server->ConnectInProcess();
    if (!fd.ok()) {
      s->gate.Fail(StrCat("connect: ", fd.status().ToString()));
      return s;
    }
    s->clients.emplace_back(std::move(*fd));
  }
  Window warm;
  warm.set = &s->set;
  warm.end = s->set.ops.size();
  s->bodies.assign(s->set.ops.size(), "");
  warm.record_bodies = &s->bodies;
  std::atomic<size_t> cursor{0};
  std::atomic<uint64_t> op_ids{0};
  Served warmed = Drive(s->clients, warm, &cursor, &op_ids);
  s->gate.Merge(warmed.gate);
  return s;
}

struct Snapshot {
  omqc::CacheCounters cache;
  omqc::AdmissionStats admission;
};

Snapshot Snap(omqc::OmqServer* server) {
  Snapshot s;
  if (server->cache() != nullptr) s.cache = server->cache()->Stats().counters;
  s.admission = server->admission_stats();
  return s;
}

/// Served end-to-end metrics. The p50s are the median over kWindows equal
/// slices of the run (by completion time) of that slice's median, so a few
/// seconds of contention from outside the benchmark move one slice, not the
/// result. p90_us is taken over the ops of the request set: the 90th
/// percentile of each op's median latency, which is what p90_us is on the
/// corpus too, where every op runs once. Throughput and the per-request
/// tail are printed, not bounded (NOTES.md: they follow the hypervisor's
/// CPU steal, which on a shared 4-vCPU KVM guest moved them by 30-100%).
constexpr int kWindows = 6;

void AddServedEndToEnd(const Served& run, size_t ops, std::vector<Metric>* m,
                       std::vector<std::string>* notes) {
  const double width = run.elapsed_s / kWindows;
  std::vector<Sample> slices[kWindows];
  std::vector<std::vector<double>> per_op(ops);
  size_t contain = 0, decided = 0;
  for (const Sample& s : run.samples) {
    int w = std::min(kWindows - 1, static_cast<int>(s.end_s / width));
    slices[std::max(0, w)].push_back(s);
    if (!s.ok) continue;
    per_op[s.op_index].push_back(s.us);
    if (s.type != RequestType::kContain) continue;
    ++contain;
    if (s.outcome != ContainmentOutcome::kUnknown) ++decided;
  }
  auto p50_of = [&](int type) {
    std::vector<double> per;
    for (const std::vector<Sample>& slice : slices) {
      per.push_back(Quantile(Latencies(slice, type), 0.5));
    }
    return Quantile(per, 0.5);
  };
  std::vector<double> op_medians;
  for (const std::vector<double>& v : per_op) {
    if (!v.empty()) op_medians.push_back(Quantile(v, 0.5));
  }
  std::vector<double> all = Latencies(run.samples);
  m->push_back({"p50_us", p50_of(-1), "us"});
  m->push_back({"p90_us", Quantile(op_medians, 0.9), "us"});
  m->push_back({"contain_p50_us", p50_of(static_cast<int>(RequestType::kContain)),
                "us"});
  m->push_back({"eval_p50_us", p50_of(static_cast<int>(RequestType::kEval)),
                "us"});
  m->push_back({"classify_p50_us",
                p50_of(static_cast<int>(RequestType::kClassify)), "us"});
  m->push_back({"decided_frac", Ratio(decided, contain), "ratio"});
  m->push_back({"cpu_us_per_op", Ratio(run.cpu_us, all.size()), "us"});

  Tail p99 = PercentileIfSupported(all, 99);
  Tail top = HighestSupportedPercentile(all);
  notes->push_back(StrCat("throughput_rps = ", Ratio(all.size(), run.elapsed_s),
                          " 1/s over ", run.elapsed_s, " s"));
  notes->push_back(StrCat("p90_us over ", op_medians.size(),
                          " ops, each the median of its repeats"));
  notes->push_back(StrCat("p99_us = ", Quantile(all, 0.99), " us over ",
                          all.size(), " requests",
                          p99.level == 0 ? " (fewer than 1000: unsupported)"
                                         : ""));
  notes->push_back(StrCat("highest supported percentile: p", top.level, " = ",
                          top.value, " us over ", top.samples, " samples"));
  notes->push_back(StrCat("error_frac = ", Ratio(run.failed, run.attempted),
                          " ratio (", run.failed, " of ", run.attempted, ")"));
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

const std::vector<std::pair<const char*, const char*>>& PerLayerNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"server.admission_wait_us.p50", "us"},
      {"server.admission_wait_us.p99", "us"},
      {"server.batch_size.mean", "count"},
      {"server.residual_us.p50", "us"},
      {"tgd.parse_us.p50", "us"},
      {"tgd.classify_us.p50", "us"},
      {"core.frontend_us.p50", "us"},
      {"core.eval_us.p50", "us"},
      {"core.contain_us.p50", "us"},
      {"core.format_us.p50", "us"},
      {"core.disjuncts_checked", "count/op"},
      {"core.unknown.lhs_budget", "count"},
      {"core.unknown.rhs_inconclusive", "count"},
      {"core.unknown.governor", "count"},
      {"cache.fingerprint_us.p50", "us"},
      {"cache.lookups_per_op", "count/op"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions", "count"},
      {"rewrite.lhs_us.p50", "us"},
      {"rewrite.lhs_share", "ratio"},
      {"rewrite.queries_generated", "count/op"},
      {"rewrite.useful_ratio", "ratio"},
      {"chase.triggers_enumerated", "count/op"},
      {"chase.redundant_ratio", "ratio"},
      {"logic.hom_steps", "count/op"},
      {"logic.hom_pruned_ratio", "ratio"},
      {"automata.states_explored", "count"},
      {"trace.overhead_us", "us"},
  };
  return names;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Per-layer values every workload has: span self times and the engine's
/// work counters from the direct library calls.
void AddLibraryLayers(const SpanRecorder& spans, const LayerTally& t,
                      std::map<std::string, double>* v) {
  auto p50 = [&](const char* name) {
    return Quantile(spans.SelfTimesUs(name), 0.5);
  };
  (*v)["tgd.parse_us.p50"] = p50("tgd.parse");
  (*v)["tgd.classify_us.p50"] = p50("tgd.classify");
  (*v)["core.frontend_us.p50"] = p50("core.frontend");
  (*v)["core.eval_us.p50"] = p50("core.eval");
  (*v)["core.contain_us.p50"] = p50("core.contain");
  (*v)["core.format_us.p50"] = p50("core.format");
  (*v)["cache.fingerprint_us.p50"] = p50("cache.fingerprint");
  (*v)["rewrite.lhs_us.p50"] = p50("rewrite.lhs");
  (*v)["rewrite.lhs_share"] = Ratio(Sum(spans.SelfTimesUs("rewrite.lhs")),
                                    Sum(spans.SelfTimesUs("core.contain")));
  const omqc::EngineStats& s = t.stats;
  double ops = static_cast<double>(t.ops);
  (*v)["core.disjuncts_checked"] = Ratio(s.disjuncts_checked, t.contain_ops);
  (*v)["core.unknown.lhs_budget"] = t.unknown[0];
  (*v)["core.unknown.rhs_inconclusive"] = t.unknown[1];
  (*v)["core.unknown.governor"] = t.unknown[2];
  (*v)["cache.lookups_per_op"] = Ratio(s.cache.lookups, ops);
  double generated = s.rewrite.queries_generated;
  (*v)["rewrite.queries_generated"] = Ratio(generated, ops);
  (*v)["rewrite.useful_ratio"] =
      Ratio(generated,
            generated + s.rewrite.dedup_hits + s.rewrite.subsumption_prunes);
  (*v)["chase.triggers_enumerated"] = Ratio(s.chase_triggers_enumerated, ops);
  (*v)["chase.redundant_ratio"] = Ratio(s.chase_redundant_triggers_skipped,
                                        s.chase_triggers_enumerated);
  (*v)["logic.hom_steps"] = Ratio(s.hom.steps, ops);
  (*v)["logic.hom_pruned_ratio"] =
      Ratio(s.hom.candidates_pruned_by_intersection,
            s.hom.candidates_scanned + s.hom.candidates_pruned_by_intersection);
  (*v)["automata.states_explored"] = s.automata.states_explored;
}

void EmitPerLayer(const std::map<std::string, double>& values,
                  std::vector<Metric>* m) {
  for (const auto& [name, unit] : PerLayerNames()) {
    auto it = values.find(name);
    m->push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
}

size_t DefaultClients() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 4 : n;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::string SetupNote(const std::vector<double>& setups) {
  return StrCat("setup_s is the median CPU time of ", setups.size(),
                " set-ups (",
                *std::min_element(setups.begin(), setups.end()), " to ",
                *std::max_element(setups.begin(), setups.end()), " s)");
}

RunReport RunServe(const RunOptions& o) {
  RunReport report;
  const size_t clients = DefaultClients();

  std::vector<double> setups;
  std::unique_ptr<ServeSetup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup.reset();  // the previous repetition's server shuts down first
    const double cpu0 = ProcessCpuUs();
    setup = SetUpServe(o, clients);
    setups.push_back((ProcessCpuUs() - cpu0) / 1e6);
    if (!setup->gate.correct || setup->clients.size() != clients) break;
  }
  Gate gate = setup->gate;
  if (setup->clients.size() != clients) {
    report.correct = false;
    report.errors = gate.errors;
    return report;
  }

  Window w;
  w.set = &setup->set;
  w.cyclic = true;
  w.expect_bodies = &setup->bodies;
  std::atomic<size_t> cursor{0};
  std::atomic<uint64_t> op_ids{1};

  const double window_s = o.trace ? o.seconds / 2 : o.seconds;
  w.deadline = After(window_s);
  Served untraced = Drive(setup->clients, w, &cursor, &op_ids);
  gate.Merge(untraced.gate);
  report.attempted += untraced.attempted;
  report.failed += untraced.failed;

  if (!o.trace) {
    AddServedEndToEnd(untraced, setup->set.ops.size(), &report.metrics,
                      &report.notes);
    report.metrics.push_back({"setup_s", Median(setups), "s"});
    report.notes.push_back(PeakRssNote());
    report.notes.push_back(SetupNote(setups));
    report.correct = gate.correct;
    report.errors = gate.errors;
    return report;
  }

  // Traced window: same traffic, client spans on.
  Snapshot before = Snap(setup->server.get());
  w.trace = true;
  w.deadline = After(window_s);
  Served traced = Drive(setup->clients, w, &cursor, &op_ids);
  Snapshot after = Snap(setup->server.get());
  gate.Merge(traced.gate);
  report.attempted += traced.attempted;
  report.failed += traced.failed;

  // Direct replay on one thread, against a warm store like the server's.
  SpanRecorder replay;
  LayerTally tally;
  omqc::OmqCache store;
  LibraryConfig lib;
  lib.cache = &store;
  lib.probes = true;
  std::map<uint32_t, std::vector<double>> replay_us;  // op index -> times
  Clock::time_point replay_deadline = After(kReplaySeconds);
  auto replay_one = [&](uint32_t idx, uint64_t op_id, SpanRecorder* rec,
                        LayerTally* t) {
    const Op& op = setup->set.ops[idx];
    LibraryResult r = LibraryOp(setup->set.programs[op.program], op, lib, rec,
                                op_id, t);
    if (!r.ok) {
      gate.Fail(StrCat("replay of op ", idx, ": ", r.error));
      return;
    }
    omqc::ContainmentOutcome outcome;
    std::string error = CheckBody(setup->set.programs[op.program], op, r.body,
                                  &outcome);
    if (!error.empty()) gate.Fail(StrCat("replay: ", error));
    if (rec != nullptr) replay_us[idx].push_back(r.us);
  };
  for (uint32_t idx = 0; idx < setup->set.ops.size(); ++idx) {
    replay_one(idx, 0, nullptr, nullptr);  // warm the store
  }
  uint64_t next_id = op_ids.load();
  for (int round = 0; round < 200 && Clock::now() < replay_deadline; ++round) {
    for (uint32_t idx = 0; idx < setup->set.ops.size(); ++idx) {
      replay_one(idx, next_id++, &replay, &tally);
    }
  }

  std::map<std::string, double> v;
  AddLibraryLayers(replay, tally, &v);
  std::vector<double> waits, residuals;
  size_t unknown_served[4] = {0, 0, 0, 0};
  for (const Sample& s : traced.samples) {
    if (!s.ok) continue;
    waits.push_back(s.admission_us);
    if (s.unknown_cause >= 0) ++unknown_served[s.unknown_cause];
    auto it = replay_us.find(s.op_index);
    if (it != replay_us.end()) {
      residuals.push_back(s.us - s.admission_us - Median(it->second));
    }
  }
  // Served verdicts are the ones users see, so their unknowns count.
  v["core.unknown.lhs_budget"] = unknown_served[0];
  v["core.unknown.rhs_inconclusive"] = unknown_served[1];
  v["core.unknown.governor"] = unknown_served[2];
  v["server.admission_wait_us.p50"] = Quantile(waits, 0.5);
  v["server.admission_wait_us.p99"] = Quantile(waits, 0.99);
  v["server.batch_size.mean"] =
      Ratio(after.admission.submitted - before.admission.submitted,
            after.admission.batches_dispatched -
                before.admission.batches_dispatched);
  v["server.residual_us.p50"] = Quantile(residuals, 0.5);
  double lookups = after.cache.lookups - before.cache.lookups;
  v["cache.hit_ratio"] = Ratio(after.cache.hits - before.cache.hits, lookups);
  v["cache.evictions"] = after.cache.evictions - before.cache.evictions;
  // Client spans are recorded after Call returns, outside the timed call,
  // so on served traffic this is the drift between two windows of the same
  // cyclic traffic, not a tracing cost.
  v["trace.overhead_us"] = Quantile(Latencies(traced.samples), 0.5) -
                           Quantile(Latencies(untraced.samples), 0.5);
  EmitPerLayer(v, &report.metrics);
  report.notes.push_back(StrCat("traced window: ", traced.samples.size(),
                                " requests; direct replay: ", tally.ops,
                                " ops (", residuals.size(),
                                " residual samples)"));
  report.correct = gate.correct;
  report.errors = gate.errors;

  if (!o.trace_path.empty()) {
    traced.spans.Append(replay);
    if (!traced.spans.WriteJson(o.trace_path)) {
      report.notes.push_back(StrCat("could not write ", o.trace_path));
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// contain_corpus.

struct CorpusWindow {
  std::vector<double> contain_us, eval_us, classify_us;
  double contain_cpu_us = 0;  ///< process CPU time of the contain calls
  size_t decided = 0;
  size_t eval_inconclusive = 0;  ///< guarded evals stopped by the chase budget
  uint64_t attempted = 0, failed = 0;
  double elapsed_s = 0;
};

RunReport RunCorpus(const RunOptions& o) {
  RunReport report;
  Gate gate;
  std::vector<double> setups;
  std::vector<BenchProgram> programs;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double cpu0 = ProcessCpuUs();
    programs = StratifiedPrograms(o.seed, kCorpusPrograms);
    setups.push_back((ProcessCpuUs() - cpu0) / 1e6);
  }
  if (o.flip_program >= 0 && static_cast<size_t>(o.flip_program) <
                                 programs.size()) {
    ContainmentOutcome& f = programs[o.flip_program].forward;
    f = f == ContainmentOutcome::kContained ? ContainmentOutcome::kNotContained
                                            : ContainmentOutcome::kContained;
  }

  // The soak's threads1 configuration (soak/differential.cc).
  LibraryConfig lib;
  lib.contain.rewrite.max_queries = 120;
  lib.contain.rewrite.max_steps = 20000;
  lib.contain.rewrite.prune_subsumed = true;
  lib.contain.eval.chase_strategy = omqc::ChaseStrategy::kSemiNaive;
  lib.contain.num_threads = 1;
  lib.eval.chase_strategy = omqc::ChaseStrategy::kSemiNaive;
  lib.eval_witness = true;

  size_t next = 0;
  uint64_t op_id = 1;
  auto run_window = [&](double seconds, SpanRecorder* rec,
                        LayerTally* tally) {
    CorpusWindow w;
    Clock::time_point start = Clock::now();
    Clock::time_point deadline = After(seconds);
    while (Clock::now() < deadline) {
      const BenchProgram& p = programs[next++ % programs.size()];
      std::vector<Op> ops;
      AppendProgramOps(0, &ops);
      ops.erase(ops.begin() + 1);  // the corpus checks Q1 ⊆ Q2 only
      for (const Op& op : ops) {
        ++w.attempted;
        const double cpu0 = ProcessCpuUs();
        LibraryResult r = LibraryOp(p, op, lib, rec, op_id++, tally);
        const double cpu_us = ProcessCpuUs() - cpu0;
        if (!r.ok && op.type == RequestType::kEval &&
            p.spec.tgd_class == omqc::TgdClass::kGuarded &&
            r.error.rfind("RESOURCE_EXHAUSTED", 0) == 0) {
          // The guarded chase stopped at its budget before reaching the
          // witness: eval.h's inexact answer, the counterpart of a kUnknown
          // verdict, not a failure.
          ++w.eval_inconclusive;
          w.eval_us.push_back(r.us);
          continue;
        }
        if (!r.ok) {
          ++w.failed;
          gate.Fail(StrCat(p.spec.ToString(), ": ", r.error));
          continue;
        }
        ContainmentOutcome outcome = ContainmentOutcome::kUnknown;
        if (op.type != RequestType::kEval) {
          std::string error = CheckBody(p, op, r.body, &outcome);
          if (!error.empty()) gate.Fail(std::move(error));
        } else if (!r.witness_found) {
          gate.Fail(StrCat("eval rejects the certified witness ", p.witness,
                           " (", p.spec.ToString(), ")"));
        }
        switch (op.type) {
          case RequestType::kContain:
            w.contain_us.push_back(r.us);
            w.contain_cpu_us += cpu_us;
            if (outcome != ContainmentOutcome::kUnknown) ++w.decided;
            break;
          case RequestType::kEval:
            w.eval_us.push_back(r.us);
            break;
          default:
            w.classify_us.push_back(r.us);
            break;
        }
      }
    }
    w.elapsed_s = SecondsSince(start);
    return w;
  };

  const double window_s = o.trace ? o.seconds / 2 : o.seconds;
  const size_t first = next;
  CorpusWindow untraced = run_window(window_s, nullptr, nullptr);
  report.attempted += untraced.attempted;
  report.failed += untraced.failed;

  if (!o.trace) {
    const std::vector<double>& c = untraced.contain_us;
    Tail p90 = PercentileIfSupported(c, 90);
    Tail top = HighestSupportedPercentile(c);
    auto& m = report.metrics;
    m.push_back({"p50_us", Quantile(c, 0.5), "us"});
    m.push_back({"p90_us", Quantile(c, 0.9), "us"});
    // Every op timed here is a contain, so contain_p50_us is p50_us again;
    // it is printed because every workload reports every end-to-end key.
    m.push_back({"contain_p50_us", Quantile(c, 0.5), "us"});
    m.push_back({"eval_p50_us", Quantile(untraced.eval_us, 0.5), "us"});
    m.push_back({"classify_p50_us", Quantile(untraced.classify_us, 0.5), "us"});
    m.push_back({"decided_frac", Ratio(untraced.decided, c.size()), "ratio"});
    m.push_back({"cpu_us_per_op", Ratio(untraced.contain_cpu_us, c.size()),
                 "us"});
    m.push_back({"setup_s", Median(setups), "s"});
    report.notes.push_back(StrCat("throughput_rps = ",
                                  Ratio(c.size(), untraced.elapsed_s),
                                  " 1/s over ", untraced.elapsed_s, " s"));
    report.notes.push_back(PeakRssNote());
    report.notes.push_back(SetupNote(setups));
    report.notes.push_back(StrCat("p90_us rests on ", c.size(), " scenarios",
                                  p90.level == 0
                                      ? " (fewer than 100: unsupported)"
                                      : ""));
    report.notes.push_back(StrCat("highest supported percentile: p",
                                  top.level, " = ", top.value, " us over ",
                                  top.samples, " scenarios"));
    report.notes.push_back(
        StrCat("error_frac = ", Ratio(untraced.failed, untraced.attempted),
               " ratio (", untraced.failed, " of ", untraced.attempted, ")"));
    report.notes.push_back(StrCat("guarded evals stopped by the chase budget: ",
                                  untraced.eval_inconclusive, " of ",
                                  untraced.eval_us.size()));
    report.correct = gate.correct;
    report.errors = gate.errors;
    return report;
  }

  // The traced window replays the untraced window's scenarios from the
  // same start, so trace.overhead_us compares the same calls.
  SpanRecorder spans;
  LayerTally tally;
  lib.probes = true;
  next = first;
  CorpusWindow traced = run_window(window_s, &spans, &tally);
  report.attempted += traced.attempted;
  report.failed += traced.failed;
  std::map<std::string, double> v;
  AddLibraryLayers(spans, tally, &v);
  v["cache.hit_ratio"] = Ratio(tally.cache.hits, tally.cache.lookups);
  v["cache.evictions"] = tally.cache.evictions;
  // Median over the scenarios both windows reached of traced minus
  // untraced time of the same contain call.
  std::vector<double> extra;
  for (size_t i = 0;
       i < std::min(traced.contain_us.size(), untraced.contain_us.size()); ++i) {
    extra.push_back(traced.contain_us[i] - untraced.contain_us[i]);
  }
  v["trace.overhead_us"] = Median(std::move(extra));
  EmitPerLayer(v, &report.metrics);
  report.notes.push_back(StrCat("traced window: ", traced.contain_us.size(),
                                " scenarios; server layers idle (0)"));
  report.correct = gate.correct;
  report.errors = gate.errors;
  if (!o.trace_path.empty() && !spans.WriteJson(o.trace_path)) {
    report.notes.push_back(StrCat("could not write ", o.trace_path));
  }
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_hot",
                                                 "contain_corpus"};
  return names;
}

RunReport RunWorkload(const RunOptions& options) {
  if (options.workload == "serve_hot") return RunServe(options);
  if (options.workload == "contain_corpus") return RunCorpus(options);
  RunReport report;
  report.correct = false;
  report.errors.push_back(StrCat("unknown workload ", options.workload));
  return report;
}

}  // namespace omqbench
