// Compile-once tests: the CompiledProgram handle (core/frontend.h), the
// per-call Σ resolution it feeds (cache/cached_ops.h ResolveTgds), and the
// server's program cache (server/server.h). A handle is only a shortcut:
// bodies through the program cache must be byte-identical to a fresh
// compile with the cache on and off, an Omq whose tgds were edited after
// compile must not use the carried handle, the cache must stay within its
// capacity, never cache a parse error, and compile a text once however
// many clients send it at the same time.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "base/string_util.h"
#include "cache/cached_ops.h"
#include "core/containment.h"
#include "core/eval.h"
#include "core/frontend.h"
#include "logic/substitution.h"
#include "server/client.h"
#include "server/server.h"
#include "soak/scenario.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

constexpr const char* kUniversityProgram = R"(
  Professor(X) -> Faculty(X).
  Lecturer(X) -> Faculty(X).
  Faculty(X) -> WorksFor(X,D), Department(D).
  Teaches(X,C) -> Faculty(X).
  FacultyQ(X) :- Faculty(X).
  TeachersQ(X) :- Teaches(X,C).
  Professor(turing).
  Lecturer(hopper).
  Teaches(turing, computability).
)";

/// A program with every tgd and query variable renamed by `prefix`: a
/// different text, the same program up to renaming.
std::string RenamedProgramText(const std::string& text,
                               const std::string& prefix) {
  Program program = ParseProgram(text).value();
  auto rename = [&prefix](const std::vector<Term>& vars) {
    Substitution s;
    for (const Term& v : vars) {
      s.Bind(v, Term::Variable(prefix + v.ToString()));
    }
    return s;
  };
  for (Tgd& tgd : program.tgds.tgds) {
    std::vector<Term> vars = tgd.BodyVariables();
    for (const Term& v : tgd.HeadVariables()) vars.push_back(v);
    Substitution s = rename(vars);
    tgd = Tgd(s.Apply(tgd.body), s.Apply(tgd.head));
  }
  for (NamedQuery& nq : program.queries) {
    Substitution s = rename(nq.query.Variables());
    nq.query = ConjunctiveQuery(s.Apply(nq.query.answer_vars),
                                s.Apply(nq.query.body));
  }
  return SerializeProgram(program);
}

/// One request of each kind against a program with queries `q1`, `q2`.
std::vector<WireRequest> RequestsFor(const std::string& text,
                                     const std::string& q1,
                                     const std::string& q2) {
  std::vector<WireRequest> requests(4);
  for (WireRequest& r : requests) r.program = text;
  requests[0].type = RequestType::kEval;
  requests[0].query = q1;
  requests[1].type = RequestType::kContain;
  requests[1].query = q1;
  requests[1].query2 = q2;
  requests[2].type = RequestType::kContain;
  requests[2].query = q2;
  requests[2].query2 = q1;
  requests[3].type = RequestType::kClassify;
  return requests;
}

/// The body omqc_cli would print for `request`, from a fresh parse (no
/// compiled handle, no cache) — the reference every served body matches.
std::string FreshBody(const WireRequest& request) {
  Program program = ParseProgram(request.program).value();
  Schema schema = InferProgramDataSchema(program);
  switch (request.type) {
    case RequestType::kEval: {
      Omq omq = SingleQueryNamed(program, schema, request.query).value();
      return FormatAnswers(EvalAll(omq, program.facts).value());
    }
    case RequestType::kContain: {
      Omq q1 = SingleQueryNamed(program, schema, request.query).value();
      Omq q2 = SingleQueryNamed(program, schema, request.query2).value();
      return FormatContainmentReport(request.query, request.query2,
                                     CheckContainment(q1, q2).value());
    }
    default:
      return FormatClassificationReport(program.tgds);
  }
}

/// Small non-guarded scenarios of every decidable class and both
/// polarities, plus the university program.
std::vector<std::vector<WireRequest>> HotSet() {
  std::vector<std::vector<WireRequest>> set;
  set.push_back(RequestsFor(kUniversityProgram, "TeachersQ", "FacultyQ"));
  const TgdClass classes[] = {TgdClass::kLinear, TgdClass::kSticky,
                              TgdClass::kNonRecursive};
  uint64_t seed = 1;
  for (TgdClass c : classes) {
    for (bool contained : {true, false}) {
      ScenarioSpec spec;
      spec.seed = seed++;
      spec.tgd_class = c;
      spec.length = 3;
      spec.decoy_tiles = 1;
      spec.contained = contained;
      set.push_back(
          RequestsFor(MakeScenario(spec).program_text, "Q1", "Q2"));
    }
  }
  return set;
}

OmqClient MakeClient(OmqServer& server) {
  auto fd = server.ConnectInProcess();
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  return OmqClient(std::move(*fd));
}

WireResponse CallOk(OmqClient& client, const WireRequest& request) {
  auto response = client.Call(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return WireResponse();
  EXPECT_EQ(response->code, StatusCode::kOk) << response->message;
  return std::move(*response);
}

ServerConfig WithCapacity(size_t capacity) {
  ServerConfig config;
  config.worker_threads = 2;
  config.cache_capacity = capacity;
  return config;
}

// ---------- The compiled handle ----------

TEST(CompiledProgramTest, HandleMatchesTheUncompiledPath) {
  auto compiled = CompileProgram(kUniversityProgram);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const CompiledProgram& program = **compiled;
  const TgdSet& tgds = program.program.tgds;
  EXPECT_EQ(program.classification, FormatClassificationReport(tgds));
  EXPECT_EQ(program.schema.predicates(),
            InferProgramDataSchema(program.program).predicates());
  ASSERT_NE(program.tgds, nullptr);
  EXPECT_EQ(program.tgds->fingerprint, FingerprintTgdSet(tgds));
  ASSERT_TRUE(program.tgds->profile.has_value());
  EXPECT_EQ(program.tgds->profile->primary, PrimaryClass(tgds));

  auto omq = program.Query("FacultyQ");
  ASSERT_TRUE(omq.ok());
  EXPECT_EQ(omq->compiled_tgds, program.tgds);
  EXPECT_FALSE(program.Query("NoSuchQ").ok());
  EXPECT_FALSE(CompileProgram("Q(X) :- ").ok());
}

TEST(CompiledProgramTest, OnePreferenceOrderForEveryClassView) {
  const char* ontologies[] = {
      "",                                          // empty
      "R(X,Y) -> P(Y).",                           // linear
      "R(X,Y), P(Y) -> T(X,Y). T(X,Y) -> U(X).",   // non-recursive
      "R(X,Y), A(Y) -> A(X). A(X) -> R(X,Y).",     // guarded
      "R(X,Y), R(Y,Z) -> R(X,Z).",                 // full, recursive
      "R(X,Y), S(Y,Z) -> S(X,W). S(X,Y) -> R(Y,X).",
  };
  for (const char* text : ontologies) {
    TgdSet tgds = ParseTgds(text).value();
    ClassificationReport full = Classify(tgds);
    TgdClass primary = PrimaryClassOf(full);
    EXPECT_EQ(PrimaryClassOf(ClassifyForDispatch(tgds)), primary) << text;
    EXPECT_EQ(PrimaryClass(tgds), primary) << text;
    EXPECT_EQ(TgdProfileOf(full).primary, primary) << text;
    EXPECT_EQ(GetTgdProfile(nullptr, tgds).primary, primary) << text;
  }
}

// A handle is used only for the exact tgd set it was compiled from.
TEST(CompiledProgramTest, EditedTgdsDoNotUseTheCarriedHandle) {
  auto compiled = CompileProgram(kUniversityProgram);
  ASSERT_TRUE(compiled.ok());
  Omq lhs = (*compiled)->Query("TeachersQ").value();
  Omq rhs = (*compiled)->Query("FacultyQ").value();

  // Warm a shared cache with the unedited program's artifacts.
  OmqCache cache;
  ContainmentOptions options;
  options.cache = &cache;
  auto before = CheckContainment(lhs, rhs, options);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->outcome, ContainmentOutcome::kContained);

  // Drop "Teaches(X,C) -> Faculty(X)" after compile: teachers are no
  // longer faculty, so the verdict flips — unless a stale handle keyed the
  // edited OMQs to the artifacts compiled above.
  for (Omq* omq : {&lhs, &rhs}) omq->tgds.tgds.pop_back();
  ASSERT_NE(lhs.compiled_tgds, nullptr);
  CompiledTgds resolved = ResolveTgds(lhs.tgds, lhs.compiled_tgds.get());
  EXPECT_EQ(resolved.fingerprint, FingerprintTgdSet(lhs.tgds));
  EXPECT_NE(resolved.fingerprint, lhs.compiled_tgds->fingerprint);
  EXPECT_FALSE(resolved.profile.has_value());

  Omq fresh_lhs = lhs;
  Omq fresh_rhs = rhs;
  fresh_lhs.compiled_tgds = nullptr;
  fresh_rhs.compiled_tgds = nullptr;
  auto expected = CheckContainment(fresh_lhs, fresh_rhs);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(expected->outcome, ContainmentOutcome::kNotContained);
  auto edited = CheckContainment(lhs, rhs, options);
  ASSERT_TRUE(edited.ok());
  EXPECT_EQ(edited->outcome, expected->outcome);
  EXPECT_EQ(FormatContainmentReport("TeachersQ", "FacultyQ", *edited),
            FormatContainmentReport("TeachersQ", "FacultyQ", *expected));

  // Eval and the compiled-from-text route agree as well.
  const Database& facts = (*compiled)->program.facts;
  EvalOptions eval_options;
  eval_options.cache = &cache;
  auto answers = EvalAll(rhs, facts, eval_options);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(FormatAnswers(*answers),
            FormatAnswers(EvalAll(fresh_rhs, facts).value()));
  for (const Term& t : {Term::Constant("turing"), Term::Constant("hopper")}) {
    EXPECT_EQ(EvalTuple(rhs, facts, {t}, eval_options).value(),
              EvalTuple(fresh_rhs, facts, {t}).value());
  }
}

// ---------- The server's program cache ----------

// Bodies through the program cache equal a fresh compile's, on the
// compiling request, on every hit, for renamed copies, and with the cache
// off.
TEST(ProgramCacheTest, BodiesAreByteIdenticalWithTheCacheOnAndOff) {
  std::vector<std::vector<WireRequest>> hot = HotSet();
  for (size_t capacity : {size_t{1024}, size_t{0}}) {
    OmqServer server(WithCapacity(capacity));
    OmqClient client = MakeClient(server);
    for (const auto& requests : hot) {
      std::string renamed = RenamedProgramText(requests[0].program, "Rn");
      ASSERT_NE(renamed, requests[0].program);
      for (WireRequest request : requests) {
        std::string expected = FreshBody(request);
        for (int round = 0; round < 2; ++round) {
          EXPECT_EQ(CallOk(client, request).body, expected)
              << "capacity=" << capacity << " round=" << round << "\n"
              << request.program;
        }
        request.program = renamed;
        EXPECT_EQ(CallOk(client, request).body, FreshBody(request))
            << "capacity=" << capacity << " renamed\n" << renamed;
      }
    }
    ProgramCacheStats stats = server.program_cache_stats();
    if (capacity == 0) {
      EXPECT_EQ(stats.hits + stats.misses, 0u);
      auto doc = client.Stats();
      ASSERT_TRUE(doc.ok());
      EXPECT_EQ(doc->body.find("\"programs\""), std::string::npos);
    } else {
      // Two texts per program, each compiled once.
      EXPECT_EQ(stats.misses, 2 * hot.size());
      EXPECT_EQ(stats.entries, 2 * hot.size());
      // Each program: 4 kinds x (2 rounds + 1 renamed) lookups.
      EXPECT_EQ(stats.hits, 3 * 4 * hot.size() - stats.misses);
      EXPECT_EQ(stats.evictions, 0u);
    }
    server.Shutdown();
  }
}

// More distinct programs than the capacity: the cache stays within
// it, and an evicted program recompiles to the same body.
TEST(ProgramCacheTest, StaysWithinCapacityAndRecompilesEvictedPrograms) {
  constexpr size_t kCapacity = 2;
  OmqServer server(WithCapacity(kCapacity));
  OmqClient client = MakeClient(server);
  std::vector<WireRequest> requests;
  for (int i = 0; i < 5; ++i) {
    WireRequest request;
    request.type = RequestType::kEval;
    request.query = "FacultyQ";
    request.program = StrCat(kUniversityProgram, "Professor(p", i, ").\n");
    requests.push_back(request);
  }
  std::string first_body = CallOk(client, requests[0]).body;
  EXPECT_EQ(first_body, FreshBody(requests[0]));
  for (const WireRequest& request : requests) {
    EXPECT_EQ(CallOk(client, request).body, FreshBody(request));
    EXPECT_LE(server.program_cache_stats().entries, kCapacity);
  }
  ProgramCacheStats stats = server.program_cache_stats();
  EXPECT_EQ(stats.misses, requests.size());
  EXPECT_EQ(stats.evictions, requests.size() - kCapacity);

  // requests[0] was evicted long ago: a miss, compiled again, same body.
  EXPECT_EQ(CallOk(client, requests[0]).body, first_body);
  stats = server.program_cache_stats();
  EXPECT_EQ(stats.misses, requests.size() + 1);
  EXPECT_LE(stats.entries, kCapacity);
  server.Shutdown();
}

// A malformed program is answered kInvalidArgument every time and is
// never cached.
TEST(ProgramCacheTest, MalformedProgramsAreNeverCached) {
  OmqServer server(WithCapacity(8));
  OmqClient client = MakeClient(server);
  WireRequest bad;
  bad.type = RequestType::kEval;
  bad.program = "Q(X) :- R(X,";
  bad.query = "Q";
  for (int i = 0; i < 3; ++i) {
    auto response = client.Call(bad);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
    EXPECT_EQ(response->message.rfind("program: ", 0), 0u)
        << response->message;
  }
  ProgramCacheStats stats = server.program_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  server.Shutdown();
}

// Eight clients sending one program text at once: one compile.
TEST(ProgramCacheTest, ConcurrentClientsOfOneTextCompileItOnce) {
  constexpr int kClients = 8;
  OmqServer server(WithCapacity(16));
  WireRequest request;
  request.type = RequestType::kContain;
  request.query = "TeachersQ";
  request.query2 = "FacultyQ";
  // Enough facts that compiling takes a while, so the requests overlap it.
  request.program = kUniversityProgram;
  for (int i = 0; i < 4000; ++i) {
    request.program += StrCat("Professor(p", i, ").\n");
  }
  const std::string expected = FreshBody(request);
  std::vector<OmqClient> clients;
  for (int i = 0; i < kClients; ++i) clients.push_back(MakeClient(server));
  std::vector<std::string> bodies(kClients);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      bodies[i] = CallOk(clients[i], request).body;
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& body : bodies) EXPECT_EQ(body, expected);
  ProgramCacheStats stats = server.program_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kClients - 1));
  EXPECT_EQ(stats.entries, 1u);
  server.Shutdown();
}

TEST(ProgramCacheTest, StatsDocumentCarriesTheProgramsBlock) {
  OmqServer server(WithCapacity(8));
  OmqClient client = MakeClient(server);
  WireRequest request;
  request.type = RequestType::kClassify;
  request.program = kUniversityProgram;
  CallOk(client, request);
  CallOk(client, request);
  auto doc = client.Stats();
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->body.find("\"programs\":{\"entries\":1,\"hits\":1,"
                           "\"misses\":1,\"evictions\":0}"),
            std::string::npos)
      << doc->body;
  server.Shutdown();
}

}  // namespace
}  // namespace omqc
