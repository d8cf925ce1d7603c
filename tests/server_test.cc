// End-to-end tests for the omqc server subsystem (src/server): wire
// protocol round-trips, CLI-identical verdicts across worker pool sizes,
// per-tenant governor isolation (deadline and memory trips never touch
// sibling tenants), concurrent same-program requests sharing one
// compilation through the single-flight artifact store, and chaos: a fault
// in the compiling request must still complete every request with the
// certified verdict or a trip code, and leak no governor charges.

#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "base/fault_injection.h"
#include "core/containment.h"
#include "core/eval.h"
#include "core/frontend.h"
#include "generators/families.h"
#include "server/client.h"
#include "server/wire.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

// ---------- Fixtures ----------

// The university program from tests/integration_test.cc: small, fast and
// exercises eval, containment and classification.
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

// What omqc_cli would print for each request kind, computed through the
// exact same frontend path the server uses (core/frontend.h).
struct ExpectedBodies {
  std::string eval;      // eval FacultyQ
  std::string contain;   // contain TeachersQ ⊆ FacultyQ
  std::string classify;  // classify
};

ExpectedBodies ComputeExpected() {
  auto program = ParseProgram(kUniversityProgram);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Schema schema = InferProgramDataSchema(*program);

  ExpectedBodies expected;
  auto eval_q = SingleQueryNamed(*program, schema, "FacultyQ");
  EXPECT_TRUE(eval_q.ok());
  auto answers = EvalAll(*eval_q, program->facts, EvalOptions());
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  expected.eval = FormatAnswers(*answers);

  auto lhs = SingleQueryNamed(*program, schema, "TeachersQ");
  auto rhs = SingleQueryNamed(*program, schema, "FacultyQ");
  EXPECT_TRUE(lhs.ok() && rhs.ok());
  auto contained = CheckContainment(*lhs, *rhs, ContainmentOptions());
  EXPECT_TRUE(contained.ok()) << contained.status().ToString();
  expected.contain =
      FormatContainmentReport("TeachersQ", "FacultyQ", *contained);

  expected.classify = FormatClassificationReport(program->tgds);
  return expected;
}

// The sticky witness family at n=5 takes ~1s of containment work: slow
// enough that a 50ms deadline reliably trips mid-flight, fast enough that
// the test stays bounded even if the trip were missed entirely.
std::string SlowProgramText() {
  Omq omq = MakeStickyWitnessFamily(5);
  Program program;
  program.tgds = omq.tgds;
  program.queries.push_back({"Q", omq.query});
  return SerializeProgram(program);
}

OmqClient MakeClient(OmqServer& server) {
  auto fd = server.ConnectInProcess();
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  return OmqClient(std::move(*fd));
}

// Completion accounting (tenant counters, governor releases) happens
// after the response is sent, so tests poll for the settled state.
template <typename Pred>
bool WaitFor(Pred pred, std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(2000)) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// ---------- Wire protocol ----------

TEST(WireTest, RequestRoundTrip) {
  WireRequest request;
  request.type = RequestType::kContain;
  request.request_id = 42;
  request.tenant = "tenant-a";
  request.deadline_ms = 250;
  request.max_memory_bytes = 1 << 20;
  request.program = "R(a). Q(X) :- R(X).";
  request.query = "Q";
  request.query2 = "Q2";

  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, RequestType::kContain);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->tenant, "tenant-a");
  EXPECT_EQ(decoded->deadline_ms, 250u);
  EXPECT_EQ(decoded->max_memory_bytes, static_cast<uint64_t>(1 << 20));
  EXPECT_EQ(decoded->program, request.program);
  EXPECT_EQ(decoded->query, "Q");
  EXPECT_EQ(decoded->query2, "Q2");
}

TEST(WireTest, ResponseRoundTrip) {
  WireResponse response;
  response.request_id = 7;
  response.code = StatusCode::kDeadlineExceeded;
  response.message = "deadline exceeded";
  response.body = "3 answer(s):\n";
  response.stats_json = "{}";
  response.admission_wait_us = 1234;

  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_EQ(decoded->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->message, "deadline exceeded");
  EXPECT_EQ(decoded->body, "3 answer(s):\n");
  EXPECT_EQ(decoded->stats_json, "{}");
  EXPECT_EQ(decoded->admission_wait_us, 1234u);
}

// Little-endian field writers for hand-built frames of an older layout.
void AppendLe(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void AppendStr(std::string* out, const std::string& s) {
  AppendLe(out, s.size(), 4);
  out->append(s);
}

TEST(WireTest, PreviousVersionFramesAreRefused) {
  // A version-1 response: it carried u64 batch_id + u32 batch_size ahead
  // of admission_wait_us. Decoding must refuse it, not misread the fields.
  std::string v1_response;
  AppendLe(&v1_response, 1, 1);   // protocol version
  AppendLe(&v1_response, 7, 8);   // request_id
  AppendLe(&v1_response, 0, 1);   // status code kOk
  AppendStr(&v1_response, "");    // message
  AppendStr(&v1_response, "pong");
  AppendStr(&v1_response, "");    // stats_json
  AppendLe(&v1_response, 9, 8);   // batch_id
  AppendLe(&v1_response, 4, 4);   // batch_size
  AppendLe(&v1_response, 1234, 8);
  ASSERT_LT(1, kWireVersion);
  EXPECT_EQ(DecodeResponse(v1_response).status().code(),
            StatusCode::kUnsupported);

  std::string previous_request = EncodeRequest(WireRequest{});
  previous_request[0] = static_cast<char>(kWireVersion - 1);
  EXPECT_EQ(DecodeRequest(previous_request).status().code(),
            StatusCode::kUnsupported);
}

TEST(WireTest, MalformedAndVersionMismatchAreRejected) {
  EXPECT_FALSE(DecodeRequest("").ok());
  EXPECT_FALSE(DecodeRequest("x").ok());
  // Truncated mid-string: a length prefix pointing past the payload end.
  std::string truncated = EncodeRequest(WireRequest{});
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(DecodeRequest(truncated).ok());

  std::string wrong_version = EncodeRequest(WireRequest{});
  wrong_version[0] = static_cast<char>(kWireVersion + 1);
  EXPECT_EQ(DecodeRequest(wrong_version).status().code(),
            StatusCode::kUnsupported);
}

// ---------- Verdicts: CLI-identical across pool sizes ----------

TEST(ServerTest, VerdictsByteIdenticalAcrossWorkerThreads) {
  ExpectedBodies expected = ComputeExpected();
  for (size_t threads : {1u, 2u, 8u}) {
    ServerConfig config;
    config.worker_threads = threads;
    OmqServer server(std::move(config));
    OmqClient client = MakeClient(server);

    auto ping = client.Ping();
    ASSERT_TRUE(ping.ok());
    EXPECT_EQ(ping->body, "pong");

    auto eval = client.Eval(kUniversityProgram, "FacultyQ");
    ASSERT_TRUE(eval.ok()) << eval.status().ToString();
    EXPECT_EQ(eval->code, StatusCode::kOk) << eval->message;
    EXPECT_EQ(eval->body, expected.eval) << "threads=" << threads;
    EXPECT_FALSE(eval->stats_json.empty());

    auto contain =
        client.Contain(kUniversityProgram, "TeachersQ", "FacultyQ");
    ASSERT_TRUE(contain.ok());
    EXPECT_EQ(contain->code, StatusCode::kOk) << contain->message;
    EXPECT_EQ(contain->body, expected.contain) << "threads=" << threads;

    auto classify = client.Classify(kUniversityProgram);
    ASSERT_TRUE(classify.ok());
    EXPECT_EQ(classify->code, StatusCode::kOk) << classify->message;
    EXPECT_EQ(classify->body, expected.classify) << "threads=" << threads;

    server.Shutdown();
  }
}

TEST(ServerTest, ConcurrentMixedLoadAgreesAtEveryPoolSize) {
  ExpectedBodies expected = ComputeExpected();
  for (size_t threads : {1u, 2u, 8u}) {
    ServerConfig config;
    config.worker_threads = threads;
    OmqServer server(std::move(config));

    constexpr int kClients = 6;
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int c = 0; c < kClients; ++c) {
      OmqClient client = MakeClient(server);
      workers.emplace_back(
          [c, &expected, &failures, client = std::move(client)]() mutable {
            for (int i = 0; i < 4; ++i) {
              std::string tenant = "t" + std::to_string(c % 2);
              Result<WireResponse> response =
                  (c + i) % 3 == 0
                      ? client.Eval(kUniversityProgram, "FacultyQ", tenant)
                  : (c + i) % 3 == 1
                      ? client.Contain(kUniversityProgram, "TeachersQ",
                                       "FacultyQ", tenant)
                      : client.Classify(kUniversityProgram, tenant);
              const std::string& want = (c + i) % 3 == 0 ? expected.eval
                                        : (c + i) % 3 == 1
                                            ? expected.contain
                                            : expected.classify;
              if (!response.ok() || response->code != StatusCode::kOk ||
                  response->body != want) {
                failures.fetch_add(1);
              }
            }
          });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0) << "threads=" << threads;
    server.Shutdown();
  }
}

TEST(ServerTest, ClassifyIsAnsweredOnTheSessionThread) {
  // A classify is the compiled program's stored body: it never reaches
  // the pool or a tenant slot, while an eval on the same session does.
  ExpectedBodies expected = ComputeExpected();
  OmqServer server((ServerConfig()));
  OmqClient client = MakeClient(server);
  for (int i = 0; i < 3; ++i) {
    auto classify = client.Classify(kUniversityProgram, "t0");
    ASSERT_TRUE(classify.ok());
    EXPECT_EQ(classify->code, StatusCode::kOk) << classify->message;
    EXPECT_EQ(classify->body, expected.classify);
  }
  EXPECT_EQ(server.admission_stats().submitted, 0u);
  EXPECT_EQ(server.TenantSnapshots().count("t0"), 0u);
  auto eval = client.Eval(kUniversityProgram, "FacultyQ", "t0");
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->body, expected.eval);
  EXPECT_EQ(server.admission_stats().submitted, 1u);
  server.Shutdown();
}

// ---------- Session robustness ----------

TEST(ServerTest, MalformedProgramDoesNotKillTheSession) {
  OmqServer server((ServerConfig()));
  OmqClient client = MakeClient(server);

  auto bad = client.Eval("R(a. this is not DLGP", "Q");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->code, StatusCode::kInvalidArgument);

  auto missing = client.Eval(kUniversityProgram, "NoSuchQuery");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing->code, StatusCode::kOk);

  // The same connection still serves well-formed requests.
  auto good = client.Eval(kUniversityProgram, "FacultyQ");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->code, StatusCode::kOk) << good->message;
}

TEST(ServerTest, MalformedFrameGetsAnErrorAndTheSessionSurvives) {
  OmqServer server((ServerConfig()));
  auto fd = server.ConnectInProcess();
  ASSERT_TRUE(fd.ok());

  std::string wrong_version = EncodeRequest(WireRequest{});
  wrong_version[0] = static_cast<char>(kWireVersion + 1);
  ASSERT_TRUE(WriteFrame(fd->get(), wrong_version).ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd->get(), &payload).ok());
  auto error = DecodeResponse(payload);
  ASSERT_TRUE(error.ok());
  EXPECT_NE(error->code, StatusCode::kOk);

  OmqClient client(std::move(*fd));
  auto ping = client.Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->body, "pong");
  EXPECT_EQ(server.counters().malformed_frames, 1u);
}

// ---------- Tenant isolation ----------

TEST(ServerTest, MemoryTrippedTenantDoesNotDisturbSiblings) {
  ServerConfig config;
  config.worker_threads = 4;
  OmqServer server(std::move(config));

  std::atomic<int> good_failures{0};
  std::thread good_thread([&server, &good_failures]() {
    OmqClient client = MakeClient(server);
    for (int i = 0; i < 5; ++i) {
      auto response = client.Eval(kUniversityProgram, "FacultyQ", "good");
      if (!response.ok() || response->code != StatusCode::kOk) {
        good_failures.fetch_add(1);
      }
    }
  });

  OmqClient greedy = MakeClient(server);
  WireRequest request;
  request.type = RequestType::kEval;
  request.tenant = "greedy";
  request.max_memory_bytes = 1;  // first chase charge trips
  // One extra fact gives this request a chase of its own: on the shared
  // program it could be served the chase the sibling tenant compiled (or
  // wait for it), charging nothing.
  request.program = std::string(kUniversityProgram) + "Professor(knuth).\n";
  request.query = "FacultyQ";
  auto response = greedy.Call(std::move(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kResourceExhausted)
      << response->message;

  good_thread.join();
  EXPECT_EQ(good_failures.load(), 0);

  ASSERT_TRUE(WaitFor([&] {
    auto snapshot = server.TenantSnapshots();
    return snapshot.count("greedy") != 0 &&
           snapshot.at("greedy").counters.memory_trips >= 1;
  }));
  auto snapshot = server.TenantSnapshots();
  EXPECT_EQ(snapshot.at("good").counters.failed, 0u);
  EXPECT_FALSE(snapshot.at("good").tripped);
  server.Shutdown();
}

TEST(ServerTest, DeadlineTrippedTenantDoesNotDisturbSiblings) {
  ServerConfig config;
  config.worker_threads = 4;
  OmqServer server(std::move(config));
  std::string slow_program = SlowProgramText();

  std::atomic<int> fast_failures{0};
  std::thread fast_thread([&server, &fast_failures]() {
    OmqClient client = MakeClient(server);
    for (int i = 0; i < 5; ++i) {
      auto response = client.Eval(kUniversityProgram, "FacultyQ", "fast");
      if (!response.ok() || response->code != StatusCode::kOk) {
        fast_failures.fetch_add(1);
      }
    }
  });

  OmqClient slow = MakeClient(server);
  WireRequest request;
  request.type = RequestType::kContain;
  request.tenant = "slow";
  request.deadline_ms = 50;
  request.program = slow_program;
  request.query = "Q";
  request.query2 = "Q";
  auto response = slow.Call(std::move(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded)
      << response->message;

  fast_thread.join();
  EXPECT_EQ(fast_failures.load(), 0);

  ASSERT_TRUE(WaitFor([&] {
    auto snapshot = server.TenantSnapshots();
    return snapshot.count("slow") != 0 &&
           snapshot.at("slow").counters.deadline_trips >= 1 &&
           snapshot.count("fast") != 0 &&
           snapshot.at("fast").counters.completed == 5;
  }));
  auto snapshot = server.TenantSnapshots();
  EXPECT_EQ(snapshot.at("fast").counters.failed, 0u);
  server.Shutdown();
}

TEST(ServerTest, TrippedTenantGovernorIsReplacedAfterDrain) {
  ServerConfig config;
  config.tenant_quota.memory_quota_bytes = 1;  // every tenant trips fast
  OmqServer server(std::move(config));
  OmqClient client = MakeClient(server);

  auto first = client.Eval(kUniversityProgram, "FacultyQ", "capped");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, StatusCode::kResourceExhausted) << first->message;

  // Throttled, not bricked: once the trip drains the tenant gets a fresh
  // governor (and promptly trips it again — the quota is 1 byte).
  ASSERT_TRUE(WaitFor([&] {
    auto snapshot = server.TenantSnapshots();
    return snapshot.at("capped").counters.governor_resets >= 1 &&
           !snapshot.at("capped").tripped;
  }));
  auto second = client.Eval(kUniversityProgram, "FacultyQ", "capped");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->code, StatusCode::kResourceExhausted);
  server.Shutdown();
}

// ---------- Single-flight compilation ----------

// The value of the first `"key":<number>` in a JSON document (0 if absent).
uint64_t JsonCounter(const std::string& json, const std::string& key) {
  size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + key.size() + 3));
}

// Runs `n` concurrent requests made by `make` on fresh clients of `server`
// and returns their responses (a transport failure fails the test).
template <typename MakeRequest>
std::vector<WireResponse> CallConcurrently(OmqServer& server, int n,
                                           MakeRequest make) {
  std::vector<WireResponse> responses(n);
  std::vector<std::thread> workers;
  for (int i = 0; i < n; ++i) {
    OmqClient client = MakeClient(server);
    workers.emplace_back(
        [i, &make, &responses, client = std::move(client)]() mutable {
          auto response = client.Call(make(i));
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          responses[i] = std::move(*response);
        });
  }
  for (std::thread& w : workers) w.join();
  return responses;
}

WireRequest UniversityContain(int i) {
  WireRequest request;
  request.type = RequestType::kContain;
  request.tenant = "t" + std::to_string(i % 2);
  request.program = kUniversityProgram;
  request.query = "TeachersQ";
  request.query2 = "FacultyQ";
  return request;
}

TEST(ServerTest, ConcurrentSameProgramMissesCompileOnce) {
  ExpectedBodies expected = ComputeExpected();
  // Baseline: one cold containment on a fresh server.
  OmqCacheStats cold;
  uint64_t cold_queries = 0;
  {
    OmqServer baseline((ServerConfig()));
    OmqClient client = MakeClient(baseline);
    auto response = client.Call(UniversityContain(0));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->code, StatusCode::kOk) << response->message;
    cold = baseline.cache()->Stats();
    cold_queries = JsonCounter(response->stats_json, "queries_generated");
    baseline.Shutdown();
  }
  ASSERT_GT(cold.counters.misses, 0u);
  ASSERT_GT(cold_queries, 0u);

  // Four concurrent identical requests on a fresh server: whichever
  // misses first compiles each artifact, the rest wait for it or hit.
  ServerConfig config;
  config.worker_threads = 4;
  OmqServer server(std::move(config));
  constexpr int kRequests = 4;
  std::vector<WireResponse> responses =
      CallConcurrently(server, kRequests, UniversityContain);
  uint64_t queries = 0;
  for (const WireResponse& response : responses) {
    EXPECT_EQ(response.code, StatusCode::kOk) << response.message;
    EXPECT_EQ(response.body, expected.contain);
    queries += JsonCounter(response.stats_json, "queries_generated");
  }

  OmqCacheStats cache = server.cache()->Stats();
  // No artifact was compiled twice: the same inserts, misses and
  // rewriting work as one cold request, and every other lookup was served
  // by the store (directly or after waiting on the compiling request).
  EXPECT_EQ(cache.counters.insertions, cold.counters.insertions);
  EXPECT_EQ(cache.counters.misses, cold.counters.misses);
  EXPECT_EQ(queries, cold_queries);
  EXPECT_EQ(cache.counters.hits + cache.counters.misses,
            cache.counters.lookups);

  // Every request went straight to the pool: one dispatch per request.
  ASSERT_TRUE(WaitFor([&] {
    auto snapshot = server.TenantSnapshots();
    return snapshot.count("t0") != 0 && snapshot.count("t1") != 0 &&
           snapshot.at("t0").counters.completed +
                   snapshot.at("t1").counters.completed ==
               static_cast<uint64_t>(kRequests);
  }));
  AdmissionStats admission = server.admission_stats();
  EXPECT_EQ(admission.submitted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(admission.batches_dispatched, static_cast<uint64_t>(kRequests));
  server.Shutdown();
}

// ---------- Chaos: faults in the compiling request ----------

void ExpectSettled(OmqServer& server, const std::string& tenant) {
  ASSERT_TRUE(WaitFor([&] {
    auto snapshot = server.TenantSnapshots();
    return snapshot.count(tenant) != 0 &&
           snapshot.at(tenant).inflight == 0 &&
           server.governor()->local_charged_bytes() == 0;
  }));
  EXPECT_EQ(server.TenantSnapshots().at(tenant).charged_bytes, 0u);
}

TEST(ServerTest, LeaderFaultsCompleteEveryRequest) {
  // (1) The compiling request's first insert is dropped: it keeps its own
  //     result, the store forgets it, and a waiter compiles again. Every
  //     request still gets the certified verdict.
  {
    ExpectedBodies expected = ComputeExpected();
    ServerConfig config;
    config.worker_threads = 4;
    OmqServer server(std::move(config));
    server.Start();
    FaultPlan plan;
    plan.fail_insert_at = 1;
    FaultInjector injector(plan);
    server.set_fault_injector(&injector);
    std::vector<WireResponse> responses =
        CallConcurrently(server, 4, [](int) {
          WireRequest request = UniversityContain(0);
          request.tenant = "chaos";
          return request;
        });
    EXPECT_TRUE(injector.fired());
    for (const WireResponse& response : responses) {
      EXPECT_EQ(response.code, StatusCode::kOk) << response.message;
      EXPECT_EQ(response.body, expected.contain);
    }
    ExpectSettled(server, "chaos");
    server.set_fault_injector(nullptr);
    server.Shutdown();
  }

  // (2) The compiling request hits its deadline mid-compilation while
  //     three requests without one arrive behind it: it answers with the
  //     trip code, one of the others takes over the compilation, and all
  //     three get the certified verdict.
  std::string slow_program = SlowProgramText();
  std::string certified;
  {
    auto program = ParseProgram(slow_program);
    ASSERT_TRUE(program.ok());
    Schema schema = InferProgramDataSchema(*program);
    auto q = SingleQueryNamed(*program, schema, "Q");
    ASSERT_TRUE(q.ok());
    auto result = CheckContainment(*q, *q, ContainmentOptions());
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->outcome, ContainmentOutcome::kContained);
    certified = FormatContainmentReport("Q", "Q", *result);
  }
  ServerConfig config;
  config.worker_threads = 4;
  OmqServer server(std::move(config));
  auto slow_request = [&slow_program](uint64_t deadline_ms) {
    WireRequest request;
    request.type = RequestType::kContain;
    request.tenant = "chaos";
    request.deadline_ms = deadline_ms;
    request.program = slow_program;
    request.query = "Q";
    request.query2 = "Q";
    return request;
  };
  OmqClient leader_client = MakeClient(server);
  Result<WireResponse> leader = Status::Internal("not run");
  std::thread leader_thread(
      [&] { leader = leader_client.Call(slow_request(150)); });
  ASSERT_TRUE(WaitFor([&] {
    auto snapshot = server.TenantSnapshots();
    return snapshot.count("chaos") != 0 &&
           snapshot.at("chaos").inflight == 1;
  }));
  std::vector<WireResponse> followers = CallConcurrently(
      server, 3, [&slow_request](int) { return slow_request(0); });
  leader_thread.join();
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  EXPECT_EQ(leader->code, StatusCode::kDeadlineExceeded) << leader->message;
  for (const WireResponse& response : followers) {
    EXPECT_EQ(response.code, StatusCode::kOk) << response.message;
    EXPECT_EQ(response.body, certified);
  }
  ExpectSettled(server, "chaos");
  server.Shutdown();
}

// ---------- Shutdown ----------

TEST(ServerTest, ShutdownRequestWakesTheDaemonLoop) {
  OmqServer server((ServerConfig()));
  OmqClient client = MakeClient(server);
  EXPECT_FALSE(
      server.WaitForShutdownRequest(std::chrono::milliseconds(0)));
  auto response = client.Shutdown();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kOk);
  EXPECT_TRUE(
      server.WaitForShutdownRequest(std::chrono::milliseconds(2000)));
  server.Shutdown();
}

// ---------- Tenant concurrency quota ----------

TEST(ServerTest, ConcurrencyQuotaQueuesExcessRequests) {
  ServerConfig config;
  config.worker_threads = 4;
  config.tenant_quota.max_concurrent = 1;
  OmqServer server(std::move(config));

  std::string slow_program = SlowProgramText();
  OmqClient slow_client = MakeClient(server);
  OmqClient fast_client = MakeClient(server);
  OmqClient cold_client = MakeClient(server);

  std::atomic<bool> fast_done{false};
  std::thread slow_thread([&] {
    auto response = slow_client.Contain(slow_program, "Q", "Q", "hot");
    EXPECT_TRUE(response.ok());
    if (response.ok()) {
      EXPECT_EQ(response->code, StatusCode::kOk);
    }
  });
  // The slow request occupies the tenant's only slot...
  ASSERT_TRUE(WaitFor([&] {
    auto snaps = server.TenantSnapshots();
    auto it = snaps.find("hot");
    return it != snaps.end() && it->second.inflight == 1;
  }));
  std::thread fast_thread([&] {
    auto response = fast_client.Eval(kUniversityProgram, "FacultyQ", "hot");
    EXPECT_TRUE(response.ok());
    if (response.ok()) {
      EXPECT_EQ(response->code, StatusCode::kOk);
    }
    fast_done = true;
  });
  // ...so the fast same-tenant request parks in the concurrency queue
  // instead of reaching the pool...
  ASSERT_TRUE(WaitFor([&] {
    auto snaps = server.TenantSnapshots();
    auto it = snaps.find("hot");
    return it != snaps.end() && it->second.queued == 1;
  }));
  EXPECT_FALSE(fast_done.load());
  // ...while a sibling tenant sails through untouched.
  auto cold = cold_client.Eval(kUniversityProgram, "FacultyQ", "cold");
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->code, StatusCode::kOk);
  EXPECT_FALSE(fast_done.load());

  slow_thread.join();
  fast_thread.join();
  ASSERT_TRUE(WaitFor([&] {
    auto snaps = server.TenantSnapshots();
    auto it = snaps.find("hot");
    return it != snaps.end() && it->second.counters.completed == 2;
  }));
  auto snaps = server.TenantSnapshots();
  EXPECT_EQ(snaps.at("hot").counters.queued_requests, 1u);
  EXPECT_EQ(snaps.at("hot").counters.queue_peak, 1u);
  EXPECT_EQ(snaps.at("hot").queued, 0u);
  EXPECT_EQ(snaps.at("cold").counters.queued_requests, 0u);
  server.Shutdown();
}

// ---------- Client retry ----------

TEST(ClientRetryTest, ConnectRetriesUntilTheListenerIsUp) {
  // Reserve an ephemeral port, then release it for the server to claim
  // (SO_REUSEADDR makes the rebind race-free against TIME_WAIT).
  auto reservation = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(reservation.ok()) << reservation.status().ToString();
  auto port = LocalPort(reservation->get());
  ASSERT_TRUE(port.ok());
  reservation->Reset();

  OmqServer server((ServerConfig()));
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto bound = server.ListenAndStart(*port);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  });
  RetryPolicy policy;
  policy.max_attempts = 40;
  policy.initial_backoff_ms = 20;
  policy.max_backoff_ms = 50;
  auto client = OmqClient::Connect("127.0.0.1", *port, policy);
  starter.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto pong = client->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->code, StatusCode::kOk);
  server.Shutdown();
}

TEST(ClientRetryTest, ReconnectsAndResendsAfterAPeerReset) {
  auto listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok());

  std::thread flaky([fd = listener->get()] {
    // First connection: accepted and dropped on the floor.
    auto first = AcceptConnection(fd);
    if (first.ok()) first->Reset();
    // Second connection: speak the protocol for one request.
    auto second = AcceptConnection(fd);
    if (!second.ok()) return;
    std::string payload;
    if (!ReadFrame(second->get(), &payload).ok()) return;
    auto request = DecodeRequest(payload);
    if (!request.ok()) return;
    WireResponse response;
    response.request_id = request->request_id;
    response.body = "pong";
    Status written = WriteFrame(second->get(), EncodeResponse(response));
    (void)written;
  });

  auto client = OmqClient::Connect("127.0.0.1", *port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 5;
  client->set_retry_policy(policy);
  auto pong = client->Ping();
  flaky.join();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->body, "pong");
  EXPECT_EQ(client->retry_counters().reconnects, 1u);
  EXPECT_GE(client->retry_counters().backoffs, 1u);
}

TEST(ClientRetryTest, RetryStopsAtTheRequestDeadline) {
  auto listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok());
  std::thread dropper([fd = listener->get()] {
    // Drop every connection until the listener is shut down.
    for (;;) {
      auto conn = AcceptConnection(fd);
      if (!conn.ok()) return;
      conn->Reset();
    }
  });

  auto client = OmqClient::Connect("127.0.0.1", *port);
  ASSERT_TRUE(client.ok());
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_ms = 30;
  policy.max_backoff_ms = 30;
  client->set_retry_policy(policy);
  WireRequest request;
  request.type = RequestType::kPing;
  request.deadline_ms = 120;
  auto start = std::chrono::steady_clock::now();
  auto response = client->Call(std::move(request));
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_FALSE(response.ok());
  // The deadline bounds the whole retry loop: nowhere near the ~1.5s
  // that 100 attempts at 30ms backoff would take.
  EXPECT_LT(elapsed, 1000);
  EXPECT_LE(client->retry_counters().backoffs, 8u);
  ShutdownSocket(listener->get());
  dropper.join();
}

TEST(ServerTest, StatsEndpointServesTheMetricsDocument) {
  OmqServer server((ServerConfig()));
  OmqClient client = MakeClient(server);
  ASSERT_TRUE(client.Eval(kUniversityProgram, "FacultyQ", "acme").ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->code, StatusCode::kOk);
  EXPECT_NE(stats->body.find("\"server\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"admission\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"cache\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"tenants\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"acme\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"queue_peak\""), std::string::npos);
  server.Shutdown();
}

}  // namespace
}  // namespace omqc
