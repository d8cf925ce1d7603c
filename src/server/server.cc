#include "server/server.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <list>
#include <unordered_map>
#include <utility>

#include "base/string_util.h"
#include "core/containment.h"
#include "core/eval.h"
#include "core/frontend.h"
#include "core/stats_json.h"

namespace omqc {

using Clock = std::chrono::steady_clock;

/// One client connection. The session thread owns the read side; the
/// write side is shared with pool workers (out-of-order responses) and
/// serialized by `write_mu`. The fd closes when the last holder — session
/// thread or in-flight request — drops its reference.
struct OmqServer::Connection {
  OwnedFd fd;
  std::mutex write_mu;
  std::atomic<bool> broken{false};
};

/// One admitted eval/contain request between its session thread
/// and its pool worker.
struct OmqServer::PendingRequest {
  WireRequest request;
  std::shared_ptr<const CompiledProgram> program;
  TenantLease lease;
  std::shared_ptr<Connection> conn;
  Clock::time_point queued_at;  ///< when Dispatch handed it to the pool
};

/// Bounded LRU from exact program text to its CompiledProgram, with single
/// flight: the first miss on a text compiles it outside the lock and
/// concurrent lookups of that text wait for the result. Keys are the full
/// bytes, so a hit is an exact byte match, never just a hash match. A
/// failed compile (parse error) is handed to its waiters and removed, so
/// it is never cached.
class OmqServer::ProgramCache {
 public:
  using Compiled = Result<std::shared_ptr<const CompiledProgram>>;

  explicit ProgramCache(size_t capacity) : capacity_(capacity) {}

  Compiled Get(const std::string& text) {
    std::unique_lock<std::mutex> lock(mu_);
    auto found = slots_.find(text);
    if (found != slots_.end()) {
      ++stats_.hits;
      order_.splice(order_.begin(), order_, found->second.position);
      std::shared_future<Compiled> compiled = found->second.compiled;
      lock.unlock();
      return compiled.get();
    }
    ++stats_.misses;
    const uint64_t flight = ++flights_;
    std::promise<Compiled> promise;
    auto slot =
        slots_.emplace(text, Slot{promise.get_future().share(), {}, flight})
            .first;
    order_.push_front(&slot->first);
    slot->second.position = order_.begin();
    while (slots_.size() > capacity_) {
      auto victim = slots_.find(*order_.back());
      order_.pop_back();
      slots_.erase(victim);
      ++stats_.evictions;
    }
    lock.unlock();

    Compiled compiled = CompileProgram(text);
    if (!compiled.ok()) {
      lock.lock();
      auto mine = slots_.find(text);
      if (mine != slots_.end() && mine->second.flight == flight) {
        order_.erase(mine->second.position);
        slots_.erase(mine);
      }
      lock.unlock();
    }
    promise.set_value(compiled);
    return compiled;
  }

  ProgramCacheStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    ProgramCacheStats stats = stats_;
    stats.entries = slots_.size();
    return stats;
  }

 private:
  struct Slot {
    std::shared_future<Compiled> compiled;
    std::list<const std::string*>::iterator position;  ///< in order_
    uint64_t flight;  ///< tells a failed leader its own slot from a newer one
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> slots_;
  /// Keys of slots_, most recently used first (map nodes are stable).
  std::list<const std::string*> order_;
  uint64_t flights_ = 0;
  ProgramCacheStats stats_;
};

OmqServer::OmqServer(ServerConfig config)
    : config_(std::move(config)),
      tenants_(&governor_, config_.tenant_quota) {
  if (config_.server_memory_budget_bytes > 0) {
    governor_.set_memory_budget(config_.server_memory_budget_bytes);
  }
  if (config_.cache_capacity > 0) {
    programs_ = std::make_unique<ProgramCache>(config_.cache_capacity);
    OmqCacheConfig cache_config;
    cache_config.capacity = config_.cache_capacity;
    cache_config.num_shards = std::max<size_t>(1, config_.cache_shards);
    if (!config_.cache_dir.empty()) {
      auto store =
          TieredStore::Open(TieredStoreConfig{cache_config, config_.cache_dir});
      if (store.ok()) {
        cache_ = std::move(store).value();
      } else {
        // Persistence is an accelerator, not a dependency: come up
        // memory-only rather than refuse to serve.
        std::fprintf(stderr, "omqc_server: --cache-dir unusable (%s); "
                             "running memory-only\n",
                     store.status().ToString().c_str());
        cache_ = std::make_unique<OmqCache>(cache_config);
      }
    } else {
      cache_ = std::make_unique<OmqCache>(cache_config);
    }
  }
}

OmqServer::~OmqServer() { Shutdown(); }

void OmqServer::Start() {
  // call_once, not an atomic exchange: concurrent first connections must
  // all block until the pipeline exists, or the loser's session thread
  // would race a half-constructed pool.
  std::call_once(start_once_, [this] {
    size_t threads = config_.worker_threads != 0
                         ? config_.worker_threads
                         : ThreadPool::DefaultConcurrency();
    pool_ = std::make_unique<ThreadPool>(threads);
  });
}

Result<uint16_t> OmqServer::ListenAndStart(uint16_t port) {
  Start();
  OMQC_ASSIGN_OR_RETURN(listen_fd_,
                        ListenTcp(config_.listen_address, port));
  OMQC_ASSIGN_OR_RETURN(uint16_t bound, LocalPort(listen_fd_.get()));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return bound;
}

Result<OwnedFd> OmqServer::ConnectInProcess() {
  Start();
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::Cancelled("server shutting down");
  }
  OMQC_ASSIGN_OR_RETURN(auto pair, StreamSocketPair());
  auto conn = std::make_shared<Connection>();
  conn->fd = std::move(pair.second);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    connections_.push_back(conn);
    session_threads_.emplace_back(
        [this, conn]() mutable { SessionLoop(std::move(conn)); });
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.connections;
  }
  return std::move(pair.first);
}

void OmqServer::AcceptLoop() {
  for (;;) {
    auto accepted = AcceptConnection(listen_fd_.get());
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kCancelled ||
          stopping_.load(std::memory_order_acquire)) {
        return;
      }
      continue;  // transient accept failure (e.g. peer reset in backlog)
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(*accepted);
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      connections_.push_back(conn);
      session_threads_.emplace_back(
          [this, conn]() mutable { SessionLoop(std::move(conn)); });
    }
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections;
    }
  }
}

void OmqServer::SessionLoop(std::shared_ptr<Connection> conn) {
  std::string payload;
  for (;;) {
    Status read = ReadFrame(conn->fd.get(), &payload);
    if (!read.ok()) {
      // kCancelled = orderly close between frames; anything else is a
      // corrupt stream — either way the session ends (in-flight requests
      // keep the fd alive through their own reference).
      if (read.code() != StatusCode::kCancelled) {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.malformed_frames;
      }
      break;
    }
    auto request = DecodeRequest(payload);
    if (!request.ok()) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.malformed_frames;
      }
      WireResponse response;
      response.request_id = 0;  // the id may not have decoded
      response.code = request.status().code();
      response.message = request.status().message();
      SendResponse(conn, std::move(response));
      continue;  // framing is intact; later frames may be fine
    }
    HandleRequest(conn, std::move(*request));
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  connections_.erase(
      std::remove(connections_.begin(), connections_.end(), conn),
      connections_.end());
}

void OmqServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                              WireRequest&& request) {
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.requests;
  }
  switch (request.type) {
    case RequestType::kPing: {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.pings;
      }
      WireResponse response;
      response.request_id = request.request_id;
      response.body = "pong";
      SendResponse(conn, std::move(response));
      return;
    }
    case RequestType::kStats: {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.stats_requests;
      }
      WireResponse response;
      response.request_id = request.request_id;
      response.body = StatsJson();
      SendResponse(conn, std::move(response));
      return;
    }
    case RequestType::kShutdown: {
      WireResponse response;
      response.request_id = request.request_id;
      response.body = "shutting down";
      SendResponse(conn, std::move(response));
      RequestShutdown();
      return;
    }
    case RequestType::kEval:
    case RequestType::kContain:
    case RequestType::kClassify:
      break;
  }

  // Compile on the session thread (or find the program already compiled)
  // so malformed programs bounce immediately without consuming a pool slot
  // or tenant accounting.
  auto program = programs_ != nullptr ? programs_->Get(request.program)
                                      : CompileProgram(request.program);
  if (!program.ok()) {
    WireResponse response;
    response.request_id = request.request_id;
    response.code = StatusCode::kInvalidArgument;
    response.message = StrCat("program: ", program.status().message());
    SendResponse(conn, std::move(response));
    return;
  }

  // A classify answer is the compiled program's stored body: a string
  // copy, no engine work and no governed resource. It is answered here,
  // like ping/stats, rather than paying a hand-off to a pool worker (a
  // thread wake whose cost grows with how busy the pool's CPUs are) and a
  // tenant slot.
  if (request.type == RequestType::kClassify) {
    WireResponse response;
    response.request_id = request.request_id;
    response.body = (*program)->classification;
    SendResponse(conn, std::move(response));
    return;
  }

  auto pending = std::make_shared<PendingRequest>();
  pending->program = std::move(*program);
  pending->conn = conn;
  pending->request = std::move(request);

  // Over the tenant's concurrency quota the request parks in the
  // registry; a later completion re-dispatches it via SettleLease.
  auto admission =
      tenants_.AdmitOrQueue(pending->request.tenant, pending);
  if (admission.queued) return;
  pending->lease = std::move(admission.lease);

  // A tenant whose governor is tripped (e.g. blew its memory quota) fails
  // fast until its in-flight requests drain and the governor is replaced.
  Status trip = pending->lease.governor->TripStatus();
  if (!trip.ok()) {
    FailPending(pending, trip.code(),
                StrCat("tenant governor tripped: ", trip.message()));
    return;
  }
  if (!Dispatch(pending)) {
    FailPending(pending, StatusCode::kCancelled, "server shutting down");
  }
}

bool OmqServer::Dispatch(const std::shared_ptr<PendingRequest>& pending) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (queue_closed_) return false;
  pending->queued_at = Clock::now();
  ++queue_stats_.submitted;
  queue_stats_.queue_depth_peak =
      std::max(queue_stats_.queue_depth_peak, ++queue_depth_);
  pool_->Submit([this, pending] { Execute(pending); });
  return true;
}

void OmqServer::Execute(const std::shared_ptr<PendingRequest>& pending) {
  const WireRequest& request = pending->request;
  const uint64_t wait_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - pending->queued_at)
          .count());
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    ++queue_stats_.batches_dispatched;
    --queue_depth_;
    queue_stats_.wait_us_total += wait_us;
    queue_stats_.wait_us_max = std::max(queue_stats_.wait_us_max, wait_us);
  }

  ResourceGovernor req_gov(pending->lease.governor.get());
  uint64_t deadline_ms = request.deadline_ms;
  if (deadline_ms == 0) deadline_ms = config_.default_deadline_ms;
  if (deadline_ms == 0) deadline_ms = tenants_.quota().default_deadline_ms;
  if (deadline_ms > 0) {
    req_gov.set_deadline_after(std::chrono::milliseconds(deadline_ms));
  }
  if (request.max_memory_bytes > 0) {
    req_gov.set_memory_budget(
        static_cast<size_t>(request.max_memory_bytes));
  }

  WireResponse response;
  response.request_id = request.request_id;
  response.admission_wait_us = wait_us;

  const CompiledProgram& program = *pending->program;
  EngineStats stats;
  switch (request.type) {
    case RequestType::kEval: {
      auto omq = program.Query(request.query);
      if (!omq.ok()) {
        response.code = omq.status().code();
        response.message = omq.status().message();
        break;
      }
      EvalOptions options;
      options.chase_strategy = config_.chase;
      options.cache = cache_.get();
      options.governor = &req_gov;
      auto answers = EvalAll(*omq, program.program.facts, options, &stats);
      if (!answers.ok()) {
        response.code = answers.status().code();
        response.message = answers.status().message();
      } else {
        response.body = FormatAnswers(*answers);
      }
      response.stats_json = EngineStatsToJson(stats);
      break;
    }
    case RequestType::kContain: {
      auto q1 = program.Query(request.query);
      auto q2 = program.Query(request.query2);
      if (!q1.ok() || !q2.ok()) {
        const Status& bad = q1.ok() ? q2.status() : q1.status();
        response.code = bad.code();
        response.message = bad.message();
        break;
      }
      ContainmentOptions options;
      options.num_threads = std::max<size_t>(1, config_.contain_threads);
      options.eval.chase_strategy = config_.chase;
      options.cache = cache_.get();
      options.governor = &req_gov;
      auto result = CheckContainment(*q1, *q2, options);
      if (!result.ok()) {
        response.code = result.status().code();
        response.message = result.status().message();
      } else {
        response.body =
            FormatContainmentReport(request.query, request.query2, *result);
        stats = result->stats;
      }
      response.stats_json = EngineStatsToJson(stats);
      break;
    }
    default:
      response.code = StatusCode::kInternal;
      response.message = "non-executable request type reached the pool";
      break;
  }

  // A trip is the authoritative outcome even when the engine salvaged a
  // partial result (mirrors omqc_cli's exit 3): the client sees the trip
  // code, plus whatever partial body was produced.
  Status trip = req_gov.TripStatus();
  if (!trip.ok()) {
    response.code = trip.code();
    response.message = trip.message();
  }

  StatusCode code = response.code;
  SendResponse(pending->conn, std::move(response));
  SettleLease(pending, req_gov.local_charged_bytes(), code, stats);
}

void OmqServer::FailPending(const std::shared_ptr<PendingRequest>& pending,
                            StatusCode code, const std::string& message) {
  WireResponse response;
  response.request_id = pending->request.request_id;
  response.code = code;
  response.message = message;
  SendResponse(pending->conn, std::move(response));
  SettleLease(pending, /*residual_bytes=*/0, code, EngineStats());
}

void OmqServer::SettleLease(const std::shared_ptr<PendingRequest>& pending,
                            size_t residual_bytes, StatusCode code,
                            const EngineStats& stats) {
  std::vector<TenantRegistry::Resumed> work =
      tenants_.Complete(pending->lease, residual_bytes, code, stats);
  // Dispatch everything the completion released. A resumed request that
  // cannot run (tripped governor, shutdown) is answered right here and
  // its own settlement may release more work — hence the worklist, so an
  // arbitrarily long failing cascade stays iterative.
  while (!work.empty()) {
    TenantRegistry::Resumed resumed = std::move(work.back());
    work.pop_back();
    auto next = std::static_pointer_cast<PendingRequest>(resumed.payload);
    next->lease = std::move(resumed.lease);
    Status refusal = next->lease.governor->TripStatus();
    if (!refusal.ok()) {
      refusal = Status(refusal.code(),
                       StrCat("tenant governor tripped: ",
                              refusal.message()));
    } else if (!Dispatch(next)) {
      refusal = Status::Cancelled("server shutting down");
    }
    if (refusal.ok()) continue;
    WireResponse response;
    response.request_id = next->request.request_id;
    response.code = refusal.code();
    response.message = refusal.message();
    SendResponse(next->conn, std::move(response));
    auto more = tenants_.Complete(next->lease, /*residual_bytes=*/0,
                                  refusal.code(), EngineStats());
    for (auto& m : more) work.push_back(std::move(m));
  }
}

void OmqServer::SendResponse(const std::shared_ptr<Connection>& conn,
                             WireResponse&& response) {
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    if (response.code == StatusCode::kOk) {
      ++counters_.responses_ok;
    } else {
      ++counters_.responses_error;
    }
  }
  std::string payload = EncodeResponse(response);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->broken.load(std::memory_order_relaxed)) return;
  if (!WriteFrame(conn->fd.get(), payload).ok()) {
    conn->broken.store(true, std::memory_order_relaxed);
  }
}

void OmqServer::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

bool OmqServer::WaitForShutdownRequest(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait_for(lock, timeout, [&] { return shutdown_requested_; });
  return shutdown_requested_;
}

void OmqServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  // 1. Stop accepting connections.
  if (listen_fd_.valid()) ShutdownSocket(listen_fd_.get());
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Close the pool queue (new dispatches now bounce) and drain every
  //    execution — all responses are written after this.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  if (pool_ != nullptr) pool_->Wait();
  // 2b. Requests still parked in tenant concurrency queues can no longer
  //     be dequeued by a completion (the pool is drained): answer them
  //     kCancelled while their connections are still up. Stragglers that
  //     race in before the sessions join are swept again below.
  auto drain_queued = [this] {
    for (auto& payload : tenants_.DrainQueued()) {
      auto pending = std::static_pointer_cast<PendingRequest>(payload);
      WireResponse response;
      response.request_id = pending->request.request_id;
      response.code = StatusCode::kCancelled;
      response.message = "server shutting down";
      SendResponse(pending->conn, std::move(response));
    }
  };
  drain_queued();
  // 3. Unblock session readers and join them.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& conn : connections_) {
      if (conn->fd.valid()) ShutdownSocket(conn->fd.get());
    }
  }
  std::vector<std::thread> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(session_threads_);
  }
  for (std::thread& t : sessions) {
    if (t.joinable()) t.join();
  }
  drain_queued();
  // 4. Every response is out; seal what this run compiled into the
  //    persistent store (no-op for the memory-only cache).
  if (cache_ != nullptr) cache_->Flush();
}

void OmqServer::set_fault_injector(FaultInjector* injector) {
  if (cache_ != nullptr) cache_->set_fault_injector(injector);
}

AdmissionStats OmqServer::admission_stats() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_stats_;
}

ProgramCacheStats OmqServer::program_cache_stats() const {
  return programs_ != nullptr ? programs_->Stats() : ProgramCacheStats();
}

ServerCounters OmqServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

std::string OmqServer::StatsJson() const {
  JsonWriter w;
  w.BeginObject();

  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    w.BeginObject("server");
    w.Field("connections", counters_.connections);
    w.Field("requests", counters_.requests);
    w.Field("responses_ok", counters_.responses_ok);
    w.Field("responses_error", counters_.responses_error);
    w.Field("pings", counters_.pings);
    w.Field("stats_requests", counters_.stats_requests);
    w.Field("malformed_frames", counters_.malformed_frames);
    w.Field("worker_threads",
            static_cast<uint64_t>(pool_ != nullptr ? pool_->num_threads()
                                                   : 0));
    w.EndObject();
  }

  AdmissionStats admission = admission_stats();
  w.BeginObject("admission");
  w.Field("submitted", admission.submitted);
  w.Field("dispatched", admission.batches_dispatched);
  w.Field("queue_depth_peak", admission.queue_depth_peak);
  w.Field("wait_us_total", admission.wait_us_total);
  w.Field("wait_us_max", admission.wait_us_max);
  w.EndObject();

  if (cache_ != nullptr) {
    AppendOmqCacheStatsJson(w, "cache", cache_->Stats());
  }
  if (programs_ != nullptr) {
    ProgramCacheStats programs = programs_->Stats();
    w.BeginObject("programs");
    w.Field("entries", programs.entries);
    w.Field("hits", programs.hits);
    w.Field("misses", programs.misses);
    w.Field("evictions", programs.evictions);
    w.EndObject();
  }
  AppendGovernorCountersJson(w, "governor", governor_.counters());
  w.Field("governor_charged_bytes",
          static_cast<uint64_t>(governor_.local_charged_bytes()));

  w.BeginObject("tenants");
  for (const auto& [name, snap] : tenants_.Snapshot()) {
    w.BeginObject(name);
    w.Field("requests", snap.counters.requests);
    w.Field("completed", snap.counters.completed);
    w.Field("failed", snap.counters.failed);
    w.Field("deadline_trips", snap.counters.deadline_trips);
    w.Field("cancel_trips", snap.counters.cancel_trips);
    w.Field("memory_trips", snap.counters.memory_trips);
    w.Field("cache_hits", snap.counters.cache_hits);
    w.Field("cache_misses", snap.counters.cache_misses);
    w.Field("governor_resets", snap.counters.governor_resets);
    w.Field("queued_requests", snap.counters.queued_requests);
    w.Field("queue_peak", snap.counters.queue_peak);
    w.Field("inflight", snap.inflight);
    w.Field("queued", snap.queued);
    w.Field("charged_bytes", static_cast<uint64_t>(snap.charged_bytes));
    w.Field("tripped", snap.tripped);
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  return w.TakeString();
}

}  // namespace omqc
