// OmqServer: containment-as-a-service over the wire protocol.
//
// Request path (see DESIGN.md "Server pipeline"):
//
//   session thread ──► tenant admission ──► worker pool (FIFO)
//   (read + compile)   (quota; may park)     (execute, respond)
//
// Each connection gets a session thread that reads frames, answers
// ping/stats/shutdown inline, resolves the eval/contain/classify program,
// answers classify from the compiled program's stored body, and admits an
// eval or contain to its tenant (tenant.h). An admitted request
// goes straight to the shared ThreadPool; one over its tenant's
// concurrency quota parks until a completion of that tenant releases it.
//
// Programs are compiled once per distinct text: the session thread looks
// the request's exact program bytes up in a bounded LRU of
// CompiledProgram handles (core/frontend.h) — parsed program, data
// schema, Σ fingerprint and profile, classify body. A hit skips parsing,
// Σ canonicalization and classification; a miss compiles and inserts (a
// concurrent miss on the same text waits for that compile); a parse error
// is answered and never cached. Workers read the shared handle as const,
// and every Omq they take from it carries the compiled Σ, so the engine
// entry points fingerprint nothing on a warm request. The LRU shares
// ServerConfig::cache_capacity with the artifact store and is off with it.
//
// Sharing work between concurrent requests is the artifact store's job,
// not the server's: every compilation step goes through
// ArtifactStore::GetOrCompile (cache/artifact_store.h), so concurrent
// requests missing on the same key run one compilation and the rest wait
// for it — nothing holds a request back hoping for company.
//
// Resource governance: every request executes under a fresh governor
// child of its tenant's governor (tenant.h), itself a child of the
// server-wide governor. A request trip (deadline/memory) answers that
// request with the trip code; sibling requests and other tenants are
// untouched. A request waiting on another's compilation still honours its
// own deadline and cancellation.
//
// Responses may leave a connection out of order (requests on one
// connection run concurrently); clients correlate by request_id. All
// writes to one connection are serialized by a per-connection mutex.

#ifndef OMQC_SERVER_SERVER_H_
#define OMQC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/governor.h"
#include "base/socket.h"
#include "base/thread_pool.h"
#include "cache/persist.h"
#include "chase/chase.h"
#include "server/tenant.h"
#include "server/wire.h"

namespace omqc {

struct ServerConfig {
  /// Bind address for ListenAndStart ("" = INADDR_ANY).
  std::string listen_address = "127.0.0.1";
  /// Worker pool size (0 = hardware concurrency).
  size_t worker_threads = 0;
  /// Shared compilation cache (0 capacity = caching off).
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;
  /// Persistent artifact store directory ("" = memory only). The server
  /// warm-starts the cache from it at boot and flushes new artifacts to
  /// it on drain; an unopenable directory degrades to memory-only with a
  /// warning on stderr (the server still comes up).
  std::string cache_dir;
  /// Deadline for requests that carry none (0 = tenant default, then
  /// unlimited).
  uint64_t default_deadline_ms = 0;
  /// Server-wide memory budget across all tenants (0 = none).
  size_t server_memory_budget_bytes = 0;
  /// Per-tenant limits.
  TenantQuota tenant_quota;
  /// Intra-request parallelism for containment checks. Kept at 1 by
  /// default: the server parallelizes across requests via the pool.
  size_t contain_threads = 1;
  /// Chase strategy for evaluation paths.
  ChaseStrategy chase = ChaseStrategy::kSemiNaive;
};

/// Worker-pool queue tallies for the STATS endpoint. A request is queued
/// from tenant admission until a worker starts it; each dispatch starts
/// exactly one request.
struct AdmissionStats {
  uint64_t submitted = 0;           ///< requests handed to the pool
  uint64_t batches_dispatched = 0;  ///< requests a worker has started
  uint64_t queue_depth_peak = 0;    ///< most requests queued at once
  uint64_t wait_us_total = 0;       ///< admission -> worker start, summed
  uint64_t wait_us_max = 0;
};

/// Program-cache tallies for the STATS `programs` block. A request that
/// waited on a concurrent compile of the same text counts as a hit.
struct ProgramCacheStats {
  uint64_t entries = 0;    ///< programs held (at most cache_capacity)
  uint64_t hits = 0;       ///< lookups served without compiling
  uint64_t misses = 0;     ///< lookups that compiled (parse errors too)
  uint64_t evictions = 0;  ///< least recently used programs dropped
};

/// Server-level tallies (beyond queue/cache/tenant counters).
struct ServerCounters {
  uint64_t connections = 0;
  uint64_t requests = 0;       ///< frames decoded into requests
  uint64_t responses_ok = 0;
  uint64_t responses_error = 0;
  uint64_t pings = 0;
  uint64_t stats_requests = 0;
  uint64_t malformed_frames = 0;
};

class OmqServer {
 public:
  explicit OmqServer(ServerConfig config);

  OmqServer(const OmqServer&) = delete;
  OmqServer& operator=(const OmqServer&) = delete;

  /// Equivalent to Shutdown().
  ~OmqServer();

  /// Starts the execution pipeline (the worker pool) without a network
  /// listener — for in-process connections only.
  void Start();

  /// Start() plus a TCP listener on `port` (0 = ephemeral). Returns the
  /// bound port.
  Result<uint16_t> ListenAndStart(uint16_t port);

  /// Opens an in-process connection (AF_UNIX socketpair): returns the
  /// client end and spawns a session thread on the server end. Works with
  /// or without a listener.
  Result<OwnedFd> ConnectInProcess();

  /// Graceful stop: refuse new work, drain the pool, unblock and join
  /// every session. Idempotent.
  void Shutdown();

  /// Marks the server as asked to shut down (kShutdown request or a
  /// signal) and wakes WaitForShutdownRequest. Does not stop anything
  /// by itself.
  void RequestShutdown();

  /// Blocks until RequestShutdown or the timeout; true when requested.
  bool WaitForShutdownRequest(std::chrono::milliseconds timeout);

  /// The full metrics document served by kStats: server counters, pool
  /// queue stats, artifact and program cache stats, server governor,
  /// per-tenant sections.
  std::string StatsJson() const;

  const ServerConfig& config() const { return config_; }
  ArtifactStore* cache() { return cache_.get(); }
  ResourceGovernor* governor() { return &governor_; }

  /// Point-in-time pool-queue tallies.
  AdmissionStats admission_stats() const;
  /// Point-in-time program-cache tallies (all zero when it is off).
  ProgramCacheStats program_cache_stats() const;
  /// Point-in-time per-tenant view (tenant.h TenantSnapshot).
  std::map<std::string, TenantRegistry::TenantSnapshot> TenantSnapshots()
      const {
    return tenants_.Snapshot();
  }
  ServerCounters counters() const;

  /// Test-only: wires a fault injector into the cache (insert drops).
  /// Install before traffic.
  void set_fault_injector(FaultInjector* injector);

 private:
  struct Connection;
  struct PendingRequest;
  class ProgramCache;

  void AcceptLoop();
  void SessionLoop(std::shared_ptr<Connection> conn);
  /// Handles one decoded request on the session thread; admits
  /// eval/contain, answers everything else inline.
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     WireRequest&& request);
  /// Queues an admitted request on the pool. Returns false (queueing
  /// nothing) once Shutdown has closed the queue.
  bool Dispatch(const std::shared_ptr<PendingRequest>& pending);
  /// Executes one request on a pool worker and sends its response.
  void Execute(const std::shared_ptr<PendingRequest>& pending);
  /// Sends `response` on `conn` (any thread; serialized per connection).
  void SendResponse(const std::shared_ptr<Connection>& conn,
                    WireResponse&& response);
  /// Answers an admitted request that never reaches the pool (tripped
  /// tenant, shutdown) and settles its lease.
  void FailPending(const std::shared_ptr<PendingRequest>& pending,
                   StatusCode code, const std::string& message);
  /// Settles a finished request's tenant lease, then dispatches any
  /// requests its completion released from the tenant's concurrency
  /// queue (trip-check + dispatch, answering failures inline).
  /// Iterative — a cascade of failing resumed requests cannot recurse.
  void SettleLease(const std::shared_ptr<PendingRequest>& pending,
                   size_t residual_bytes, StatusCode code,
                   const EngineStats& stats);

  ServerConfig config_;
  ResourceGovernor governor_;  ///< server-wide root governor
  std::unique_ptr<ArtifactStore> cache_;
  std::unique_ptr<ProgramCache> programs_;  ///< null when caching is off
  TenantRegistry tenants_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex queue_mu_;
  AdmissionStats queue_stats_;
  uint64_t queue_depth_ = 0;
  bool queue_closed_ = false;  ///< Shutdown began; Dispatch refuses

  OwnedFd listen_fd_;
  std::thread accept_thread_;

  mutable std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> session_threads_;

  mutable std::mutex counters_mu_;
  ServerCounters counters_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  std::once_flag start_once_;
  std::atomic<bool> stopping_{false};
  bool shut_down_ = false;  ///< Shutdown() completed (under shutdown_mu_)
};

}  // namespace omqc

#endif  // OMQC_SERVER_SERVER_H_
