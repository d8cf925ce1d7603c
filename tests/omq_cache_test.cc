// Unit tests for the sharded LRU cache (src/cache/omq_cache.h): hit/miss
// bookkeeping, LRU eviction order, replacement, Clear, and concurrent
// hammering from many threads. Then the single-flight get-or-compile path
// (ArtifactStore::GetOrCompile) on both stores, the memory-only OmqCache
// and the tiered memory+disk TieredStore: one compilation per key under
// concurrent misses, hand-off to exactly one waiter when the compiling
// caller leaves nothing cacheable, waiters honouring their own governor,
// and nested keys that cannot deadlock.

#include "cache/omq_cache.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/fault_injection.h"
#include "base/governor.h"
#include "base/thread_pool.h"
#include "cache/cached_ops.h"
#include "cache/persist.h"
#include "core/containment.h"
#include "core/eval.h"
#include "core/frontend.h"
#include "gtest/gtest.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

CacheKey KeyFor(uint64_t n, ArtifactKind kind = ArtifactKind::kRewriting) {
  return CacheKey{Fingerprint{n, ~n}, 0, kind};
}

std::shared_ptr<const std::string> Value(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

TEST(OmqCacheTest, MissThenHit) {
  OmqCache cache;
  CacheCounters counters;
  EXPECT_EQ(cache.Get<std::string>(KeyFor(1), &counters), nullptr);
  cache.Put<std::string>(KeyFor(1), Value("one"), 3, &counters);
  auto hit = cache.Get<std::string>(KeyFor(1), &counters);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "one");
  EXPECT_EQ(counters.lookups, 2u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.insertions, 1u);
  EXPECT_EQ(counters.bytes_inserted, 3u);
}

TEST(OmqCacheTest, SameFingerprintDifferentKindOrDigestDoNotAlias) {
  OmqCache cache;
  CacheKey rewriting = KeyFor(7, ArtifactKind::kRewriting);
  CacheKey classification = KeyFor(7, ArtifactKind::kClassification);
  CacheKey other_digest = rewriting;
  other_digest.options_digest = 42;
  cache.Put<std::string>(rewriting, Value("rw"), 1);
  EXPECT_EQ(cache.Get<std::string>(classification), nullptr);
  EXPECT_EQ(cache.Get<std::string>(other_digest), nullptr);
  ASSERT_NE(cache.Get<std::string>(rewriting), nullptr);
}

TEST(OmqCacheTest, EvictsLeastRecentlyUsed) {
  // One shard so the LRU order is global and deterministic.
  OmqCache cache(OmqCacheConfig{/*capacity=*/3, /*num_shards=*/1});
  cache.Put<std::string>(KeyFor(1), Value("1"), 1);
  cache.Put<std::string>(KeyFor(2), Value("2"), 1);
  cache.Put<std::string>(KeyFor(3), Value("3"), 1);
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_NE(cache.Get<std::string>(KeyFor(1)), nullptr);
  cache.Put<std::string>(KeyFor(4), Value("4"), 1);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Get<std::string>(KeyFor(2)), nullptr);
  EXPECT_NE(cache.Get<std::string>(KeyFor(1)), nullptr);
  EXPECT_NE(cache.Get<std::string>(KeyFor(3)), nullptr);
  EXPECT_NE(cache.Get<std::string>(KeyFor(4)), nullptr);
  EXPECT_EQ(cache.Stats().counters.evictions, 1u);
}

TEST(OmqCacheTest, EvictedValueStaysAliveForHolders) {
  OmqCache cache(OmqCacheConfig{/*capacity=*/1, /*num_shards=*/1});
  cache.Put<std::string>(KeyFor(1), Value("keepalive"), 1);
  auto held = cache.Get<std::string>(KeyFor(1));
  cache.Put<std::string>(KeyFor(2), Value("evictor"), 1);
  EXPECT_EQ(cache.Get<std::string>(KeyFor(1)), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, "keepalive");
}

TEST(OmqCacheTest, ReplaceUpdatesValueAndBytes) {
  OmqCache cache(OmqCacheConfig{/*capacity=*/4, /*num_shards=*/1});
  cache.Put<std::string>(KeyFor(1), Value("old"), 10);
  cache.Put<std::string>(KeyFor(1), Value("new"), 4);
  auto hit = cache.Get<std::string>(KeyFor(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Stats().bytes, 4u);
  // Replacement does not count as a fresh insertion.
  EXPECT_EQ(cache.Stats().counters.insertions, 1u);
}

TEST(OmqCacheTest, ClearDropsEntriesKeepsCounters) {
  OmqCache cache;
  cache.Put<std::string>(KeyFor(1), Value("1"), 1);
  cache.Put<std::string>(KeyFor(2), Value("2"), 1);
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
  EXPECT_EQ(cache.Stats().counters.insertions, 2u);
  EXPECT_EQ(cache.Get<std::string>(KeyFor(1)), nullptr);
}

TEST(OmqCacheTest, CapacityClampsAndShardsSplit) {
  OmqCache tiny(OmqCacheConfig{/*capacity=*/0, /*num_shards=*/0});
  EXPECT_EQ(tiny.capacity(), 1u);
  EXPECT_EQ(tiny.num_shards(), 1u);
  OmqCache wide(OmqCacheConfig{/*capacity=*/4, /*num_shards=*/64});
  EXPECT_LE(wide.num_shards(), 4u);
}

TEST(OmqCacheTest, ConcurrentHammerStaysConsistent) {
  OmqCache cache(OmqCacheConfig{/*capacity=*/64, /*num_shards=*/8});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> workers;
  std::vector<CacheCounters> per_thread(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &per_thread, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint64_t k = static_cast<uint64_t>((t * 31 + i) % 128);
        auto hit = cache.Get<std::string>(KeyFor(k), &per_thread[t]);
        if (hit == nullptr) {
          cache.Put<std::string>(KeyFor(k), Value(std::to_string(k)), 8,
                                 &per_thread[t]);
        } else {
          // A hit must always carry the value inserted for that key.
          EXPECT_EQ(*hit, std::to_string(k));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  CacheCounters merged;
  for (const CacheCounters& c : per_thread) merged.Merge(c);
  EXPECT_EQ(merged.lookups, static_cast<size_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(merged.hits + merged.misses, merged.lookups);
  OmqCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, cache.capacity() + cache.num_shards());
  EXPECT_EQ(stats.counters.lookups, merged.lookups);
}

TEST(OmqCacheTest, ConcurrentEvictionUnderCapacityPressure) {
  // Capacity far below the working set: every thread's inserts continually
  // evict other threads' entries. The server shares one such cache across
  // all tenants, so eviction racing lookup/insert is the steady state, not
  // an edge case.
  OmqCache cache(OmqCacheConfig{/*capacity=*/8, /*num_shards=*/2});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr uint64_t kKeySpace = 64;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint64_t k = static_cast<uint64_t>(t * 17 + i * 5) % kKeySpace;
        auto hit = cache.Get<std::string>(KeyFor(k));
        if (hit == nullptr) {
          cache.Put<std::string>(KeyFor(k), Value(std::to_string(k)), 16);
        } else {
          // Values must never cross keys, even mid-eviction.
          EXPECT_EQ(*hit, std::to_string(k));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  OmqCacheStats stats = cache.Stats();
  EXPECT_GT(stats.counters.evictions, 0u);
  EXPECT_LE(stats.entries, cache.capacity());
  // Live entries can only be what was inserted and not evicted (racing
  // same-key inserts may replace, so this is an upper bound, not equality).
  EXPECT_LE(stats.entries,
            stats.counters.insertions - stats.counters.evictions);
  // Survivors still serve the right value after the storm.
  for (uint64_t k = 0; k < kKeySpace; ++k) {
    auto hit = cache.Get<std::string>(KeyFor(k));
    if (hit != nullptr) {
      EXPECT_EQ(*hit, std::to_string(k));
    }
  }
}

// ---------- Single flight ----------

using Clock = std::chrono::steady_clock;

enum class StoreKind { kMemory, kTiered };

std::string StoreName(const ::testing::TestParamInfo<StoreKind>& info) {
  return info.param == StoreKind::kMemory ? "OmqCache" : "TieredStore";
}

/// A fresh store of the given kind (the tiered one over an empty
/// directory named after `name`).
std::unique_ptr<ArtifactStore> MakeStore(StoreKind kind,
                                         const std::string& name) {
  if (kind == StoreKind::kMemory) return std::make_unique<OmqCache>();
  std::string dir = ::testing::TempDir() + "omqc_single_flight_" + name;
  std::filesystem::remove_all(dir);
  auto store = TieredStore::Open(TieredStoreConfig{{}, dir});
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

/// Keys for opaque test values: a kind the tiered store never writes to
/// disk, so a std::string is never handed to an artifact encoder.
CacheKey FlightKey(uint64_t n) {
  return KeyFor(n, ArtifactKind::kRhsEvaluator);
}

/// Runs `body(i)` on `n` threads released together.
template <typename Body>
void RunTogether(int n, Body body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&go, &body, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(i);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
}

class SingleFlightTest : public ::testing::TestWithParam<StoreKind> {};

TEST_P(SingleFlightTest, ConcurrentMissesCompileOnce) {
  auto store = MakeStore(GetParam(), "once");
  constexpr int kThreads = 8;
  const CacheKey key = FlightKey(1);
  std::atomic<int> compiles{0};
  std::vector<const std::string*> seen(kThreads, nullptr);
  std::vector<CacheCounters> counters(kThreads);
  RunTogether(kThreads, [&](int i) {
    auto value = store->GetOrCompile<std::string>(
        key, &counters[i], nullptr, [&] {
          compiles.fetch_add(1);
          // Long enough for every other thread to arrive mid-compile.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          auto v = Value("compiled");
          store->Put(key, v, 8, &counters[i]);
          return v;
        });
    ASSERT_TRUE(value.ok());
    seen[i] = value->get();
  });
  EXPECT_EQ(compiles.load(), 1);
  for (const std::string* p : seen) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p, seen[0]);  // one shared object, not equal copies
  }
  CacheCounters merged;
  for (const CacheCounters& c : counters) merged.Merge(c);
  // One lookup per caller, one miss in total; the waits are tallied as
  // coalesced and resolve as hits.
  EXPECT_EQ(merged.lookups, static_cast<size_t>(kThreads));
  EXPECT_EQ(merged.misses, 1u);
  EXPECT_EQ(merged.hits, static_cast<size_t>(kThreads - 1));
  EXPECT_GE(merged.coalesced, 1u);
  EXPECT_LE(merged.coalesced, static_cast<size_t>(kThreads - 1));
  OmqCacheStats stats = store->Stats();
  EXPECT_EQ(stats.counters.lookups, merged.lookups);
  EXPECT_EQ(stats.counters.misses, merged.misses);
  EXPECT_EQ(stats.counters.coalesced, merged.coalesced);
  EXPECT_EQ(stats.counters.insertions, 1u);
}

/// How the first compiling caller ends without a cacheable artifact.
enum class LeaderFailure { kStopped, kError, kDroppedInsert };

void CheckHandOff(StoreKind kind, LeaderFailure failure, bool every_attempt) {
  std::string name = "handoff_" + std::to_string(static_cast<int>(failure)) +
                     (every_attempt ? "_all" : "_first");
  auto store = MakeStore(kind, name);
  // fail_insert_at counts every Put; only the first leader's is dropped.
  FaultPlan plan;
  plan.fail_insert_at = failure == LeaderFailure::kDroppedInsert ? 1 : 0;
  FaultInjector injector(plan);
  store->set_fault_injector(&injector);
  constexpr int kThreads = 8;
  const CacheKey key = FlightKey(2);
  std::atomic<int> attempts{0};
  std::vector<std::string> got(kThreads);
  RunTogether(kThreads, [&](int i) {
    auto value = store->GetOrCompile<std::string>(
        key, nullptr, nullptr,
        [&]() -> Result<std::shared_ptr<const std::string>> {
          int attempt = attempts.fetch_add(1) + 1;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          auto v = Value("attempt-" + std::to_string(attempt));
          bool fail = every_attempt || attempt == 1;
          if (fail && failure == LeaderFailure::kStopped) {
            return std::shared_ptr<const std::string>();
          }
          if (fail && failure == LeaderFailure::kError) {
            return Status::Internal("compile failed");
          }
          // kDroppedInsert: the injector drops the first Put only.
          if (!fail || failure == LeaderFailure::kDroppedInsert) {
            store->Put(key, v, 8);
          }
          return v;
        });
    if (value.ok() && *value != nullptr) got[i] = **value;
  });
  store->set_fault_injector(nullptr);
  auto stored = store->Get<std::string>(key);
  if (every_attempt && failure != LeaderFailure::kDroppedInsert) {
    // Nothing cacheable ever: each caller led exactly one attempt of its
    // own, and the key stays empty.
    EXPECT_EQ(attempts.load(), kThreads);
    EXPECT_EQ(stored, nullptr);
    return;
  }
  // The first leader's non-result poisoned nothing: exactly one waiter
  // compiled again and everyone else was served its artifact.
  EXPECT_EQ(attempts.load(), 2);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, "attempt-2");
  int served_second = 0;
  for (const std::string& v : got) served_second += v == "attempt-2";
  EXPECT_EQ(served_second, kThreads - 1);
  if (failure == LeaderFailure::kDroppedInsert) {
    EXPECT_TRUE(injector.fired());
  }
}

TEST_P(SingleFlightTest, StoppedLeaderHandsTheKeyToOneWaiter) {
  CheckHandOff(GetParam(), LeaderFailure::kStopped, false);
  CheckHandOff(GetParam(), LeaderFailure::kStopped, true);
}

TEST_P(SingleFlightTest, FailedLeaderHandsTheKeyToOneWaiter) {
  CheckHandOff(GetParam(), LeaderFailure::kError, false);
  CheckHandOff(GetParam(), LeaderFailure::kError, true);
}

TEST_P(SingleFlightTest, DroppedInsertHandsTheKeyToOneWaiter) {
  CheckHandOff(GetParam(), LeaderFailure::kDroppedInsert, false);
}

TEST_P(SingleFlightTest, WaiterHonoursItsOwnGovernor) {
  auto store = MakeStore(GetParam(), "governed");
  const CacheKey key = FlightKey(3);
  std::atomic<int> compiles{0};
  std::atomic<bool> leading{false};
  auto compile = [&] {
    compiles.fetch_add(1);
    leading.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    auto v = Value("slow");
    store->Put(key, v, 8);
    return v;
  };
  Result<std::shared_ptr<const std::string>> leader = Status::Internal("");
  std::thread leader_thread([&] {
    leader = store->GetOrCompile<std::string>(key, nullptr, nullptr, compile);
  });
  while (!leading.load()) std::this_thread::yield();

  constexpr auto kSlack = std::chrono::milliseconds(50);
  // A waiter whose deadline passes mid-wait.
  std::thread deadline_waiter([&] {
    ResourceGovernor governor;
    constexpr auto kDeadline = std::chrono::milliseconds(30);
    auto start = Clock::now();
    governor.set_deadline_after(kDeadline);
    CacheCounters counters;
    auto value =
        store->GetOrCompile<std::string>(key, &counters, &governor, compile);
    auto elapsed = Clock::now() - start;
    EXPECT_FALSE(value.ok());
    EXPECT_EQ(value.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_LT(elapsed, kDeadline + kSlack);
    EXPECT_EQ(counters.coalesced, 1u);
  });
  // A waiter cancelled by another thread mid-wait.
  std::thread cancel_waiter([&] {
    ResourceGovernor governor;
    constexpr auto kCancelAfter = std::chrono::milliseconds(20);
    std::thread canceller([&governor, kCancelAfter] {
      std::this_thread::sleep_for(kCancelAfter);
      governor.Cancel();
    });
    auto start = Clock::now();
    auto value =
        store->GetOrCompile<std::string>(key, nullptr, &governor, compile);
    auto elapsed = Clock::now() - start;
    canceller.join();
    EXPECT_FALSE(value.ok());
    EXPECT_EQ(value.status().code(), StatusCode::kCancelled);
    EXPECT_LT(elapsed, kCancelAfter + kSlack);
  });
  deadline_waiter.join();
  cancel_waiter.join();
  leader_thread.join();
  // The compiling caller never noticed: one compilation, stored and served.
  ASSERT_TRUE(leader.ok());
  EXPECT_EQ(**leader, "slow");
  EXPECT_EQ(compiles.load(), 1);
  EXPECT_EQ(store->Get<std::string>(key), *leader);
  EXPECT_EQ(store->Stats().counters.coalesced, 2u);
}

TEST_P(SingleFlightTest, CrossedNestedKeysDoNotDeadlock) {
  // Half the tasks compile key A and need key B inside that compilation,
  // half the reverse: two leaders can each wait for the other's key. The
  // caller that would close the cycle compiles on its own instead.
  for (size_t pool_size : {1u, 2u, 8u}) {
    auto store = MakeStore(GetParam(), "crossed");
    std::atomic<int> failures{0};
    {
      ThreadPool pool(pool_size);
      for (int t = 0; t < 16; ++t) {
        pool.Submit([&store, &failures, t] {
          // Each key's value is its own name, whichever role compiled it.
          const uint64_t outer_id = 10 + t % 2, inner_id = 11 - t % 2;
          auto compile = [&store](uint64_t id, uint64_t needs)
              -> Result<std::shared_ptr<const std::string>> {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            if (needs != 0) {
              auto nested = store->GetOrCompile<std::string>(
                  FlightKey(needs), nullptr, nullptr, [&] {
                    std::this_thread::sleep_for(std::chrono::milliseconds(5));
                    auto v = Value(std::to_string(needs));
                    store->Put(FlightKey(needs), v, 4);
                    return v;
                  });
              if (!nested.ok()) return nested.status();
              if (**nested != std::to_string(needs)) {
                return Status::Internal("wrong nested value");
              }
            }
            auto v = Value(std::to_string(id));
            store->Put(FlightKey(id), v, 4);
            return v;
          };
          auto value = store->GetOrCompile<std::string>(
              FlightKey(outer_id), nullptr, nullptr,
              [&] { return compile(outer_id, inner_id); });
          if (!value.ok() || **value != std::to_string(outer_id)) {
            failures.fetch_add(1);
          }
        });
      }
      pool.Wait();
    }
    EXPECT_EQ(failures.load(), 0) << "pool size " << pool_size;
  }
}

/// Checks every ordered pair of `names` twice over a shared store, on a
/// pool of each size, against uncached verdicts.
void CheckContainmentOverSharedStore(StoreKind kind, const std::string& text,
                                     const std::vector<std::string>& names,
                                     EvalOptions::Strategy strategy) {
  auto program = ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Schema schema = InferProgramDataSchema(*program);
  std::vector<Omq> queries;
  for (const std::string& name : names) {
    auto q = SingleQueryNamed(*program, schema, name);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    queries.push_back(*q);
  }
  ContainmentOptions base;
  base.eval.strategy = strategy;
  // One rewriting budget for both sides, so the LHS enumeration and the
  // RHS evaluation of one query share a rewriting key.
  base.eval.rewrite = base.rewrite;
  std::vector<ContainmentOutcome> expected;
  for (const Omq& lhs : queries) {
    for (const Omq& rhs : queries) {
      auto r = CheckContainment(lhs, rhs, base);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(r->outcome);
    }
  }
  const size_t pairs = expected.size();
  for (size_t pool_size : {1u, 2u, 8u}) {
    auto store = MakeStore(kind, "nested_containment");
    std::vector<ContainmentOutcome> got(2 * pairs,
                                        ContainmentOutcome::kUnknown);
    {
      ThreadPool pool(pool_size);
      for (size_t t = 0; t < 2 * pairs; ++t) {
        pool.Submit([&, t, pool_size] {
          ContainmentOptions options = base;
          options.cache = store.get();
          options.num_threads = pool_size;
          size_t pair = t % pairs;
          auto r = CheckContainment(queries[pair / queries.size()],
                                    queries[pair % queries.size()], options);
          if (r.ok()) got[t] = r->outcome;
        });
      }
      pool.Wait();
    }
    for (size_t t = 0; t < 2 * pairs; ++t) {
      EXPECT_EQ(got[t], expected[t % pairs])
          << "pool size " << pool_size << ", pair " << t % pairs;
    }
  }
}

TEST_P(SingleFlightTest, NestedContainmentKeysDoNotDeadlock) {
  // Linear and recursive, so every RHS evaluator precomputes a rewriting:
  // kRhsEvaluator compilations nest classification and rewriting keys,
  // and the two directions share rewriting keys with each other's LHS.
  CheckContainmentOverSharedStore(GetParam(), R"(
    R(X,Y) -> R(Y,Z).
    Q1(X) :- R(X,Y).
    Q2(X) :- R(X,Y), R(Y,Z).
    Q3(X) :- R(Y,X).
    R(a,b).
  )", {"Q1", "Q2", "Q3"}, EvalOptions::Strategy::kAuto);
}

TEST_P(SingleFlightTest, RhsRewritingInsideTheLhsEnumerationDoesNotDeadlock) {
  // Non-recursive with forced rewriting: each RHS check rewrites inside
  // the LHS enumeration's callback, and for Q ⊆ Q that is the very key
  // the enumeration is compiling on the same thread. At pool size 2+ the
  // checks run on engine workers instead, waiting on the enumerating
  // thread's flight.
  CheckContainmentOverSharedStore(GetParam(), R"(
    A(X) -> B(X).
    B(X) -> C(X,Y).
    Q1(X) :- C(X,Y).
    Q2(X) :- A(X).
    A(a). C(b,c).
  )", {"Q1", "Q2"}, EvalOptions::Strategy::kRewrite);
}

INSTANTIATE_TEST_SUITE_P(Stores, SingleFlightTest,
                         ::testing::Values(StoreKind::kMemory,
                                           StoreKind::kTiered),
                         StoreName);

TEST(SingleFlightTieredTest, ConcurrentDiskMissesDecodeOnce) {
  // A classification written to disk by one store and read back by a
  // fresh one: eight concurrent first lookups decode it once between them.
  auto program = ParseProgram("A(X) -> B(X). B(X) -> C(X,Y).");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::string dir = ::testing::TempDir() + "omqc_single_flight_decode";
  std::filesystem::remove_all(dir);
  TgdProfile cold;
  {
    auto writer = TieredStore::Open(TieredStoreConfig{{}, dir});
    ASSERT_TRUE(writer.ok());
    cold = GetTgdProfile(writer->get(), program->tgds);
  }
  auto reader = TieredStore::Open(TieredStoreConfig{{}, dir});
  ASSERT_TRUE(reader.ok());
  constexpr int kThreads = 8;
  std::vector<TgdProfile> got(kThreads);
  RunTogether(kThreads, [&](int i) {
    got[i] = GetTgdProfile(reader->get(), program->tgds);
  });
  for (const TgdProfile& p : got) {
    EXPECT_EQ(p.primary, cold.primary);
    EXPECT_EQ(p.non_recursive, cold.non_recursive);
  }
  OmqCacheStats stats = (*reader)->Stats();
  EXPECT_EQ(stats.counters.persist_hits, 1u);
  EXPECT_EQ(stats.counters.misses, 1u);
  EXPECT_EQ(stats.counters.hits, static_cast<size_t>(kThreads - 1));
  EXPECT_EQ(stats.counters.insertions, 1u);  // the promotion, nothing else
}

}  // namespace
}  // namespace omqc
