#include "cache/artifact_store.h"

#include <chrono>
#include <condition_variable>

#include "base/governor.h"
#include "base/string_util.h"

namespace omqc {

namespace {

/// How often a governed waiter re-checks its own deadline and token while
/// another caller compiles. Cancellation has no wake-up of its own, so
/// this bounds how late a waiter notices it.
constexpr std::chrono::milliseconds kWaitPollInterval{1};

}  // namespace

/// One in-progress compilation of a key. Ends when its leader erases it
/// from flights_ and sets `done` (both under flights_mu_).
struct ArtifactStore::Flight {
  std::thread::id leader;
  std::condition_variable done_cv;
  bool done = false;
};

bool ArtifactStore::WaitWouldCycle(const Flight* flight,
                                   std::thread::id self) const {
  // Follow leader -> the flight that leader waits on -> ... The waits form
  // a forest (this check keeps it one), so the walk ends.
  while (flight != nullptr) {
    if (flight->leader == self) return true;
    auto next = waiting_.find(flight->leader);
    flight = next == waiting_.end() ? nullptr : next->second;
  }
  return false;
}

Result<std::shared_ptr<const void>> ArtifactStore::CompileOnMiss(
    const CacheKey& key, CacheCounters* counters, ResourceGovernor* governor,
    const std::function<Result<std::shared_ptr<const void>>()>& compile) {
  const std::thread::id self = std::this_thread::get_id();
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock<std::mutex> lock(flights_mu_);
    bool waited = false;
    for (;;) {
      auto it = flights_.find(key);
      if (it == flights_.end()) {
        flight = std::make_shared<Flight>();
        flight->leader = self;
        flights_.emplace(key, flight);
        break;
      }
      // Nested compilations (an RHS evaluator needing a rewriting, an
      // enumeration callback evaluating a query) can meet a flight whose
      // leader is blocked on us; compile unshared rather than deadlock.
      std::shared_ptr<Flight> running = it->second;
      if (WaitWouldCycle(running.get(), self)) break;
      if (!waited) {
        waited = true;
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        if (counters != nullptr) ++counters->coalesced;
      }
      waiting_[self] = running.get();
      Status trip;
      while (!running->done && trip.ok()) {
        if (governor == nullptr) {
          running->done_cv.wait(lock);
        } else {
          trip = governor->Poll();
          if (trip.ok()) running->done_cv.wait_for(lock, kWaitPollInterval);
        }
      }
      waiting_.erase(self);
      if (!trip.ok()) return trip;
      // The flight ended: loop to lead the key or join its next flight.
    }
  }
  // Re-check under the flight: the key may have been stored between the
  // caller's first probe and this claim, or by the flight just waited on.
  std::shared_ptr<const void> found = Probe(key, counters, ProbeTally::kResolve);
  if (found == nullptr) found = ProbeBacking(key, counters);
  Result<std::shared_ptr<const void>> result =
      found != nullptr ? Result<std::shared_ptr<const void>>(std::move(found))
                       : compile();
  if (flight != nullptr) {
    std::lock_guard<std::mutex> lock(flights_mu_);
    flights_.erase(key);
    flight->done = true;
    flight->done_cv.notify_all();
  }
  return result;
}

std::string CacheCounters::ToString() const {
  return StrCat("lookups=", lookups, " hits=", hits, " misses=", misses,
                " coalesced=", coalesced, " insertions=", insertions,
                " evictions=", evictions, " bytes_inserted=", bytes_inserted,
                " persist_hits=", persist_hits, " persist_writes=",
                persist_writes, " promotions=", promotions);
}

std::string OmqCacheStats::ToString() const {
  std::string out = StrCat("cache stats: entries=", entries, " bytes=", bytes,
                           " ", counters.ToString());
  if (persist_segments > 0 || persist_entries > 0 ||
      persist_corrupt_records > 0 || persist_version_rejects > 0) {
    out = StrCat(out, " persist_entries=", persist_entries,
                 " persist_segments=", persist_segments,
                 " persist_corrupt_records=", persist_corrupt_records,
                 " persist_version_rejects=", persist_version_rejects);
  }
  return out;
}

}  // namespace omqc
