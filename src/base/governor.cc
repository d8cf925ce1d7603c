#include "base/governor.h"

#include <algorithm>

#include "base/fault_injection.h"

namespace omqc {

namespace {
constexpr int kOkCode = static_cast<int>(StatusCode::kOk);

const char* DefaultDetail(StatusCode code) {
  switch (code) {
    case StatusCode::kDeadlineExceeded:
      return "governor: wall-clock deadline exceeded";
    case StatusCode::kCancelled:
      return "governor: request cancelled";
    case StatusCode::kResourceExhausted:
      return "governor: memory budget exceeded";
    default:
      return "governor tripped";
  }
}
}  // namespace

void GovernorCounters::Merge(const GovernorCounters& other) {
  checks = std::max(checks, other.checks);
  deadline_trips = std::max(deadline_trips, other.deadline_trips);
  cancel_trips = std::max(cancel_trips, other.cancel_trips);
  memory_trips = std::max(memory_trips, other.memory_trips);
}

Status ResourceGovernor::Trip(StatusCode code, const char* detail) {
  int expected = kOkCode;
  if (trip_code_.compare_exchange_strong(expected, static_cast<int>(code),
                                         std::memory_order_acq_rel)) {
    ResourceGovernor* r = root();
    switch (code) {
      case StatusCode::kDeadlineExceeded:
        r->deadline_trips_.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kCancelled:
        r->cancel_trips_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        r->memory_trips_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    trip_detail_.store(detail, std::memory_order_release);
  }
  return TripStatus();
}

Status ResourceGovernor::Latch(StatusCode code, const char* detail) {
  // Inherit a trip first observed on an ancestor: latch locally so later
  // checks hit the fast path, but the ancestor already counted the trip.
  int expected = kOkCode;
  if (trip_code_.compare_exchange_strong(expected, static_cast<int>(code),
                                         std::memory_order_acq_rel)) {
    trip_detail_.store(detail, std::memory_order_release);
  }
  return TripStatus();
}

Status ResourceGovernor::TripStatus() const {
  int code = trip_code_.load(std::memory_order_acquire);
  if (code == kOkCode) return Status::OK();
  const char* detail = trip_detail_.load(std::memory_order_acquire);
  StatusCode sc = static_cast<StatusCode>(code);
  return Status(sc, detail != nullptr ? detail : DefaultDetail(sc));
}

FaultInjector* ResourceGovernor::InjectorInChain() const {
  for (const ResourceGovernor* g = this; g != nullptr; g = g->parent_) {
    FaultInjector* fi = g->fault_injector_.load(std::memory_order_acquire);
    if (fi != nullptr) return fi;
  }
  return nullptr;
}

Status ResourceGovernor::Check() {
  ResourceGovernor* r = root();
  uint64_t n = r->checks_.fetch_add(1, std::memory_order_relaxed) + 1;

  if (r->injector_hint_.load(std::memory_order_acquire)) {
    if (FaultInjector* fi = InjectorInChain()) {
      StatusCode injected = fi->OnGovernorCheck(n);
      if (injected != StatusCode::kOk) {
        return Trip(injected, DefaultDetail(injected));
      }
    }
  }

  int64_t now_ns = 0;
  if (n % kClockStride == 0) {
    now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now().time_since_epoch())
                 .count();
  }
  return CheckChain(now_ns);
}

Status ResourceGovernor::Poll() {
  return CheckChain(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count());
}

Status ResourceGovernor::CheckChain(int64_t now_ns) {
  for (ResourceGovernor* g = this; g != nullptr; g = g->parent_) {
    int code = g->trip_code_.load(std::memory_order_acquire);
    if (code != kOkCode) {
      const char* detail = g->trip_detail_.load(std::memory_order_acquire);
      StatusCode sc = static_cast<StatusCode>(code);
      if (detail == nullptr) detail = DefaultDetail(sc);
      if (g == this) return Status(sc, detail);
      return Latch(sc, detail);
    }
    if (g->token_.cancelled()) {
      if (g == this) return Trip(StatusCode::kCancelled, DefaultDetail(StatusCode::kCancelled));
      // The cancelled ancestor counts the trip; we just inherit it.
      g->Trip(StatusCode::kCancelled, DefaultDetail(StatusCode::kCancelled));
      return Latch(StatusCode::kCancelled,
                   DefaultDetail(StatusCode::kCancelled));
    }
    if (now_ns != 0) {
      int64_t deadline = g->deadline_ns_.load(std::memory_order_acquire);
      if (deadline != 0 && now_ns >= deadline) {
        if (g == this) {
          return Trip(StatusCode::kDeadlineExceeded,
                      DefaultDetail(StatusCode::kDeadlineExceeded));
        }
        g->Trip(StatusCode::kDeadlineExceeded,
                DefaultDetail(StatusCode::kDeadlineExceeded));
        return Latch(StatusCode::kDeadlineExceeded,
                     DefaultDetail(StatusCode::kDeadlineExceeded));
      }
    }
  }
  return Status::OK();
}

Status ResourceGovernor::ChargeBytes(size_t bytes) {
  ResourceGovernor* r = root();
  uint64_t n = r->charges_.fetch_add(1, std::memory_order_relaxed) + 1;

  if (r->injector_hint_.load(std::memory_order_acquire)) {
    if (FaultInjector* fi = InjectorInChain()) {
      if (fi->OnMemoryCharge(n)) {
        return Trip(StatusCode::kResourceExhausted,
                    "governor: memory budget exceeded (injected)");
      }
    }
  }

  for (ResourceGovernor* g = this; g != nullptr; g = g->parent_) {
    int code = g->trip_code_.load(std::memory_order_acquire);
    if (code != kOkCode) {
      StatusCode sc = static_cast<StatusCode>(code);
      const char* detail = g->trip_detail_.load(std::memory_order_acquire);
      if (detail == nullptr) detail = DefaultDetail(sc);
      return g == this ? Status(sc, detail) : Latch(sc, detail);
    }
  }

  // Account at every level before checking any budget, so charge/release
  // pairs stay balanced per level even when a budget trips mid-walk.
  for (ResourceGovernor* g = this; g != nullptr; g = g->parent_) {
    g->charged_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  for (ResourceGovernor* g = this; g != nullptr; g = g->parent_) {
    size_t total = g->charged_bytes_.load(std::memory_order_relaxed);
    size_t budget = g->memory_budget_.load(std::memory_order_acquire);
    if (budget != 0 && total > budget) {
      // The trip belongs to the governor whose budget was exceeded (it may
      // be an ancestor — e.g. the user's request governor above an engine
      // child); latch locally so later probes here hit the fast path.
      if (g == this) {
        return Trip(StatusCode::kResourceExhausted,
                    DefaultDetail(StatusCode::kResourceExhausted));
      }
      g->Trip(StatusCode::kResourceExhausted,
              DefaultDetail(StatusCode::kResourceExhausted));
      return Latch(StatusCode::kResourceExhausted,
                   DefaultDetail(StatusCode::kResourceExhausted));
    }
  }
  return Status::OK();
}

void ResourceGovernor::ReleaseBytes(size_t bytes) {
  // Saturating subtraction at every level: a tripped request's releases
  // may exceed what was accounted (post-trip charges are rejected before
  // accounting), and a long-lived server chain must never wrap.
  for (ResourceGovernor* g = this; g != nullptr; g = g->parent_) {
    size_t current = g->charged_bytes_.load(std::memory_order_relaxed);
    while (true) {
      size_t next = current >= bytes ? current - bytes : 0;
      if (g->charged_bytes_.compare_exchange_weak(
              current, next, std::memory_order_relaxed)) {
        break;
      }
    }
  }
}

GovernorCounters ResourceGovernor::counters() const {
  const ResourceGovernor* r = root();
  GovernorCounters c;
  c.checks = r->checks_.load(std::memory_order_relaxed);
  c.deadline_trips = r->deadline_trips_.load(std::memory_order_relaxed);
  c.cancel_trips = r->cancel_trips_.load(std::memory_order_relaxed);
  c.memory_trips = r->memory_trips_.load(std::memory_order_relaxed);
  return c;
}

Status TripStatusOr(const ResourceGovernor* governor, Status fallback) {
  if (governor != nullptr) {
    Status trip = governor->TripStatus();
    if (!trip.ok()) return trip;
  }
  return fallback;
}

}  // namespace omqc
