#include "logic/term.h"

#include <atomic>
#include <deque>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "base/string_util.h"

namespace omqc {
namespace {

/// One interning table per term sort that carries a name. Synchronized so
/// worker threads of the parallel containment engine can intern terms
/// concurrently; `names` is a deque, whose element references stay stable
/// across growth, so `Name()` can hand out references without copying.
struct Interner {
  std::mutex mu;
  std::unordered_map<std::string, int32_t> by_name;
  std::deque<std::string> names;

  size_t Size() {
    std::lock_guard<std::mutex> lock(mu);
    return names.size();
  }

  int32_t Intern(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    int32_t id = static_cast<int32_t>(names.size());
    names.push_back(name);
    by_name.emplace(name, id);
    return id;
  }

  const std::string& Name(int32_t id) {
    std::lock_guard<std::mutex> lock(mu);
    return names[static_cast<size_t>(id)];
  }
};

Interner& ConstantInterner() {
  static Interner* interner = new Interner();
  return *interner;
}

Interner& VariableInterner() {
  static Interner* interner = new Interner();
  return *interner;
}

/// 64 bits wide although null ids are int32: draws past INT32_MAX keep
/// counting instead of wrapping, and are reported as exhaustion.
std::atomic<int64_t>& NullCounter() {
  static std::atomic<int64_t>* counter = new std::atomic<int64_t>(0);
  return *counter;
}

}  // namespace

Term Term::Constant(const std::string& name) {
  return Term(TermKind::kConstant, ConstantInterner().Intern(name));
}

Term Term::Variable(const std::string& name) {
  return Term(TermKind::kVariable, VariableInterner().Intern(name));
}

Term Term::FreshNull() {
  int64_t id = NullCounter().fetch_add(1, std::memory_order_relaxed);
  if (id > std::numeric_limits<int32_t>::max()) {
    return Term(TermKind::kNull, -1);  // id space used up: invalid
  }
  return Term(TermKind::kNull, static_cast<int32_t>(id));
}

Term Term::NullWithId(int32_t id) { return Term(TermKind::kNull, id); }

void Term::ReserveNullIds(int32_t bound) {
  std::atomic<int64_t>& counter = NullCounter();
  int64_t current = counter.load(std::memory_order_relaxed);
  while (current < bound &&
         !counter.compare_exchange_weak(current, bound,
                                        std::memory_order_relaxed)) {
  }
}

size_t Term::InternedConstantCount() { return ConstantInterner().Size(); }

std::string Term::ToString() const {
  switch (kind_) {
    case TermKind::kConstant:
      if (id_ < 0) return "<invalid>";
      return ConstantInterner().Name(id_);
    case TermKind::kNull:
      return StrCat("_:n", id_);
    case TermKind::kVariable:
      return VariableInterner().Name(id_);
  }
  return "<invalid>";
}

}  // namespace omqc
