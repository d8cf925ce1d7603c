// Self-tests of the benchmark itself (not of omqc): the correctness gate
// must catch a wrong certificate, the percentile helper must only report a
// percentile its samples support, and request sets must be a pure function
// of the seed. Run: omqbench_selftest (or `ctest` in the build directory).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void TestPercentiles() {
  using omqbench::HighestSupportedPercentile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  omqbench::Tail t = HighestSupportedPercentile(v);
  Expect(t.level == 99 && t.value == 990 && t.samples == 1000,
         "1000 samples support p99 (10 beyond), not p99.9");
  v.resize(999);
  t = HighestSupportedPercentile(v);
  Expect(t.level == 90 && t.samples == 999,
         "999 samples fall back to p90");
  v.resize(100);
  t = HighestSupportedPercentile(v);
  Expect(t.level == 90 && t.value == 90, "100 samples support p90 = 90");
  v.resize(19);
  t = HighestSupportedPercentile(v);
  Expect(t.level == 0 && t.samples == 19, "19 samples support no percentile");
  Expect(omqbench::PercentileIfSupported(std::vector<double>(99, 1.0), 90)
                 .level == 0,
         "99 samples do not support p90");
  Expect(omqbench::Quantile({5, 1, 3}, 0.5) == 3, "median of 3 samples");
}

void TestDeterminism() {
  using omqbench::DescribeRequestSet;
  std::string hot7 = DescribeRequestSet(omqbench::HotRequests(7));
  Expect(hot7 == DescribeRequestSet(omqbench::HotRequests(7)),
         "serve_hot: same seed, byte-identical request set");
  Expect(hot7 != DescribeRequestSet(omqbench::HotRequests(8)),
         "serve_hot: another seed, another request set");
  omqbench::RequestSet a, b;
  a.programs = omqbench::StratifiedPrograms(11, 120);
  b.programs = omqbench::StratifiedPrograms(11, 120);
  Expect(DescribeRequestSet(a) == DescribeRequestSet(b),
         "contain_corpus: same seed, byte-identical corpus");
  b.programs = omqbench::StratifiedPrograms(12, 120);
  Expect(DescribeRequestSet(a) != DescribeRequestSet(b),
         "contain_corpus: another seed, another corpus");
}

void TestCorpusMix() {
  std::vector<omqbench::BenchProgram> corpus =
      omqbench::StratifiedPrograms(3, 100);
  const auto& cells = omqbench::CorpusCells();
  bool mix_ok = true;
  for (const omqbench::Cell& cell : cells) {
    int n = 0;
    for (const auto& p : corpus) {
      if (p.spec.tgd_class == cell.klass && p.spec.contained == cell.contained &&
          (cell.walks == 0 || cell.walks == std::min(p.walk_tiles, 2))) {
        ++n;
      }
    }
    mix_ok = mix_ok && n == cell.per_deck;
  }
  Expect(mix_ok, "every deck of 100 holds each cell's share");
}

void TestGate() {
  for (const std::string& workload : omqbench::WorkloadNames()) {
    omqbench::RunOptions o;
    o.workload = workload;
    o.seed = 5;
    o.seconds = 0.3;
    omqbench::RunReport clean = omqbench::RunWorkload(o);
    Expect(clean.correct && clean.attempted > 0 && clean.failed == 0,
           workload + ": a clean run passes the gate");
    o.flip_program = 0;
    omqbench::RunReport flipped = omqbench::RunWorkload(o);
    Expect(!flipped.correct,
           workload + ": one flipped polarity fails the run");
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestDeterminism();
  TestCorpusMix();
  TestGate();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
