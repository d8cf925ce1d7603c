// The benchmark's two workloads (see NOTES.md):
//
//   serve_hot       one closed-loop client per core, 8 programs repeated
//                   (cache-warm)
//   contain_corpus  one thread, CLI-style library calls on a scenario corpus
//
// An untraced run reports the end-to-end metrics; a traced run reports the
// per-layer metrics from spans recorded around the calls into each layer.

#ifndef OMQBENCH_WORKLOADS_H_
#define OMQBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace omqbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans ("" = keep them in memory only).
  std::string trace_path;
  /// Self-test hook: flips the certified Q1 ⊆ Q2 polarity of this program
  /// index, which the correctness gate must then reject (-1 = off).
  int flip_program = -1;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few correctness failures
  std::vector<Metric> metrics;      ///< end-to-end, or per-layer if traced
  std::vector<std::string> notes;   ///< human-readable extras
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. An unknown workload name yields a report with
/// correct = false and attempted = 0.
RunReport RunWorkload(const RunOptions& options);

}  // namespace omqbench

#endif  // OMQBENCH_WORKLOADS_H_
