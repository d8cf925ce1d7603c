// omqbench — the omqc end-to-end benchmark program.
//
//   omqbench --workload <serve_hot|contain_corpus> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints one human-readable line per metric, then, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans go to <trace-dir>/trace-<workload>-<seed>.json.
// Exit codes: 0 ran and every answer matched its certificate, 1 an answer
// did not, 2 usage.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "omqbench: %s\nusage: omqbench --workload <serve_hot|"
               "contain_corpus> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  omqbench::RunOptions options;
  std::string trace_dir = ".omqbench";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else if (!ParseNumber(value, &number) || number < 0) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (number <= 0) return Usage("--seconds must be positive");
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& name : omqbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage(("unknown workload " + options.workload).c_str());

  if (options.trace) {
    mkdir(trace_dir.c_str(), 0755);
    options.trace_path = trace_dir + "/trace-" + options.workload + "-" +
                         std::to_string(options.seed) + ".json";
  }

  omqbench::RunReport report = omqbench::RunWorkload(options);

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const omqbench::Metric& m : report.metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  for (const std::string& error : report.errors) {
    std::printf("  error: %s\n", error.c_str());
  }
  if (options.trace) {
    std::printf("  spans: %s\n", options.trace_path.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const omqbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + JsonEscape(m.name) + "\": {\"value\": " +
            value + ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
