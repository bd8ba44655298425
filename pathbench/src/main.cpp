// alpha_pathbench: one ALPHA path workload per invocation.
//
//   alpha_pathbench --workload stream-c16|paced-base|relay-mix --seed N
//                   --seconds S --trace 0|1 [--inject payload|forged]
//                   [--trace-dir DIR]
//
// Prints every metric by name and unit, each failed check, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced, the per-layer metrics with --trace 1. Exits
// 1 when any correctness check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "trace/build_info.hpp"

using namespace pathbench;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload stream-c16|paced-base|relay-mix --seed N "
               "--seconds S --trace 0|1 [--inject payload|forged] "
               "[--trace-dir DIR]\n",
               argv0);
  return 2;
}

void print_metrics(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, v] : m) {
    std::printf("  %-34s %16.4f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--inject") {
      opts.inject = v;
    } else if (flag == "--trace-dir") {
      opts.trace_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || opts.seconds <= 0 ||
      (!opts.inject.empty() && opts.inject != "payload" &&
       opts.inject != "forged")) {
    return usage(argv[0]);
  }
  RunResult (*run)(const RunOptions&) = nullptr;
  if (opts.workload == "stream-c16") run = run_stream_c16;
  if (opts.workload == "paced-base") run = run_paced_base;
  if (opts.workload == "relay-mix") run = run_relay_mix;
  if (run == nullptr) return usage(argv[0]);

  std::printf("alpha_build_info: %s\n", alpha::trace::build_info_line().c_str());
  std::printf("workload %s seed %llu seconds %.3f trace %d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  const RunResult r = run(opts);

  print_metrics("end-to-end:", r.end_to_end);
  if (opts.trace) print_metrics("per-layer:", r.layers);
  std::printf("  %-34s %16.6f ratio (%llu of %llu operations)\n",
              "failed_op_share",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 1.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const auto& f : r.failures) std::printf("FAILED: %s\n", f.c_str());

  const bool correct = r.failed == 0 && r.attempted > 0;
  const Metrics& shown = opts.trace ? r.layers : r.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : shown) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v.value);
    json += (first ? "" : ", ") + std::string("\"") + json_escape(name) +
            "\": {\"value\": " + num + ", \"unit\": \"" +
            json_escape(v.unit) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
