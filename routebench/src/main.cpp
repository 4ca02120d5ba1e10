// routebench — the route server's benchmark.
//
//   routebench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans-out FILE]
//   routebench --self-test
//
// Builds the workload's world, serves it in-process on an ephemeral
// loopback port and drives it in a closed loop, checking every answer.
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics when --trace 0 and
// the per-layer metrics when --trace 1. Exit status: 0 when every check
// passed, 1 when one failed (the numbers are still printed), 2 on a
// usage error or a world that cannot be served.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "driver.h"

namespace sunchase::routebench {
int run_self_tests();
}  // namespace sunchase::routebench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n"
               "       %s --self-test\n"
               "workloads: %s\n",
               argv0, argv0, sunchase::routebench::workload_names().c_str());
  return 2;
}

bool parse_uint(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

void print_report(const sunchase::routebench::RunReport& report) {
  for (const sunchase::routebench::Metric& m : report.metrics)
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const sunchase::routebench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test")
    return sunchase::routebench::run_self_tests();

  sunchase::routebench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = sunchase::routebench::find_workload(value);
      if (options.workload == nullptr) return usage(argv[0]);
    } else if (arg == "--seed" && parse_uint(value, number)) {
      options.seed = number;
      have_seed = true;
    } else if (arg == "--seconds" && parse_uint(value, number) && number > 0) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (arg == "--trace" && parse_uint(value, number) && number <= 1) {
      options.trace = number == 1;
      have_trace = true;
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.workload == nullptr || !have_seed || !have_seconds ||
      !have_trace)
    return usage(argv[0]);

  try {
    const sunchase::routebench::RunReport report = sunchase::routebench::run_workload(options);
    std::fflush(stderr);
    print_report(report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "routebench: %s\n", e.what());
    return 2;
  }
}
