// One benchmark run: builds the workload's world, serves it in-process
// on an ephemeral loopback port, drives it in a closed loop, checks
// every answer, and reports the end-to-end metrics (untraced) or the
// per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace sunchase::routebench {

struct RunOptions {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = keep them in memory).
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload. Human-readable progress and tables go to stdout;
/// failed checks are described on stderr. Throws only when the world
/// cannot be built or served at all.
[[nodiscard]] RunReport run_workload(const RunOptions& options);

}  // namespace sunchase::routebench
