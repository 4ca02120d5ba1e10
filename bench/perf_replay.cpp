// In-process replay of a routebench workload's plan step: builds the
// workload's world and trip list for a seed with the benchmark's own
// generator (routebench/src/workload.cpp, compiled into this binary),
// then plans every trip through SunChasePlanner::plan with the route
// server's defaults (slot pricing, time budget 1.5, selection on), one
// untimed warm pass and then `passes` timed ones. No sockets, HTTP or
// JSON: what it times is search and selection, so two builds compared
// pass for pass show a change in the planner without routebench's
// serve layers and host drift between separate runs.
//
//   perf_replay <workload> [seed=1] [passes=5]
//
// Prints each pass and then the fastest pass's wall and thread CPU
// milliseconds with the pass's label and dominance-check totals, which
// must be equal on every pass (a count change is a behaviour change,
// not noise). Exits 1 when two passes disagree on a count or the
// workload name is unknown.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workload.h"

#include "sunchase/core/planner.h"
#include "sunchase/obs/profiler.h"

using namespace sunchase;

namespace {

struct Pass {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::size_t labels = 0;
  std::size_t dominance_checks = 0;
};

Pass run_pass(const core::SunChasePlanner& planner,
              const std::vector<routebench::Trip>& trips) {
  Pass pass;
  const auto started = std::chrono::steady_clock::now();
  const double cpu_started = obs::thread_cpu_seconds();
  for (const routebench::Trip& trip : trips) {
    const core::PlanResult plan =
        planner.plan(trip.origin, trip.destination, trip.departure);
    pass.labels += plan.search_stats.labels_created;
    pass.dominance_checks += plan.search_stats.dominance_checks;
  }
  pass.cpu_seconds = obs::thread_cpu_seconds() - cpu_started;
  const auto elapsed = std::chrono::steady_clock::now() - started;
  pass.wall_seconds = std::chrono::duration<double>(elapsed).count();
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perf_replay <workload> [seed] [passes]\n"
                         "workloads: %s\n",
                 routebench::workload_names().c_str());
    return 1;
  }
  const routebench::WorkloadSpec* spec = routebench::find_workload(argv[1]);
  if (spec == nullptr) {
    std::fprintf(stderr, "perf_replay: unknown workload '%s' (%s)\n", argv[1],
                 routebench::workload_names().c_str());
    return 1;
  }
  const auto seed =
      static_cast<std::uint64_t>(argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                          : 1);
  const int passes = std::max(1, argc > 3 ? std::atoi(argv[3]) : 5);

  const routebench::BuiltWorld built = routebench::build_world(*spec);
  const roadnet::GridCity city(routebench::city_options(*spec));
  const std::vector<routebench::Trip> trips =
      routebench::make_trips(*spec, city, seed);

  // RouteServiceOptions' defaults: slot pricing, every other MLC and
  // selection option at its default.
  core::PlannerOptions options;
  options.mlc.pricing = core::PricingMode::SlotQuantized;
  const core::SunChasePlanner planner(built.world, options);

  std::printf("perf_replay %s seed %llu: %zu trips, 1 warm + %d timed "
              "passes\n",
              spec->name, static_cast<unsigned long long>(seed), trips.size(),
              passes);
  const Pass warm = run_pass(planner, trips);
  Pass fastest;
  for (int p = 0; p < passes; ++p) {
    const Pass pass = run_pass(planner, trips);
    std::printf("pass %d: %.3f ms wall, %.3f ms cpu\n", p + 1,
                1e3 * pass.wall_seconds, 1e3 * pass.cpu_seconds);
    if (pass.labels != warm.labels ||
        pass.dominance_checks != warm.dominance_checks) {
      std::fprintf(stderr,
                   "perf_replay: pass %d counted %zu labels and %zu checks, "
                   "the warm pass %zu and %zu\n",
                   p + 1, pass.labels, pass.dominance_checks, warm.labels,
                   warm.dominance_checks);
      return 1;
    }
    if (p == 0 || pass.wall_seconds < fastest.wall_seconds) fastest = pass;
  }
  std::printf("fastest %.3f ms wall, thread cpu %.3f ms, labels %zu, "
              "dominance_checks %zu\n",
              1e3 * fastest.wall_seconds, 1e3 * fastest.cpu_seconds,
              fastest.labels, fastest.dominance_checks);
  return 0;
}
