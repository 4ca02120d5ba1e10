// Batch-query throughput scaling: the paper-world graph, the four
// Table R-I origin/destination pairs replicated across departure times,
// fanned out by core::BatchPlanner over 1/2/4/8 workers — once per
// pricing mode (Exact re-evaluates the solar map per label expansion;
// SlotQuantized reads the shared per-(edge, slot) cost cache). Reports
// queries/sec, speedup vs the single-worker run, and the slot-cache hit
// rate, and writes BENCH_batch.json (bench_report.h layout) whose peak
// throughput CI gates. This is the server-side pre-computation workload
// of the SCORE deployment model: one process answering a fleet's route
// queries per solar-map refresh.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_report.h"
#include "paper_world.h"

#include "sunchase/core/batch_planner.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/obs/profiler.h"

using namespace sunchase;

namespace {

std::vector<core::BatchQuery> make_queries(const bench::PaperWorld& world,
                                           int replicas) {
  // 4 OD pairs x 6 departures x replicas; departures span the paper's
  // 8:00-18:30 window so queries hit different solar-map slots.
  const std::vector<TimeOfDay> departures = {
      TimeOfDay::hms(8, 30),  TimeOfDay::hms(10, 0), TimeOfDay::hms(12, 0),
      TimeOfDay::hms(14, 30), TimeOfDay::hms(16, 0), TimeOfDay::hms(17, 30)};
  std::vector<core::BatchQuery> queries;
  for (int r = 0; r < replicas; ++r)
    for (const auto& pair : world.routing_pairs())
      for (const TimeOfDay dep : departures)
        queries.push_back({pair.origin, pair.destination, dep});
  return queries;
}

struct Sample {
  const char* pricing = "exact";
  std::size_t workers = 0;
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
  double speedup = 1.0;
  double cache_hit_rate = 0.0;  ///< 0 under Exact (no cache)
  double cpu_seconds = 0.0;     ///< summed worker CPU of the sweep
};

/// One timed sweep at the given configuration, for the profiler
/// overhead measurement: the same work with the sampler on vs off.
double sweep_qps(const core::WorldPtr& snapshot,
                 const std::vector<core::BatchQuery>& queries,
                 std::size_t workers, core::PricingMode pricing,
                 int repeats) {
  core::BatchPlannerOptions opt;
  opt.workers = workers;
  opt.mlc.max_time_factor = 1.5;
  opt.mlc.pricing = pricing;
  const core::BatchPlanner planner(snapshot, opt);
  double best = 0.0;
  // Best-of-N damps scheduler noise; overhead shows up as a lower best.
  for (int r = 0; r < repeats; ++r) {
    const core::BatchResult result = planner.plan_all(queries);
    if (result.stats.queries_per_second > best)
      best = result.stats.queries_per_second;
  }
  return best;
}

/// Slot-cache hit rate over one sweep: hits / (hits + misses) from the
/// counter deltas, 0 when the cache never ran.
double hit_rate(std::uint64_t hits_before, std::uint64_t misses_before) {
  auto& reg = obs::Registry::global();
  const double hits =
      static_cast<double>(reg.counter("slotcache.hits").value() - hits_before);
  const double misses = static_cast<double>(
      reg.counter("slotcache.misses").value() - misses_before);
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int replicas = argc > 1 ? std::atoi(argv[1]) : 2;
  bench::banner("batch-query throughput scaling",
                "SCORE deployment model: server-side fleet pre-computation");

  const bench::PaperWorld world;
  const core::WorldPtr snapshot = world.world_at(Watts{200.0});
  const auto queries = make_queries(world, replicas);
  std::printf("paper world 12x12, %zu queries (4 OD pairs x 6 departures "
              "x %d replicas)\n",
              queries.size(), replicas);

  // Profile the whole scaling sweep at the default 10 ms interval: the
  // folded top-10 printed below shows where the batch workload's cycles
  // went, not just how fast it was.
  obs::Profiler::global().start();

  std::vector<Sample> samples;
  for (const core::PricingMode pricing :
       {core::PricingMode::Exact, core::PricingMode::SlotQuantized}) {
    std::printf("\n--- %s pricing ---\n", core::pricing_name(pricing));
    double base_qps = 0.0;
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      auto& reg = obs::Registry::global();
      const std::uint64_t hits_before = reg.counter("slotcache.hits").value();
      const std::uint64_t misses_before =
          reg.counter("slotcache.misses").value();

      core::BatchPlannerOptions opt;
      opt.workers = workers;
      opt.mlc.max_time_factor = 1.5;
      opt.mlc.pricing = pricing;
      const core::BatchPlanner planner(snapshot, opt);
      const core::BatchResult result = planner.plan_all(queries);

      Sample s;
      s.pricing = core::pricing_name(pricing);
      s.workers = workers;
      s.wall_seconds = result.stats.wall_seconds;
      s.queries_per_second = result.stats.queries_per_second;
      if (base_qps == 0.0) base_qps = s.queries_per_second;
      s.speedup = s.queries_per_second / base_qps;
      s.cache_hit_rate = hit_rate(hits_before, misses_before);
      s.cpu_seconds = result.stats.cpu_seconds;
      samples.push_back(s);

      std::printf("workers=%zu  wall=%7.3f s  throughput=%7.2f q/s  "
                  "speedup=%5.2fx  hit_rate=%.3f  cpu=%6.3f s  "
                  "(ok=%zu fail=%zu, %zu labels, p50=%.1f ms "
                  "p95=%.1f ms)\n",
                  workers, s.wall_seconds, s.queries_per_second, s.speedup,
                  s.cache_hit_rate, s.cpu_seconds, result.stats.succeeded,
                  result.stats.failed, result.stats.totals.labels_created,
                  result.stats.latency.quantile(0.50) * 1e3,
                  result.stats.latency.quantile(0.95) * 1e3);
    }
  }

  // Freeze the sweep's folds, then measure what the sampler costs: the
  // same slot-pricing 4-worker run, best-of-3, sampler off vs on. The
  // claim tracked in EXPERIMENTS.md is <= 2% at the 10 ms default.
  obs::Profiler::global().stop();
  const std::vector<obs::ProfileEntry> top =
      obs::Profiler::global().entries(10);
  std::printf("\nprofile: top stacks (%llu samples, %llu idle)\n",
              static_cast<unsigned long long>(
                  obs::Profiler::global().samples_total()),
              static_cast<unsigned long long>(
                  obs::Profiler::global().samples_idle()));
  for (const obs::ProfileEntry& entry : top)
    std::printf("  %8llu  %s\n",
                static_cast<unsigned long long>(entry.count),
                entry.stack.c_str());

  const double qps_off = sweep_qps(snapshot, queries, 4,
                                   core::PricingMode::SlotQuantized, 3);
  obs::Profiler::global().start();
  const double qps_on = sweep_qps(snapshot, queries, 4,
                                  core::PricingMode::SlotQuantized, 3);
  obs::Profiler::global().stop();
  const double overhead_pct =
      qps_off > 0.0 ? (qps_off - qps_on) / qps_off * 100.0 : 0.0;
  std::printf("profiler overhead: %.2f q/s off vs %.2f q/s on "
              "-> %.2f%% (10 ms interval, slot, 4 workers)\n",
              qps_off, qps_on, overhead_pct);

  bench::Report report("perf_batch_scaling");
  report.add("queries", {}, static_cast<double>(queries.size()), "count");
  double peak_qps = 0.0;
  for (const Sample& s : samples) {
    const bench::Labels labels = {{"pricing", s.pricing},
                                  {"workers", std::to_string(s.workers)}};
    report.add("wall_seconds", labels, s.wall_seconds, "s");
    report.add("queries_per_second", labels, s.queries_per_second, "1/s");
    report.add("speedup", labels, s.speedup, "x");
    report.add("cache_hit_rate", labels, s.cache_hit_rate, "ratio");
    report.add("cpu_seconds", labels, s.cpu_seconds, "s");
    peak_qps = std::max(peak_qps, s.queries_per_second);
  }
  // 25% below the committed peak: wide enough for a shared CI runner
  // against the dev container the baseline came from.
  report.add("peak_queries_per_second", {}, peak_qps, "1/s",
             bench::baseline_at_least(0.75));
  report.add("profiler_overhead_pct", {}, overhead_pct, "%");
  // One SlotCostCache per (world version, vehicle): the bytes trend
  // catches an accidental per-worker duplication.
  report.add("world_version", {}, static_cast<double>(snapshot->version()),
             "version");
  report.add("slotcache_bytes", {},
             static_cast<double>(
                 snapshot->slot_cache(bench::PaperWorld::kLv).bytes()),
             "bytes");
  return report.write(argc > 2 ? argv[2] : "BENCH_batch.json") ? 0 : 1;
}
