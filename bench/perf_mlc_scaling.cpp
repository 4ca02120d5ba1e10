// MLC search-space pruning scaling: corner-to-corner Pareto searches on
// generated n x n cities (hashed shading, urban traffic), run with the
// reverse-Dijkstra lower-bound pruning on vs off and swept over the
// epsilon-dominance merge factor on the largest world. The paper notes
// the Pareto search is the expensive step its route merging exists to
// tame; this bench tracks what the budget pruning actually saves
// (labels created, queue pops, dominance checks, latency) and what an
// approximate merge costs in Pareto coverage. Writes BENCH_mlc.json
// (bench_report.h layout), whose gates pin every row's counts to the
// committed baseline. Exits 1 when the pruned and unpruned frontiers
// differ, or when two repeats of one configuration report different
// counts.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "paper_world.h"

#include "sunchase/core/mlc.h"

using namespace sunchase;

namespace {

struct ScalingWorld {
  explicit ScalingWorld(int n)
      : city(options_for(n)), proj(city.options().origin) {
    core::WorldInit init;
    init.graph = std::make_shared<const roadnet::RoadGraph>(city.graph());
    init.shading = std::make_shared<const shadow::ShadingProfile>(
        shadow::ShadingProfile::compute(
            *init.graph,
            [](roadnet::EdgeId e, TimeOfDay when) {
              const auto h = static_cast<std::uint64_t>(e) * 2654435761u +
                             static_cast<std::uint64_t>(when.slot_index());
              return static_cast<double>(h % 900) / 1000.0;
            },
            TimeOfDay::hms(8, 0), TimeOfDay::hms(18, 0)));
    init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
        roadnet::UrbanTraffic::Options{});
    init.panel_power = solar::constant_panel_power(Watts{200.0});
    init.vehicles.push_back(std::shared_ptr<const ev::ConsumptionModel>(
        ev::make_lv_prototype()));
    world = core::World::create(std::move(init));
  }

  static roadnet::GridCityOptions options_for(int n) {
    roadnet::GridCityOptions opt;
    opt.rows = n;
    opt.cols = n;
    return opt;
  }

  roadnet::GridCity city;
  geo::LocalProjection proj;
  core::WorldPtr world;
};

ScalingWorld& world_of(int n) {
  static std::map<int, std::unique_ptr<ScalingWorld>> cache;
  auto& slot = cache[n];
  if (!slot) slot = std::make_unique<ScalingWorld>(n);
  return *slot;
}

struct Sample {
  int n = 0;
  const char* mode = "pruned";  ///< "pruned" or "unpruned"
  double epsilon = 0.0;
  double queries_per_second = 0.0;
  double search_seconds = 0.0;      ///< mean per query
  double lower_bound_seconds = 0.0; ///< mean per query (0 unpruned)
  std::size_t labels_created = 0;
  std::size_t labels_pruned_bound = 0;
  std::size_t labels_merged_epsilon = 0;
  std::size_t queue_pops = 0;
  std::size_t pareto_size = 0;
  std::size_t dominance_checks = 0;  ///< bag rows the insert scans read
  /// False when two repeats reported different counts.
  bool deterministic = true;

  [[nodiscard]] double checks_per_label() const {
    if (labels_created == 0) return 0.0;
    return static_cast<double>(dominance_checks) /
           static_cast<double>(labels_created);
  }
};

/// The counts a repeat must reproduce exactly.
bool same_counts(const Sample& s, const core::MlcStats& stats) {
  return s.labels_created == stats.labels_created &&
         s.labels_pruned_bound == stats.labels_pruned_bound &&
         s.labels_merged_epsilon == stats.labels_merged_epsilon &&
         s.queue_pops == stats.queue_pops &&
         s.pareto_size == stats.pareto_size &&
         s.dominance_checks == stats.dominance_checks;
}

/// Every configuration repeats until its searches have run this long
/// in total, as well as at least `repeats` times. The n = 6 search
/// that sets the peak q/s gate takes 25-45 us, so its best of 2 or 3
/// read whatever the host was doing in that instant; 50 ms gives it
/// over a thousand tries. The n = 32 searches take longer than this
/// alone and still run `repeats` times.
constexpr double kMinSearchSeconds = 0.05;

/// Best-of-`repeats` search at one configuration (more repeats for
/// fast searches, see kMinSearchSeconds); timings come from the fastest
/// repeat. The search is deterministic, so every repeat must report the
/// same counts; `deterministic` records whether they did (a kernel
/// reading garbage bag lanes would not).
Sample run_config(int n, bool prune, double epsilon, int repeats) {
  ScalingWorld& w = world_of(n);
  core::MlcOptions opt;
  opt.max_time_factor = 1.1;
  opt.prune_with_lower_bounds = prune;
  opt.epsilon = epsilon;
  const core::MultiLabelCorrecting solver(w.world, opt);
  Sample s;
  s.n = n;
  s.mode = prune ? "pruned" : "unpruned";
  s.epsilon = epsilon;
  double total_seconds = 0.0;
  for (int r = 0; r < repeats || total_seconds < kMinSearchSeconds; ++r) {
    const auto result = solver.search(w.city.node_at(0, 0),
                                      w.city.node_at(n - 1, n - 1),
                                      TimeOfDay::hms(10, 0));
    total_seconds += result.stats.search_seconds;
    if (r == 0) {
      s.labels_created = result.stats.labels_created;
      s.labels_pruned_bound = result.stats.labels_pruned_bound;
      s.labels_merged_epsilon = result.stats.labels_merged_epsilon;
      s.queue_pops = result.stats.queue_pops;
      s.pareto_size = result.stats.pareto_size;
      s.dominance_checks = result.stats.dominance_checks;
    } else if (!same_counts(s, result.stats)) {
      s.deterministic = false;
    }
    if (r == 0 || result.stats.search_seconds < s.search_seconds) {
      s.search_seconds = result.stats.search_seconds;
      s.lower_bound_seconds = result.stats.lower_bound_seconds;
    }
  }
  s.queries_per_second = s.search_seconds > 0.0 ? 1.0 / s.search_seconds : 0.0;
  return s;
}

/// Full Pareto frontier (cost vectors only) at one configuration.
std::vector<core::Criteria> frontier(int n, bool prune, double epsilon) {
  ScalingWorld& w = world_of(n);
  core::MlcOptions opt;
  opt.max_time_factor = 1.1;
  opt.prune_with_lower_bounds = prune;
  opt.epsilon = epsilon;
  const core::MultiLabelCorrecting solver(w.world, opt);
  const auto result = solver.search(w.city.node_at(0, 0),
                                    w.city.node_at(n - 1, n - 1),
                                    TimeOfDay::hms(10, 0));
  std::vector<core::Criteria> costs;
  costs.reserve(result.routes.size());
  for (const auto& route : result.routes) costs.push_back(route.cost);
  return costs;
}

/// Coverage error of an approximate frontier vs the exact one: for each
/// exact point, the smallest factor by which some approximate point is
/// worse in its worst criterion; the sweep reports the max over exact
/// points. 0 means every exact point is (weakly) covered.
double coverage_error(const std::vector<core::Criteria>& exact,
                      const std::vector<core::Criteria>& approx) {
  double worst = 0.0;
  for (const core::Criteria& e : exact) {
    double best = std::numeric_limits<double>::infinity();
    for (const core::Criteria& a : approx) {
      auto ratio = [](double av, double ev) {
        if (av <= ev) return 0.0;
        return ev > 1e-12 ? (av - ev) / ev
                          : std::numeric_limits<double>::infinity();
      };
      const double over =
          std::max({ratio(a.travel_time.value(), e.travel_time.value()),
                    ratio(a.shaded_time.value(), e.shaded_time.value()),
                    ratio(a.energy_out.value(), e.energy_out.value())});
      best = std::min(best, over);
    }
    worst = std::max(worst, best);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const int repeats = argc > 1 ? std::atoi(argv[1]) : 3;
  bench::banner("MLC search-space pruning scaling",
                "budget pruning + epsilon-dominance on the Pareto search");

  // 16-32 are the sizes where bags grow to hundreds of rows and the
  // insert scan dominates the search (about 381 rows read per label at
  // n = 32).
  const std::vector<int> sizes = {6, 8, 10, 12, 16, 24, 32};
  const int largest = sizes.back();

  // A repeat that disagrees with the first on any count fails the run.
  bool deterministic = true;
  auto check_repeats = [&](const Sample& s) {
    if (s.deterministic) return;
    deterministic = false;
    std::fprintf(stderr,
                 "error: repeats disagree on counts at n=%d %s epsilon=%.2f\n",
                 s.n, s.mode, s.epsilon);
  };

  std::vector<Sample> samples;
  const double min_ms = kMinSearchSeconds * 1e3;
  std::printf("corner-to-corner searches, time budget 1.1x, 10:00, "
              "best of at least %d and %.0f ms\n\n", repeats, min_ms);
  std::printf("%4s %9s %8s %9s %8s %10s %10s %7s %10s %12s\n", "n", "mode",
              "ms", "lb_ms", "labels", "pruned", "pops", "pareto", "checks",
              "checks/label");
  for (const int n : sizes) {
    for (const bool prune : {false, true}) {
      const Sample s = run_config(n, prune, 0.0, repeats);
      check_repeats(s);
      samples.push_back(s);
      std::printf("%4d %9s %8.2f %9.3f %8zu %10zu %10zu %7zu %10zu %12.1f\n",
                  s.n, s.mode, s.search_seconds * 1e3,
                  s.lower_bound_seconds * 1e3, s.labels_created,
                  s.labels_pruned_bound, s.queue_pops, s.pareto_size,
                  s.dominance_checks, s.checks_per_label());
    }
  }

  // Exactness spot check riding along with the measurement: pruning at
  // epsilon = 0 must not change the frontier (the tests pin this too,
  // but a silent regression here would quietly invalidate the bench's
  // pruned-vs-unpruned comparison).
  const std::vector<core::Criteria> exact = frontier(largest, false, 0.0);
  if (frontier(largest, true, 0.0) != exact) {
    std::fprintf(stderr,
                 "error: pruned frontier differs from unpruned at n=%d\n",
                 largest);
    return 1;
  }

  // Epsilon sweep on the largest world, pruning on: what the relaxed
  // merge saves and what Pareto coverage it gives up. The epsilon = 0
  // row is the size sweep's last (pruned, largest) run.
  struct EpsSample {
    Sample run;
    double coverage_err = 0.0;
  };
  std::vector<EpsSample> sweep;
  std::printf("\nepsilon sweep (n=%d, pruning on)\n", largest);
  std::printf("%8s %8s %8s %10s %7s %10s %12s %12s\n", "epsilon", "ms",
              "labels", "merged", "pareto", "checks", "checks/label",
              "coverage_err");
  for (const double epsilon : {0.0, 0.01, 0.05, 0.10}) {
    EpsSample es;
    if (epsilon == 0.0) {
      es.run = samples.back();  // its frontier is the exact one (above)
    } else {
      es.run = run_config(largest, true, epsilon, repeats);
      check_repeats(es.run);
      es.coverage_err =
          coverage_error(exact, frontier(largest, true, epsilon));
    }
    sweep.push_back(es);
    std::printf("%8.2f %8.2f %8zu %10zu %7zu %10zu %12.1f %12.4f\n", epsilon,
                es.run.search_seconds * 1e3, es.run.labels_created,
                es.run.labels_merged_epsilon, es.run.pareto_size,
                es.run.dominance_checks, es.run.checks_per_label(),
                es.coverage_err);
  }

  bench::Report report("perf_mlc_scaling");
  auto add_row = [&report](const Sample& s) {
    char epsilon[16];
    std::snprintf(epsilon, sizeof epsilon, "%g", s.epsilon);
    const bench::Labels labels = {
        {"n", std::to_string(s.n)}, {"mode", s.mode}, {"epsilon", epsilon}};
    auto count = [](std::size_t c) { return static_cast<double>(c); };
    report.add("queries_per_second", labels, s.queries_per_second, "1/s");
    report.add("search_seconds", labels, s.search_seconds, "s");
    report.add("lower_bound_seconds", labels, s.lower_bound_seconds, "s");
    // The search is deterministic, so its effort must repeat exactly on
    // any machine: these four counts pin every row to the baseline.
    report.add("labels_created", labels, count(s.labels_created), "count",
               bench::baseline_exact());
    report.add("queue_pops", labels, count(s.queue_pops), "count",
               bench::baseline_exact());
    report.add("pareto_size", labels, count(s.pareto_size), "count",
               bench::baseline_exact());
    report.add("dominance_checks", labels, count(s.dominance_checks),
               "count", bench::baseline_exact());
    report.add("labels_pruned_bound", labels, count(s.labels_pruned_bound),
               "count");
    report.add("labels_merged_epsilon", labels,
               count(s.labels_merged_epsilon), "count");
    report.add("dominance_checks_per_label", labels, s.checks_per_label(),
               "ratio");
    return labels;
  };
  double peak_qps = 0.0;
  for (const Sample& s : samples) {
    add_row(s);
    peak_qps = std::max(peak_qps, s.queries_per_second);
  }
  for (const EpsSample& es : sweep) {
    if (es.run.epsilon == 0.0) continue;  // the size sweep's last row
    // Both frontiers are deterministic, so their distance is too.
    report.add("coverage_error", add_row(es.run), es.coverage_err, "ratio",
               bench::baseline_exact());
  }
  report.add("peak_queries_per_second", {}, peak_qps, "1/s",
             bench::baseline_at_least(0.75));
  // At the largest world the pruned search must do strictly less work
  // than the unpruned one, so the lower-bound pruning can never
  // silently stop pruning.
  const Sample& unpruned = samples[samples.size() - 2];
  const Sample& pruned = samples.back();
  const bench::Labels at_largest = {{"n", std::to_string(largest)}};
  report.add("labels_saved_by_pruning", at_largest,
             static_cast<double>(unpruned.labels_created) -
                 static_cast<double>(pruned.labels_created),
             "count", bench::at_least(1));
  report.add("pops_saved_by_pruning", at_largest,
             static_cast<double>(unpruned.queue_pops) -
                 static_cast<double>(pruned.queue_pops),
             "count", bench::at_least(1));
  if (!report.write(argc > 2 ? argv[2] : "BENCH_mlc.json")) return 1;
  return deterministic ? 0 : 1;
}
