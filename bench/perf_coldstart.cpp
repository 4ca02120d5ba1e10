// Cold-start: text build vs binary snapshot boot. The text path does
// what every fresh process did before persistent worlds existed —
// generate the city, generate the scene, ray-cast the exact shading
// profile, assemble the World. The snapshot path mmaps a
// world-*.scsnap written earlier and rebuilds the same World over
// zero-copy views of the file. The bench times both, checks the two
// worlds produce bit-identical Pareto frontiers (exact and
// slot-quantized pricing; exits 1 on any mismatch), and writes
// BENCH_coldstart.json (bench_report.h layout), whose gate requires
// snapshot boot >= 5x faster than the text build.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "paper_world.h"

#include "sunchase/core/mlc.h"
#include "sunchase/core/world.h"
#include "sunchase/core/world_codec.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/shadow/scenegen.h"

using namespace sunchase;

namespace {

constexpr int kRows = 12;
constexpr int kCols = 12;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resident set size in kB from /proc/self/status (0 if unreadable).
std::size_t vm_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmRSS: %zu", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

/// The full text-build path a fresh process pays without a snapshot:
/// citygen + scenegen + exact shading ray-casts + World assembly.
core::WorldPtr build_text_world() {
  roadnet::GridCityOptions city_options;
  city_options.rows = kRows;
  city_options.cols = kCols;
  const roadnet::GridCity city(city_options);
  const geo::LocalProjection projection(city_options.origin);
  const shadow::Scene scene =
      generate_scene(city.graph(), projection, shadow::SceneGenOptions{});
  core::WorldInit init;
  init.graph = std::make_shared<const roadnet::RoadGraph>(city.graph());
  init.shading = std::make_shared<const shadow::ShadingProfile>(
      shadow::ShadingProfile::compute_exact(
          *init.graph, scene, geo::DayOfYear{196}, TimeOfDay::hms(8, 0),
          TimeOfDay::hms(18, 30)));
  init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
      roadnet::UrbanTraffic::Options{});
  init.panel_power = solar::constant_panel_power(Watts{200.0});
  init.vehicles.push_back(std::shared_ptr<const ev::ConsumptionModel>(
      ev::make_lv_prototype()));
  return core::World::create(std::move(init));
}

/// Flattened Pareto frontiers (costs + edge sequences) of a fixed query
/// set under one pricing mode — bit-exact comparison material.
std::vector<double> fingerprint(const core::WorldPtr& world,
                                core::PricingMode pricing) {
  core::MlcOptions opt;
  opt.max_time_factor = 1.4;
  opt.pricing = pricing;
  const core::MultiLabelCorrecting solver(world, opt);
  const auto last =
      static_cast<roadnet::NodeId>(world->graph().node_count() - 1);
  const struct {
    roadnet::NodeId from, to;
    TimeOfDay depart;
  } queries[] = {
      {0, last, TimeOfDay::hms(9, 0)},
      {0, last, TimeOfDay::hms(12, 30)},
      {static_cast<roadnet::NodeId>(kCols - 1),
       static_cast<roadnet::NodeId>((kRows - 1) * kCols),
       TimeOfDay::hms(16, 0)},
  };
  std::vector<double> fp;
  for (const auto& q : queries) {
    const auto result = solver.search(q.from, q.to, q.depart);
    for (const auto& route : result.routes) {
      fp.push_back(route.cost.travel_time.value());
      fp.push_back(route.cost.shaded_time.value());
      fp.push_back(route.cost.energy_out.value());
      for (const roadnet::EdgeId e : route.path.edges)
        fp.push_back(static_cast<double>(e));
    }
  }
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  const int repeats = argc > 1 ? std::atoi(argv[1]) : 3;
  const char* json_path = argc > 2 ? argv[2] : "BENCH_coldstart.json";
  const std::string snap_path = "BENCH_coldstart.scsnap";
  bench::banner("cold start: text build vs snapshot mmap",
                "persistent worlds — boot from the journal, not the text "
                "pipeline");

  // Text build, best of `repeats` (the world of the last repeat is the
  // one saved and compared against).
  double build_seconds = -1.0;
  core::WorldPtr built;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_seconds();
    built = build_text_world();
    const double dt = now_seconds() - t0;
    if (build_seconds < 0.0 || dt < build_seconds) build_seconds = dt;
  }
  const std::size_t rss_after_build_kb = vm_rss_kb();

  // The slot-pricing pass fills cache columns on the built world; the
  // snapshot holds only the world's inputs, so the loaded world refills
  // its columns on first touch.
  const std::vector<double> built_exact =
      fingerprint(built, core::PricingMode::Exact);
  const std::vector<double> built_slot =
      fingerprint(built, core::PricingMode::SlotQuantized);

  const double save_t0 = now_seconds();
  core::save_world_snapshot(*built, snap_path);
  const double save_seconds = now_seconds() - save_t0;
  const core::SnapshotInfo info = core::inspect_world_snapshot(snap_path);

  double load_seconds = -1.0;
  core::WorldPtr loaded;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_seconds();
    loaded = core::load_world_snapshot(snap_path);
    const double dt = now_seconds() - t0;
    if (load_seconds < 0.0 || dt < load_seconds) load_seconds = dt;
  }
  const std::size_t rss_after_load_kb = vm_rss_kb();

  const bool fingerprint_ok =
      fingerprint(loaded, core::PricingMode::Exact) == built_exact &&
      fingerprint(loaded, core::PricingMode::SlotQuantized) == built_slot;

  const double speedup =
      load_seconds > 0.0 ? build_seconds / load_seconds : 0.0;
  std::printf("%dx%d city, best of %d\n\n", kRows, kCols, repeats);
  std::printf("  text build    %9.2f ms\n", build_seconds * 1e3);
  std::printf("  snapshot save %9.2f ms  (%llu bytes, %zu sections)\n",
              save_seconds * 1e3,
              static_cast<unsigned long long>(info.file_bytes),
              info.sections.size());
  std::printf("  snapshot load %9.2f ms\n", load_seconds * 1e3);
  std::printf("  speedup       %9.1fx\n", speedup);
  std::printf("  rss           %zu kB after build, %zu kB after load\n",
              rss_after_build_kb, rss_after_load_kb);
  std::printf("  fingerprints  %s (exact + slot pricing)\n",
              fingerprint_ok ? "bit-identical" : "MISMATCH");
  if (!fingerprint_ok) {
    std::fprintf(stderr,
                 "error: loaded world's plan results differ from the built "
                 "world's\n");
    return 1;
  }

  bench::Report report("perf_coldstart");
  report.add("build_seconds", {}, build_seconds, "s");
  report.add("save_seconds", {}, save_seconds, "s");
  report.add("load_seconds", {}, load_seconds, "s");
  // A same-machine ratio, so the floor needs no cross-machine slack.
  report.add("speedup", {}, speedup, "x", bench::at_least(5.0));
  report.add("snapshot_bytes", {}, static_cast<double>(info.file_bytes),
             "bytes");
  report.add("rss_after_build_kb", {},
             static_cast<double>(rss_after_build_kb), "kB");
  report.add("rss_after_load_kb", {}, static_cast<double>(rss_after_load_kb),
             "kB");
  report.add("fingerprint_ok", {}, fingerprint_ok ? 1.0 : 0.0, "bool",
             bench::at_least(1.0));
  if (!report.write(json_path)) return 1;
  std::remove(snap_path.c_str());
  return 0;
}
