#include "workload.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sunchase/ev/consumption.h"
#include "sunchase/roadnet/traffic.h"
#include "sunchase/shadow/scenegen.h"
#include "sunchase/shadow/shading.h"
#include "sunchase/solar/panel.h"

namespace sunchase::routebench {

namespace {

// Why each workload exists is in README.md; in short: downtown_plan
// loads the serve layers, metro_plan the MLC label loop, fleet_refresh
// the batch pool, the crowd fold, publishes and cold caches.
constexpr WorkloadSpec kWorkloads[] = {
    {"downtown_plan", 10, 10, Traffic::Plan, 256, 1, 65},
    {"metro_plan", 32, 32, Traffic::Plan, 96, 32, 32},
    {"fleet_refresh", 12, 12, Traffic::Fleet, 256, 1, 65},
};

/// Salts that give trips, corridors and observations their own streams.
constexpr std::uint64_t kTripStream = 0x7269702d74726970ULL;
constexpr std::uint64_t kCorridorStream = 0x636f72726964726fULL;
constexpr std::uint64_t kObservationStream = 0x6f62736572766573ULL;

constexpr int kFirstDepartureMinute = 8 * 60;
constexpr int kLastDepartureMinute = 18 * 60;
/// The crowd map's slot window (08:00-18:30).
constexpr int kFirstSlot = 32;
constexpr int kLastSlot = 73;
constexpr std::uint64_t kVehicles = 64;

/// Trip i of n departs in the i-th of n equal strata of 08:00-18:00, at
/// a random minute within it: every list covers the day evenly.
TimeOfDay stratified_departure(std::size_t i, std::size_t n, InputRng& rng) {
  const auto span =
      static_cast<std::uint64_t>(kLastDepartureMinute - kFirstDepartureMinute);
  const int minute =
      kFirstDepartureMinute +
      static_cast<int>((i * span + rng.below(span)) / n);
  return TimeOfDay::hms(minute / 60, minute % 60);
}

/// Random endpoints at least `min_distance` apart on the lattice.
std::pair<roadnet::NodeId, roadnet::NodeId> random_endpoints(
    const WorkloadSpec& spec, const roadnet::GridCity& city, InputRng& rng) {
  const auto rows = static_cast<std::uint64_t>(spec.rows);
  const auto cols = static_cast<std::uint64_t>(spec.cols);
  while (true) {
    const int r0 = static_cast<int>(rng.below(rows));
    const int c0 = static_cast<int>(rng.below(cols));
    const int r1 = static_cast<int>(rng.below(rows));
    const int c1 = static_cast<int>(rng.below(cols));
    const int distance = std::abs(r0 - r1) + std::abs(c0 - c1);
    if (distance >= std::max(1, spec.min_lattice_distance))
      return {city.node_at(r0, c0), city.node_at(r1, c1)};
  }
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads)
    if (name == spec.name) return &spec;
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t InputRng::below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("InputRng::below: n is zero");
  // Reject the top partial range so every residue is equally likely.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  while (true) {
    const std::uint64_t v = next();
    if (v < limit) return v % n;
  }
}

std::vector<Trip> make_trips(const WorkloadSpec& spec,
                             const roadnet::GridCity& city,
                             std::uint64_t seed) {
  InputRng rng(seed ^ kTripStream);
  InputRng corridor_rng(kCorridorStream);
  std::vector<std::pair<roadnet::NodeId, roadnet::NodeId>> corridors;
  for (std::size_t c = 0; c < spec.corridors; ++c)
    corridors.push_back(random_endpoints(spec, city, corridor_rng));

  std::vector<Trip> generated(spec.trips);
  for (std::size_t i = 0; i < generated.size(); ++i) {
    Trip& trip = generated[i];
    // Corridor c serves trips c, c + C, c + 2C...: departures spread
    // over the day.
    std::tie(trip.origin, trip.destination) = corridors[i % spec.corridors];
    trip.departure = stratified_departure(i, generated.size(), rng);
  }
  const std::size_t bundles = generated.size() / kBundleSize;
  std::vector<Trip> trips(generated.size());
  for (std::size_t b = 0; b < bundles; ++b)
    for (std::size_t k = 0; k < kBundleSize; ++k)
      trips[b * kBundleSize + k] = generated[b + k * bundles];
  return trips;
}

std::vector<PublishInput> make_publishes(std::size_t edge_count,
                                         std::uint64_t seed) {
  InputRng rng(seed ^ kObservationStream);
  std::vector<PublishInput> sets(kPublishSets);
  char buf[128];
  for (PublishInput& set : sets) {
    set.body = "{\"observations\":[";
    for (std::size_t i = 0; i < kObservationsPerPublish; ++i) {
      crowd::Observation o;
      o.edge = static_cast<roadnet::EdgeId>(rng.below(edge_count));
      o.slot = kFirstSlot + static_cast<int>(rng.below(
                                static_cast<std::uint64_t>(
                                    kLastSlot - kFirstSlot + 1)));
      o.shaded_fraction = static_cast<double>(rng.below(1001)) / 1000.0;
      o.vehicle_id = 1 + rng.below(kVehicles);
      std::snprintf(buf, sizeof buf,
                    "%s{\"edge\":%u,\"slot\":%d,\"shaded_fraction\":%.3f,"
                    "\"vehicle_id\":%llu}",
                    i == 0 ? "" : ",", static_cast<unsigned>(o.edge), o.slot,
                    o.shaded_fraction,
                    static_cast<unsigned long long>(o.vehicle_id));
      set.body += buf;
      set.observations.push_back(o);
    }
    set.body += "]}";
  }
  return sets;
}

std::string plan_body(const Trip& trip, std::string_view pricing) {
  const int minutes =
      static_cast<int>(trip.departure.seconds_since_midnight()) / 60;
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"origin\":%u,\"destination\":%u,\"departure\":\"%02d:%02d\"",
                static_cast<unsigned>(trip.origin),
                static_cast<unsigned>(trip.destination), minutes / 60,
                minutes % 60);
  std::string body = buf;
  if (!pricing.empty()) {
    body += ",\"pricing\":\"";
    body += pricing;
    body += '"';
  }
  return body + '}';
}

std::string batch_body(const std::vector<Trip>& trips, std::size_t first) {
  std::string body = "{\"queries\":[";
  for (std::size_t i = 0; i < kBundleSize; ++i) {
    if (i != 0) body += ',';
    body += plan_body(trips[(first + i) % trips.size()]);
  }
  body += "]}";
  return body;
}

roadnet::GridCityOptions city_options(const WorkloadSpec& spec) {
  roadnet::GridCityOptions options;
  options.rows = spec.rows;
  options.cols = spec.cols;
  options.seed = kCitySeed;
  return options;
}

BuiltWorld build_world(const WorkloadSpec& spec) {
  const roadnet::GridCityOptions options = city_options(spec);
  const roadnet::GridCity city(options);
  const geo::LocalProjection projection(options.origin);
  const shadow::Scene scene =
      generate_scene(city.graph(), projection, shadow::SceneGenOptions{});

  BuiltWorld built;
  core::WorldInit init;
  init.graph = std::make_shared<const roadnet::RoadGraph>(city.graph());
  built.shading_start = Clock::now();
  init.shading = std::make_shared<const shadow::ShadingProfile>(
      shadow::ShadingProfile::compute_exact(
          *init.graph, scene, geo::DayOfYear{196}, TimeOfDay::hms(8, 0),
          TimeOfDay::hms(18, 30)));
  built.shading_end = Clock::now();
  init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
      roadnet::UrbanTraffic::Options{});
  init.panel_power = solar::constant_panel_power(Watts{200.0});
  init.vehicles.push_back(
      std::shared_ptr<const ev::ConsumptionModel>(ev::make_lv_prototype()));
  built.world = core::World::create(std::move(init));
  return built;
}

}  // namespace sunchase::routebench
