// The three workloads: which city each serves, how its trips and crowd
// observations are drawn from the seed, and the world build that
// `sunchase_cli serve` performs. Inputs come from the benchmark's own
// generator, so a change to the program cannot change them.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "measure.h"
#include "sunchase/common/time_of_day.h"
#include "sunchase/core/world.h"
#include "sunchase/crowd/crowd_map.h"
#include "sunchase/roadnet/citygen.h"

namespace sunchase::routebench {

enum class Traffic {
  /// POST /plan over two keep-alive connections, in whole passes over
  /// the trip list, so every trip is sent equally often.
  Plan,
  /// POST /batch bundles back to back on one connection while a second
  /// connection posts /world/publish after every 16th bundle.
  Fleet,
};

struct WorkloadSpec {
  const char* name;
  int rows;
  int cols;
  Traffic traffic;
  std::size_t trips;         ///< trip list length, a multiple of kBundleSize
  int min_lattice_distance;  ///< |d row| + |d col| of every trip
  /// The trips cycle through this many endpoint pairs ("corridors"),
  /// fixed by the workload like its city; the seed draws the departures.
  /// Search cost spans two orders of magnitude between endpoint pairs,
  /// so with random pairs per seed the work of a trip list, and with it
  /// every timing, would be a property of the seed rather than of the
  /// program. Chosen so that corridors / gcd(corridors, trips / 8) >= 8:
  /// then a bundle's eight trips take eight different corridors.
  std::size_t corridors;
};

/// The timed window is cut into this many slices. Each runs the
/// workload's own traffic for (1 - kSideShare) of the slice, then side
/// traffic for kSideShare of it: /batch bundles on the plan workloads,
/// /plan on the fleet workload, so every workload reports every
/// end-to-end metric. Host speed drifts over seconds, so interleaving
/// keeps every metric on the same mix of fast and slow spells.
inline constexpr std::size_t kSlices = 4;
inline constexpr double kSideShare = 0.2;
/// /world/publish calls the plan workloads make after the slices, so
/// that all their /plan and /batch traffic meets one fixed world; a
/// fresh connection every kPublishesPerConnection.
inline constexpr std::size_t kPlanWorkloadPublishes = 128;
inline constexpr std::size_t kPublishesPerConnection = 16;
inline constexpr std::chrono::milliseconds kPublishPause{10};
inline constexpr std::size_t kBundleSize = 8;
inline constexpr std::size_t kBundlesPerPublish = 16;
inline constexpr std::size_t kObservationsPerPublish = 256;
/// Distinct observation sets per seed; publishes cycle through them.
inline constexpr std::size_t kPublishSets = 8;
/// The city generator's seed for every workload (the CLI default).
inline constexpr std::uint64_t kCitySeed = 7;

/// The workload named `name`, or nullptr.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
[[nodiscard]] std::string workload_names();

/// splitmix64: a small, fully specified generator, so the inputs of a
/// seed are the same on every platform and in every version.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform on [0, n); n must be positive.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

struct Trip {
  roadnet::NodeId origin = roadnet::kInvalidNode;
  roadnet::NodeId destination = roadnet::kInvalidNode;
  TimeOfDay departure;
  /// core::shortest_time_path's travel time on the workload's world,
  /// which every answer's candidates[0] is checked against (checks.h).
  double shortest_s = 0.0;
};

/// The seed's trip list: the workload's corridors (endpoints at least
/// min_lattice_distance apart) at departures stratified over
/// 08:00-18:00. Bundle b (trips [8b, 8b + 8)) takes every
/// (trips / 8)-th trip of the generated list, so each bundle spans the
/// day and eight different corridors.
[[nodiscard]] std::vector<Trip> make_trips(const WorkloadSpec& spec,
                                           const roadnet::GridCity& city,
                                           std::uint64_t seed);

struct PublishInput {
  std::vector<crowd::Observation> observations;
  std::string body;  ///< the /world/publish request body
};

/// kPublishSets sets of kObservationsPerPublish crowd observations
/// on the 08:00-18:30 slots of a world with `edge_count` edges.
[[nodiscard]] std::vector<PublishInput> make_publishes(std::size_t edge_count,
                                                       std::uint64_t seed);

/// A /plan body; `pricing` ("exact" or "slot") overrides the server's
/// default pricing when non-empty.
[[nodiscard]] std::string plan_body(const Trip& trip,
                                    std::string_view pricing = {});
/// One /batch body over trips [first, first + kBundleSize).
[[nodiscard]] std::string batch_body(const std::vector<Trip>& trips,
                                     std::size_t first);

[[nodiscard]] roadnet::GridCityOptions city_options(const WorkloadSpec& spec);

struct BuiltWorld {
  core::WorldPtr world;
  Clock::time_point shading_start;
  Clock::time_point shading_end;
};

/// The world `sunchase_cli serve` builds for the workload's city:
/// GridCity -> generate_scene -> ShadingProfile::compute_exact (day
/// 196, 08:00-18:30) -> UrbanTraffic, a 200 W panel, the LV prototype.
[[nodiscard]] BuiltWorld build_world(const WorkloadSpec& spec);

}  // namespace sunchase::routebench
