#include "sunchase/core/world_codec.h"

#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sunchase/common/error.h"
#include "sunchase/core/world.h"
#include "sunchase/snapshot/format.h"
#include "sunchase/snapshot/reader.h"
#include "sunchase/snapshot/writer.h"

namespace sunchase::core {

namespace {

// The big arrays are written to disk verbatim and reinterpreted in
// place on load, so their layout is part of the format: pin the sizes
// (padding-free) and triviality here, where a drifting struct breaks
// the build instead of the files.
static_assert(std::is_trivially_copyable_v<roadnet::Node> &&
              sizeof(roadnet::Node) == 16);
static_assert(std::is_trivially_copyable_v<roadnet::Edge> &&
              sizeof(roadnet::Edge) == 16);

/// kShadingMeta payload.
struct ShadingMetaRecord {
  std::uint64_t edge_count;
  std::int32_t first_slot;
  std::int32_t last_slot;
};
static_assert(sizeof(ShadingMetaRecord) == 16);

/// kTraffic payload. kind 1 = UniformTraffic (p0 = speed in m/s),
/// kind 2 = UrbanTraffic (p0/p1 = min/max speed in m/s, p2 = rush-hour
/// slowdown, seed = its deterministic per-edge seed).
struct TrafficRecord {
  std::uint32_t kind;
  std::uint32_t reserved;
  double p0;
  double p1;
  double p2;
  std::uint64_t seed;
};
static_assert(sizeof(TrafficRecord) == 40);
inline constexpr std::uint32_t kTrafficUniform = 1;
inline constexpr std::uint32_t kTrafficUrban = 2;

/// One kVehicles row. kind 1 = QuadraticConsumption (Eq. 6).
struct VehicleRecord {
  std::uint32_t kind;
  std::uint32_t reserved;
  double a;
  double b;
  char name[64];  ///< NUL-terminated display name
};
static_assert(sizeof(VehicleRecord) == 88);
inline constexpr std::uint32_t kVehicleQuadratic = 1;

TrafficRecord encode_traffic(const roadnet::TrafficModel& traffic) {
  TrafficRecord rec{};
  if (const auto* uniform =
          dynamic_cast<const roadnet::UniformTraffic*>(&traffic)) {
    rec.kind = kTrafficUniform;
    rec.p0 = uniform->uniform_speed().value();
    return rec;
  }
  if (const auto* urban =
          dynamic_cast<const roadnet::UrbanTraffic*>(&traffic)) {
    const roadnet::UrbanTraffic::Options& opt = urban->options();
    rec.kind = kTrafficUrban;
    rec.p0 = opt.min_speed.value();
    rec.p1 = opt.max_speed.value();
    rec.p2 = opt.rush_hour_slowdown;
    rec.seed = opt.seed;
    return rec;
  }
  throw SnapshotError(
      "save_world_snapshot: traffic model is not a serializable type "
      "(UniformTraffic or UrbanTraffic)");
}

std::shared_ptr<const roadnet::TrafficModel> decode_traffic(
    const TrafficRecord& rec, const std::string& path) {
  switch (rec.kind) {
    case kTrafficUniform:
      return std::make_shared<const roadnet::UniformTraffic>(
          MetersPerSecond{rec.p0});
    case kTrafficUrban: {
      roadnet::UrbanTraffic::Options opt;
      opt.min_speed = MetersPerSecond{rec.p0};
      opt.max_speed = MetersPerSecond{rec.p1};
      opt.rush_hour_slowdown = rec.p2;
      opt.seed = rec.seed;
      return std::make_shared<const roadnet::UrbanTraffic>(opt);
    }
    default:
      throw SnapshotError("snapshot: " + path +
                          ": section traffic: unknown traffic kind " +
                          std::to_string(rec.kind));
  }
}

VehicleRecord encode_vehicle(const ev::ConsumptionModel& vehicle) {
  const auto* quadratic =
      dynamic_cast<const ev::QuadraticConsumption*>(&vehicle);
  if (quadratic == nullptr)
    throw SnapshotError(
        "save_world_snapshot: vehicle model '" + vehicle.name() +
        "' is not a serializable type (QuadraticConsumption)");
  VehicleRecord rec{};
  rec.kind = kVehicleQuadratic;
  rec.a = quadratic->a();
  rec.b = quadratic->b();
  const std::string name = quadratic->name();
  if (name.size() >= sizeof(rec.name))
    throw SnapshotError("save_world_snapshot: vehicle name '" + name +
                        "' exceeds " +
                        std::to_string(sizeof(rec.name) - 1) + " bytes");
  std::memcpy(rec.name, name.data(), name.size());
  return rec;
}

std::shared_ptr<const ev::ConsumptionModel> decode_vehicle(
    const VehicleRecord& rec, const std::string& path) {
  if (rec.kind != kVehicleQuadratic)
    throw SnapshotError("snapshot: " + path +
                        ": section vehicles: unknown vehicle kind " +
                        std::to_string(rec.kind));
  const std::size_t len = ::strnlen(rec.name, sizeof(rec.name));
  if (len == sizeof(rec.name))
    throw SnapshotError("snapshot: " + path +
                        ": section vehicles: vehicle name is not "
                        "NUL-terminated");
  return std::make_shared<const ev::QuadraticConsumption>(
      rec.a, rec.b, std::string(rec.name, len));
}

}  // namespace

void save_world_snapshot(const World& world, const std::string& path) {
  snapshot::SnapshotWriter writer(world.version());

  const roadnet::RoadGraph::FrozenParts& parts = world.graph().parts();
  writer.add_array(snapshot::kNodes, 0, parts.nodes.span());
  writer.add_array(snapshot::kEdges, 0, parts.edges.span());
  writer.add_array(snapshot::kOutOffsets, 0, parts.out_offsets.span());
  writer.add_array(snapshot::kOutSorted, 0, parts.out_sorted.span());
  writer.add_array(snapshot::kInOffsets, 0, parts.in_offsets.span());
  writer.add_array(snapshot::kInSorted, 0, parts.in_sorted.span());

  const shadow::ShadingProfile& shading = world.shading();
  const ShadingMetaRecord meta{shading.edge_count(),
                               shading.first_slot(), shading.last_slot()};
  writer.add_array(snapshot::kShadingMeta, 0,
                   std::span<const ShadingMetaRecord>(&meta, 1));
  writer.add_array(snapshot::kShadingFractions, 0, shading.fractions());

  const TrafficRecord traffic = encode_traffic(world.traffic());
  writer.add_array(snapshot::kTraffic, 0,
                   std::span<const TrafficRecord>(&traffic, 1));

  // The panel-power curve as its 96 slot-start samples: every built-in
  // model is constant within a slot, so this is a lossless capture.
  std::array<double, TimeOfDay::kSlotsPerDay> panel{};
  for (int slot = 0; slot < TimeOfDay::kSlotsPerDay; ++slot)
    panel[static_cast<std::size_t>(slot)] =
        world.solar_map().panel_power(TimeOfDay::slot_start(slot)).value();
  writer.add_array(snapshot::kPanel, 0,
                   std::span<const double>(panel.data(), panel.size()));

  std::vector<VehicleRecord> vehicles;
  vehicles.reserve(world.vehicle_count());
  for (std::size_t v = 0; v < world.vehicle_count(); ++v)
    vehicles.push_back(encode_vehicle(world.vehicle(v)));
  writer.add_array(snapshot::kVehicles, 0,
                   std::span<const VehicleRecord>(vehicles));

  writer.write_file(path);
}

WorldPtr load_world_snapshot(const std::string& path) {
  const snapshot::SnapshotReader reader = snapshot::SnapshotReader::open(path);
  try {
    roadnet::RoadGraph::FrozenParts parts;
    parts.nodes = reader.array<roadnet::Node>(snapshot::kNodes);
    parts.edges = reader.array<roadnet::Edge>(snapshot::kEdges);
    parts.out_offsets = reader.array<std::uint32_t>(snapshot::kOutOffsets);
    parts.out_sorted = reader.array<roadnet::EdgeId>(snapshot::kOutSorted);
    parts.in_offsets = reader.array<std::uint32_t>(snapshot::kInOffsets);
    parts.in_sorted = reader.array<roadnet::EdgeId>(snapshot::kInSorted);

    WorldInit init;
    init.graph = std::make_shared<const roadnet::RoadGraph>(
        roadnet::RoadGraph::from_parts(std::move(parts)));

    const auto meta =
        reader.record<ShadingMetaRecord>(snapshot::kShadingMeta);
    init.shading = std::make_shared<const shadow::ShadingProfile>(
        shadow::ShadingProfile::from_parts(
            meta.edge_count, meta.first_slot, meta.last_slot,
            reader.array<float>(snapshot::kShadingFractions)));

    init.traffic = decode_traffic(
        reader.record<TrafficRecord>(snapshot::kTraffic), path);

    common::FrozenArray<double> panel =
        reader.array<double>(snapshot::kPanel);
    if (panel.size() != static_cast<std::size_t>(TimeOfDay::kSlotsPerDay))
      throw SnapshotError("snapshot: " + path + ": section panel has " +
                          std::to_string(panel.size()) +
                          " samples, expected " +
                          std::to_string(TimeOfDay::kSlotsPerDay));
    // Piecewise-constant per slot, like every model that can be saved;
    // the FrozenArray capture pins the mapping.
    init.panel_power = [panel](TimeOfDay when) {
      return Watts{panel[static_cast<std::size_t>(when.slot_index())]};
    };

    common::FrozenArray<VehicleRecord> vehicles =
        reader.array<VehicleRecord>(snapshot::kVehicles);
    if (vehicles.empty())
      throw SnapshotError("snapshot: " + path +
                          ": section vehicles is empty");
    for (const VehicleRecord& rec : vehicles)
      init.vehicles.push_back(decode_vehicle(rec, path));

    return World::create(std::move(init), reader.world_version());
  } catch (const SnapshotError&) {
    throw;
  } catch (const Error& e) {
    // Structural validation (graph/shading/world invariants) on data
    // that passed its checksums: report it as a snapshot problem
    // naming the file.
    throw SnapshotError("snapshot: " + path + ": " + e.what());
  }
}

SnapshotInfo inspect_world_snapshot(const std::string& path) {
  snapshot::ReadOptions options;
  options.verify_section_checksums = false;
  const snapshot::SnapshotReader reader =
      snapshot::SnapshotReader::open(path, options);
  SnapshotInfo info;
  info.path = path;
  info.world_version = reader.world_version();
  info.file_bytes = reader.file_bytes();
  info.intact = true;
  info.sections.reserve(reader.section_count());
  for (std::size_t i = 0; i < reader.section_count(); ++i) {
    const snapshot::SectionEntry& entry = reader.entry(i);
    SnapshotSectionInfo section;
    section.id = entry.id;
    section.name = snapshot::section_name(entry.id);
    section.aux = entry.aux;
    section.offset = entry.offset;
    section.bytes = entry.bytes;
    section.crc = entry.crc;
    section.crc_ok = reader.section_crc_ok(i);
    info.intact = info.intact && section.crc_ok;
    info.sections.push_back(std::move(section));
  }
  return info;
}

}  // namespace sunchase::core
