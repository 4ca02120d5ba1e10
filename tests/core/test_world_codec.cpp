// World snapshot codec: a saved world mmap-loaded in a fresh reader
// must be indistinguishable from the world that was saved — same plan
// results bit for bit under both pricing modes, slot-cache columns
// refilled on first touch rather than read from the file, damaged
// files rejected, and the mmap-backed world surviving the same
// concurrent batch + publish contract as a heap-built one (the
// SnapshotCodec suites run under the CI ThreadSanitizer job).
#include "sunchase/core/world_codec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core_fixture.h"
#include "sunchase/common/error.h"
#include "sunchase/core/batch_planner.h"
#include "sunchase/core/world.h"
#include "sunchase/core/world_store.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/snapshot/format.h"
#include "sunchase/snapshot/reader.h"
#include "sunchase/snapshot/writer.h"

namespace sunchase::core {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

WorldPtr city_world() {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  return World::create(test::RoutingEnv::make_init(city.graph()), 3);
}

std::vector<BatchQuery> city_queries() {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  std::vector<BatchQuery> queries;
  for (int i = 0; i < 12; ++i)
    queries.push_back({city.node_at(i % 4, i % 3),
                       city.node_at(6 + i % 3, 8),
                       TimeOfDay::hms(9 + i % 8, 15)});
  return queries;
}

/// Flattened (costs, path edges) of every successful query, for
/// bit-exact comparison across save/load.
std::vector<double> fingerprint(
    const WorldPtr& world, PricingMode pricing,
    const std::vector<BatchQuery>& queries = city_queries()) {
  BatchPlannerOptions opt;
  opt.workers = 2;
  opt.mlc.max_time_factor = 1.4;
  opt.mlc.pricing = pricing;
  const BatchPlanner planner(world, opt);
  const BatchResult batch = planner.plan_all(queries);
  std::vector<double> fp;
  for (const BatchQueryResult& q : batch.queries) {
    if (!q.ok()) continue;
    for (const ParetoRoute& r : q.result->routes) {
      fp.push_back(r.cost.travel_time.value());
      fp.push_back(r.cost.shaded_time.value());
      fp.push_back(r.cost.energy_out.value());
      for (const roadnet::EdgeId e : r.path.edges)
        fp.push_back(static_cast<double>(e));
    }
  }
  return fp;
}

TEST(SnapshotCodec, RoundTripPreservesTheWorldShape) {
  const WorldPtr original = city_world();
  const std::string path = temp_path("codec_shape.scsnap");
  save_world_snapshot(*original, path);
  const WorldPtr loaded = load_world_snapshot(path);

  EXPECT_EQ(loaded->version(), original->version());
  EXPECT_EQ(loaded->graph().node_count(), original->graph().node_count());
  EXPECT_EQ(loaded->graph().edge_count(), original->graph().edge_count());
  EXPECT_EQ(loaded->vehicle_count(), original->vehicle_count());
  for (std::size_t v = 0; v < original->vehicle_count(); ++v)
    EXPECT_EQ(loaded->vehicle(v).name(), original->vehicle(v).name());
  EXPECT_EQ(loaded->shading().fractions().size(),
            original->shading().fractions().size());
}

TEST(SnapshotCodec, PlanResultsAreBitIdenticalInBothPricingModes) {
  const WorldPtr original = city_world();
  const std::string path = temp_path("codec_fingerprint.scsnap");
  save_world_snapshot(*original, path);
  const WorldPtr loaded = load_world_snapshot(path);

  EXPECT_EQ(fingerprint(loaded, PricingMode::Exact),
            fingerprint(original, PricingMode::Exact));
  EXPECT_EQ(fingerprint(loaded, PricingMode::SlotQuantized),
            fingerprint(original, PricingMode::SlotQuantized));
}

TEST(SnapshotCodec, LoadedWorldRefillsColumnsBitIdentically) {
  const WorldPtr original = city_world();
  const std::vector<double> warm =
      fingerprint(original, PricingMode::SlotQuantized);
  ASSERT_GT(original->slot_cache().filled_slots(), 0u);

  const std::string path = temp_path("codec_cold.scsnap");
  save_world_snapshot(*original, path);
  const WorldPtr loaded = load_world_snapshot(path);
  EXPECT_EQ(loaded->slot_cache().filled_slots(), 0u);
  // Lazy refill on the loaded world reproduces the same columns.
  EXPECT_EQ(fingerprint(loaded, PricingMode::SlotQuantized), warm);
}

TEST(SnapshotCodec, ColumnSectionsAreIgnoredOnLoad) {
  const WorldPtr original = city_world();
  const std::string saved = temp_path("codec_columns_saved.scsnap");
  save_world_snapshot(*original, saved);

  // The saved world's sections plus a slot_cache_column section for
  // every slot, as earlier writers stored them (64-byte rows, aux =
  // vehicle * 96 + slot), with every row zeroed. A loader that
  // trusted the columns would plan every slot-priced trip on free,
  // instant edges.
  constexpr std::size_t kColumnRowBytes = 64;
  const std::vector<std::byte> zeros(original->graph().edge_count() *
                                     kColumnRowBytes);
  const std::string path = temp_path("codec_columns.scsnap");
  {
    const snapshot::SnapshotReader reader =
        snapshot::SnapshotReader::open(saved);
    snapshot::SnapshotWriter writer(reader.world_version());
    for (std::size_t i = 0; i < reader.section_count(); ++i) {
      const snapshot::SectionEntry& entry = reader.entry(i);
      writer.add_section(entry.id, entry.aux,
                         reader.bytes(entry.id, entry.aux));
    }
    for (int slot = 0; slot < TimeOfDay::kSlotsPerDay; ++slot)
      writer.add_section(snapshot::kSlotCacheColumn,
                         static_cast<std::uint32_t>(slot), zeros);
    writer.write_file(path);
  }

  const WorldPtr loaded = load_world_snapshot(path);
  EXPECT_EQ(loaded->slot_cache().filled_slots(), 0u);
  EXPECT_EQ(fingerprint(loaded, PricingMode::Exact),
            fingerprint(original, PricingMode::Exact));
  EXPECT_EQ(fingerprint(loaded, PricingMode::SlotQuantized),
            fingerprint(original, PricingMode::SlotQuantized));
}

TEST(SnapshotCodec, FlippedOrTruncatedFilesFailToLoadOrPlanIdentically) {
  roadnet::GridCityOptions city_options;
  city_options.rows = 6;
  city_options.cols = 6;
  const roadnet::GridCity city{city_options};
  const WorldPtr original =
      World::create(test::RoutingEnv::make_init(city.graph()));
  const std::string source = temp_path("codec_mutation_source.scsnap");
  save_world_snapshot(*original, source);
  std::vector<char> bytes;
  {
    std::ifstream in(source, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());
  const auto last = static_cast<roadnet::NodeId>(city.graph().node_count() - 1);
  const std::vector<BatchQuery> trips = {{0, last, TimeOfDay::hms(9, 10)},
                                         {0, last, TimeOfDay::hms(15, 40)}};
  const std::vector<double> exact =
      fingerprint(original, PricingMode::Exact, trips);
  const std::vector<double> slot =
      fingerprint(original, PricingMode::SlotQuantized, trips);

  // Each mutant either throws SnapshotError or, when the damage missed
  // every checksummed byte (padding between sections), plans exactly
  // like the original. Any other exception fails the test. Returns
  // whether the load was rejected.
  const std::string path = temp_path("codec_mutant.scsnap");
  auto rejected = [&](const std::vector<char>& data,
                      const std::string& what) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
    }
    WorldPtr loaded;
    try {
      loaded = load_world_snapshot(path);
    } catch (const SnapshotError&) {
      return true;
    }
    EXPECT_EQ(fingerprint(loaded, PricingMode::Exact, trips), exact) << what;
    EXPECT_EQ(fingerprint(loaded, PricingMode::SlotQuantized, trips), slot)
        << what;
    return false;
  };

  std::mt19937_64 rng(20170605);
  int rejected_flips = 0;
  for (int i = 0; i < 256; ++i) {
    std::vector<char> data = bytes;
    const std::size_t bit = rng() % (data.size() * 8);
    data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1 << (bit % 8)));
    if (rejected(data, "bit " + std::to_string(bit) + " flipped"))
      ++rejected_flips;
  }
  EXPECT_GT(rejected_flips, 0);
  // The header records the file size, so no truncation can load.
  for (int i = 0; i < 50; ++i) {
    const std::size_t keep = rng() % bytes.size();
    EXPECT_TRUE(rejected(
        std::vector<char>(bytes.begin(),
                          bytes.begin() + static_cast<std::ptrdiff_t>(keep)),
        "truncated to " + std::to_string(keep) + " bytes"))
        << keep;
  }
}

TEST(SnapshotCodec, UnserializableTrafficModelFailsToSave) {
  /// Not one of the library's parameterized models — there is nothing
  /// faithful the codec could persist.
  class OpaqueTraffic final : public roadnet::TrafficModel {
   public:
    [[nodiscard]] MetersPerSecond speed(const roadnet::RoadGraph&,
                                        roadnet::EdgeId,
                                        TimeOfDay) const override {
      return kmh(17.0);
    }
  };
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  WorldInit init = test::RoutingEnv::make_init(city.graph());
  init.traffic = std::make_shared<const OpaqueTraffic>();
  const WorldPtr world = World::create(std::move(init));
  EXPECT_THROW(
      save_world_snapshot(*world, temp_path("codec_opaque.scsnap")),
      SnapshotError);
}

TEST(SnapshotCodec, LoadNamesTheDamagedSection) {
  const WorldPtr original = city_world();
  const std::string path = temp_path("codec_corrupt.scsnap");
  save_world_snapshot(*original, path);

  const SnapshotInfo info = inspect_world_snapshot(path);
  ASSERT_TRUE(info.intact);
  std::uint64_t fractions_offset = 0;
  for (const SnapshotSectionInfo& s : info.sections)
    if (s.name == "shading_fractions") fractions_offset = s.offset;
  ASSERT_GT(fractions_offset, 0u);

  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(static_cast<std::streamoff>(fractions_offset) + 5);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x02);
  file.seekp(static_cast<std::streamoff>(fractions_offset) + 5);
  file.write(&byte, 1);
  file.close();

  try {
    (void)load_world_snapshot(path);
    FAIL() << "corrupt snapshot loaded";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("shading_fractions"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  }
  EXPECT_FALSE(inspect_world_snapshot(path).intact);
}

TEST(SnapshotCodec, MmapWorldSurvivesEightWorkerBatchDuringPublishes) {
  const std::string path = temp_path("codec_concurrent.scsnap");
  {
    const WorldPtr original = city_world();
    save_world_snapshot(*original, path);
  }
  // A store seeded from the mapping: workers plan on the mmap-backed
  // arrays while a publisher swaps in fresh heap-built versions.
  const WorldPtr loaded = load_world_snapshot(path);
  WorldStore store(loaded);

  BatchPlannerOptions opt;
  opt.workers = 8;
  opt.mlc.max_time_factor = 1.4;
  const BatchPlanner pinned(store.current(), opt);
  const std::vector<BatchQuery> queries = city_queries();

  auto flatten = [](const BatchResult& batch) {
    std::vector<double> fp;
    for (const BatchQueryResult& q : batch.queries) {
      if (!q.ok()) continue;
      for (const ParetoRoute& r : q.result->routes) {
        fp.push_back(r.cost.travel_time.value());
        fp.push_back(r.cost.energy_out.value());
      }
    }
    return fp;
  };
  const std::vector<double> quiet = flatten(pinned.plan_all(queries));

  std::atomic<bool> stop{false};
  auto writer = std::async(std::launch::async, [&] {
    int published = 0;
    while (!stop.load(std::memory_order_relaxed) && published < 16) {
      (void)store.publish(store.current()->recipe());
      ++published;
    }
    return published;
  });
  const std::vector<double> contended = flatten(pinned.plan_all(queries));
  stop.store(true, std::memory_order_relaxed);
  EXPECT_GT(writer.get(), 0);
  EXPECT_EQ(quiet, contended);
}

}  // namespace
}  // namespace sunchase::core
