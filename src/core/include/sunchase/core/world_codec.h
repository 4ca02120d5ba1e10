// Serialization of a core::World to and from the binary snapshot
// format (snapshot::SnapshotWriter/SnapshotReader). Saving writes the
// world's inputs verbatim — the CSR road graph (both directions), the
// shading fraction table, the traffic and vehicle parameters and the
// panel-power curve sampled per 15-minute slot. Loading mmaps the file
// and rebuilds the World over zero-copy views of those same bytes: the
// big arrays are never copied, and plan results on the loaded world
// are bit-identical to the world that was saved. SlotCostCache columns
// are derived data and are not saved: a loaded world fills them on
// first touch, exactly as a freshly built world does.
//
// Model serialization is by parameters, not by pickling: the traffic
// and vehicle models the library ships are pure functions of their
// construction options, so persisting the options reproduces them
// exactly. A world built on a custom model type fails to save with a
// SnapshotError (rather than silently saving something else). The
// panel-power function is captured as its 96 slot-start samples —
// exact for every built-in model, all of which are constant within a
// slot (the paper's "value update every 15 minutes").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sunchase/core/world_fwd.h"

namespace sunchase::core {

/// Writes `world` to `path` atomically and durably (tmp, fsync,
/// rename, directory fsync). Throws common::SnapshotError on I/O
/// failure or an unserializable traffic/vehicle model.
void save_world_snapshot(const World& world, const std::string& path);

/// Maps `path` and reconstructs its World (version from the file
/// header). Validates every checksum eagerly; throws
/// common::SnapshotError naming the file, section, and offset on any
/// corruption. The returned world pins the mapping for its lifetime.
[[nodiscard]] WorldPtr load_world_snapshot(const std::string& path);

/// One section row of inspect_world_snapshot.
struct SnapshotSectionInfo {
  std::uint32_t id = 0;
  std::string name;
  std::uint32_t aux = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  bool crc_ok = false;
};

/// Header and per-section summary of a snapshot file.
struct SnapshotInfo {
  std::string path;
  std::uint64_t world_version = 0;
  std::uint64_t file_bytes = 0;
  bool intact = false;  ///< every section's checksum verified
  std::vector<SnapshotSectionInfo> sections;
};

/// Reads header and section table and verifies each section's CRC
/// without loading the world — tolerant of payload corruption (that
/// is reported per section), strict about a damaged header or table
/// (throws common::SnapshotError: nothing can be reported then).
[[nodiscard]] SnapshotInfo inspect_world_snapshot(const std::string& path);

}  // namespace sunchase::core
