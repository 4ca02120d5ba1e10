// The on-disk layout of a binary world snapshot (`*.scsnap`): a fixed
// 64-byte header, a table of 32-byte section entries, then the section
// payloads, each 64-byte aligned so an mmap'd section can be
// reinterpreted in place as an array of its element type (zero-copy —
// nothing is deserialized on load).
//
//   offset 0      FileHeader            (64 bytes)
//   offset 64     SectionEntry[count]   (32 bytes each)
//   aligned       payload of section 0
//   aligned       payload of section 1
//   ...
//
// Integrity is layered: the header carries its own CRC (magic,
// version, endianness and counts are trusted only after it passes), a
// CRC of the section table, and every section entry carries a CRC of
// its payload. Checksums are per section rather than whole-file so a
// load failure can name *which* array is damaged and at what offset,
// and so an `inspect` can report intact sections of a torn file.
//
// The format is not endian-portable by design: payloads are the
// in-memory arrays written verbatim. The endianness tag turns a
// foreign-order file into a clean load error instead of silent
// garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace sunchase::snapshot {

inline constexpr char kMagic[8] = {'S', 'C', 'S', 'N', 'A', 'P', '0', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
/// Written as the native byte order of the writer; a reader with a
/// different native order sees 0x04030201 and rejects the file.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
/// Payload alignment: enough for any element type we store (doubles,
/// 16-byte graph rows) and a cache line.
inline constexpr std::size_t kSectionAlignment = 64;

/// Fixed-size file header at offset 0.
struct FileHeader {
  char magic[8];
  std::uint32_t format_version;
  std::uint32_t endianness;
  std::uint64_t world_version;  ///< core::World::version() of the payload
  std::uint32_t section_count;
  std::uint32_t header_crc;  ///< CRC of this struct with header_crc = 0
  std::uint64_t file_bytes;  ///< total file size, rejects truncation
  std::uint32_t table_crc;   ///< CRC of the section table bytes
  std::uint32_t reserved0;
  std::uint64_t reserved1;
  std::uint64_t reserved2;
};
static_assert(sizeof(FileHeader) == 64, "snapshot header is 64 bytes");

/// One row of the section table at offset 64.
struct SectionEntry {
  std::uint32_t id;      ///< a SectionId
  std::uint32_t aux;     ///< section-specific; 0 in every section written
  std::uint64_t offset;  ///< absolute file offset, kSectionAlignment-aligned
  std::uint64_t bytes;   ///< payload size
  std::uint32_t crc;     ///< CRC of the payload bytes
  std::uint32_t reserved;
};
static_assert(sizeof(SectionEntry) == 32, "section entry is 32 bytes");

/// Section payloads. Element types are the library's own in-memory
/// structs (static_asserted trivially-copyable and padding-free at the
/// codec layer); aux is 0 unless noted.
enum SectionId : std::uint32_t {
  kNodes = 1,             ///< roadnet::Node[]
  kEdges = 2,             ///< roadnet::Edge[]
  kOutOffsets = 3,        ///< uint32[node_count+1], forward CSR offsets
  kOutSorted = 4,         ///< EdgeId[edge_count], forward CSR order
  kInOffsets = 5,         ///< uint32[node_count+1], reverse CSR offsets
  kInSorted = 6,          ///< EdgeId[edge_count], reverse CSR order
  kShadingMeta = 7,       ///< one ShadingMetaRecord
  kShadingFractions = 8,  ///< float[edges x slots], edge-major
  kTraffic = 9,           ///< one TrafficRecord
  kPanel = 10,            ///< double[kSlotsPerDay], watts at slot starts
  kVehicles = 11,         ///< VehicleRecord[]
  /// Reserved: earlier writers stored materialized SlotCostCache
  /// columns here (aux = vehicle * 96 + slot). A column is derived
  /// data that the loaded world recomputes bit for bit on first touch,
  /// so nothing writes it and the loader ignores it; the id stays taken
  /// so `inspect` still names it in files that carry it.
  kSlotCacheColumn = 12,
};

/// Human-readable section name for error messages and `inspect`.
[[nodiscard]] std::string section_name(std::uint32_t id);

}  // namespace sunchase::snapshot
