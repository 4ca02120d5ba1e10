// The binary snapshot container: round-trips, zero-copy aliasing, and
// — the part that earns the checksums — every corruption mode a torn
// journal can produce turning into a SnapshotError that names the
// file, the section, and the byte offset.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sunchase/common/error.h"
#include "sunchase/snapshot/crc32.h"
#include "sunchase/snapshot/format.h"
#include "sunchase/snapshot/reader.h"
#include "sunchase/snapshot/writer.h"

namespace sunchase::snapshot {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_all(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small two-section snapshot: uint32 ids and a double payload.
std::string write_sample(const std::string& name,
                         std::uint64_t version = 7) {
  const std::string path = temp_path(name);
  const std::vector<std::uint32_t> ids = {10, 20, 30, 40, 50};
  const std::vector<double> weights = {1.5, -2.25, 4.0};
  SnapshotWriter writer(version);
  writer.add_array<std::uint32_t>(kNodes, 0, ids);
  writer.add_array<double>(kPanel, 0, weights);
  writer.write_file(path);
  return path;
}

/// Patches a header field in place and recomputes the header CRC, so
/// field-level rejections (version, endianness) are reachable past the
/// checksum gate.
void patch_header(std::vector<char>& bytes,
                  void (*mutate)(FileHeader&)) {
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  mutate(header);
  header.header_crc = 0;
  header.header_crc = crc32(
      {reinterpret_cast<const std::byte*>(&header), sizeof(header)});
  std::memcpy(bytes.data(), &header, sizeof(header));
}

/// The SnapshotError message from opening `path`, "" when it opens.
std::string open_error(const std::string& path) {
  try {
    (void)SnapshotReader::open(path);
    return "";
  } catch (const SnapshotError& e) {
    return e.what();
  }
}

TEST(SnapshotCrcTest, MatchesTheIeeeCheckValue) {
  const char data[] = "123456789";
  EXPECT_EQ(crc32(std::as_bytes(std::span<const char>(data, 9))),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(SnapshotCrcTest, SeedChainsIncrementalComputation) {
  const char data[] = "123456789";
  const auto all = std::as_bytes(std::span<const char>(data, 9));
  const std::uint32_t once = crc32(all);
  const std::uint32_t chained = crc32(all.subspan(4), crc32(all.first(4)));
  EXPECT_EQ(once, chained);
}

TEST(SnapshotFormatTest, RoundTripsSectionsBitExactly) {
  const std::string path = write_sample("roundtrip.scsnap", 42);
  const SnapshotReader reader = SnapshotReader::open(path);
  EXPECT_EQ(reader.world_version(), 42u);
  EXPECT_EQ(reader.section_count(), 2u);

  const common::FrozenArray<std::uint32_t> ids =
      reader.array<std::uint32_t>(kNodes);
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids[0], 10u);
  EXPECT_EQ(ids[4], 50u);
  const common::FrozenArray<double> weights = reader.array<double>(kPanel);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_EQ(weights[1], -2.25);
}

TEST(SnapshotFormatTest, ArraysAliasTheMappingZeroCopy) {
  const std::string path = write_sample("zerocopy.scsnap");
  const SnapshotReader reader = SnapshotReader::open(path);
  const auto mapped = reader.mapping()->bytes();
  const common::FrozenArray<std::uint32_t> ids =
      reader.array<std::uint32_t>(kNodes);
  const auto* p = reinterpret_cast<const std::byte*>(ids.data());
  EXPECT_GE(p, mapped.data());
  EXPECT_LT(p, mapped.data() + mapped.size());
}

TEST(SnapshotFormatTest, ViewsOutliveTheReader) {
  common::FrozenArray<double> weights;
  {
    const SnapshotReader reader =
        SnapshotReader::open(write_sample("keepalive.scsnap"));
    weights = reader.array<double>(kPanel);
  }
  // The reader (and its handle on the mapping) is gone; the view's
  // keepalive must still pin the file.
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_EQ(weights[2], 4.0);
}

TEST(SnapshotFormatTest, SectionsAreAlignedForInPlaceReinterpretation) {
  const SnapshotReader reader =
      SnapshotReader::open(write_sample("aligned.scsnap"));
  for (std::size_t i = 0; i < reader.section_count(); ++i)
    EXPECT_EQ(reader.entry(i).offset % kSectionAlignment, 0u);
}

TEST(SnapshotFormatTest, WriterRejectsDuplicateSections) {
  const std::vector<std::uint32_t> ids = {1};
  SnapshotWriter writer(1);
  writer.add_array<std::uint32_t>(kNodes, 3, ids);
  EXPECT_THROW(writer.add_array<std::uint32_t>(kNodes, 3, ids),
               SnapshotError);
}

TEST(SnapshotFormatTest, MissingSectionAndElementSizeMismatchThrow) {
  const SnapshotReader reader =
      SnapshotReader::open(write_sample("missing.scsnap"));
  EXPECT_EQ(reader.find(kTraffic), nullptr);
  EXPECT_THROW((void)reader.bytes(kTraffic), SnapshotError);
  // 5 uint32s = 20 bytes: not a multiple of sizeof(double).
  EXPECT_THROW((void)reader.array<double>(kNodes), SnapshotError);
}

TEST(SnapshotCorruptionTest, RejectsWrongMagic) {
  const std::string path = write_sample("magic.scsnap");
  std::vector<char> bytes = read_all(path);
  bytes[0] = 'X';
  write_all(path, bytes);
  const std::string error = open_error(path);
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(SnapshotCorruptionTest, RejectsUnsupportedFormatVersion) {
  const std::string path = write_sample("version.scsnap");
  std::vector<char> bytes = read_all(path);
  patch_header(bytes, [](FileHeader& h) { h.format_version = 99; });
  write_all(path, bytes);
  const std::string error = open_error(path);
  EXPECT_NE(error.find("unsupported format version 99"), std::string::npos)
      << error;
}

TEST(SnapshotCorruptionTest, RejectsForeignEndianness) {
  const std::string path = write_sample("endian.scsnap");
  std::vector<char> bytes = read_all(path);
  patch_header(bytes, [](FileHeader& h) { h.endianness = 0x04030201u; });
  write_all(path, bytes);
  const std::string error = open_error(path);
  EXPECT_NE(error.find("endianness mismatch"), std::string::npos) << error;
}

TEST(SnapshotCorruptionTest, RejectsHeaderBitFlip) {
  const std::string path = write_sample("header_flip.scsnap");
  std::vector<char> bytes = read_all(path);
  bytes[16] = static_cast<char>(bytes[16] ^ 0x01);  // world_version field
  write_all(path, bytes);
  const std::string error = open_error(path);
  EXPECT_NE(error.find("header checksum mismatch"), std::string::npos)
      << error;
}

TEST(SnapshotCorruptionTest, RejectsTruncationAtEveryLayer) {
  const std::string path = write_sample("truncated.scsnap");
  const std::vector<char> bytes = read_all(path);
  // Mid-header, mid-table, and mid-payload truncations all fail
  // cleanly (the last two via the declared-size check).
  for (const std::size_t keep :
       {std::size_t{10}, sizeof(FileHeader) + 16, bytes.size() - 8}) {
    write_all(path, {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    const std::string error = open_error(path);
    EXPECT_NE(error.find("truncated"), std::string::npos)
        << "keep=" << keep << ": " << error;
  }
}

TEST(SnapshotCorruptionTest, RejectsSectionTableBitFlip) {
  const std::string path = write_sample("table_flip.scsnap");
  std::vector<char> bytes = read_all(path);
  bytes[sizeof(FileHeader) + 8] ^= 0x40;  // first entry's offset field
  write_all(path, bytes);
  const std::string error = open_error(path);
  EXPECT_NE(error.find("section table checksum mismatch"),
            std::string::npos)
      << error;
}

TEST(SnapshotCorruptionTest, PayloadBitFlipNamesFileSectionAndOffset) {
  const std::string path = write_sample("payload_flip.scsnap");
  const SnapshotReader intact = SnapshotReader::open(path);
  const SectionEntry entry = *intact.find(kPanel);

  std::vector<char> bytes = read_all(path);
  bytes[entry.offset + 3] ^= 0x10;
  write_all(path, bytes);

  const std::string error = open_error(path);
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("section panel"), std::string::npos) << error;
  EXPECT_NE(error.find("offset " + std::to_string(entry.offset)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;

  // inspect-style open skips eager verification and reports the bad
  // section instead of failing.
  const SnapshotReader tolerant = SnapshotReader::open(
      path, ReadOptions{/*verify_section_checksums=*/false});
  bool saw_corrupt = false;
  for (std::size_t i = 0; i < tolerant.section_count(); ++i)
    if (!tolerant.section_crc_ok(i)) {
      EXPECT_EQ(tolerant.entry(i).id, static_cast<std::uint32_t>(kPanel));
      saw_corrupt = true;
    }
  EXPECT_TRUE(saw_corrupt);
}

TEST(SnapshotCorruptionTest, RejectsDeclaredSizeShorterThanFile) {
  // A header that under-declares the file (e.g. an old header over a
  // longer file after a botched copy) is as suspect as truncation.
  const std::string path = write_sample("grown.scsnap");
  std::vector<char> bytes = read_all(path);
  bytes.push_back('\0');
  write_all(path, bytes);
  const std::string error = open_error(path);
  EXPECT_NE(error.find("truncated file"), std::string::npos) << error;
}

}  // namespace
}  // namespace sunchase::snapshot
