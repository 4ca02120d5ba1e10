// Snapshot writer: collects section payloads (borrowed spans — the
// caller keeps them alive until write_file returns), computes the
// aligned layout and per-section checksums, and writes the file
// crash-safely: payload to `path.tmp`, fsync, rename over `path`,
// fsync the directory. A reader never observes a half-written
// snapshot — it sees either the old file or the new one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sunchase/snapshot/format.h"

namespace sunchase::snapshot {

class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::uint64_t world_version)
      : world_version_(world_version) {}

  /// Registers a section. The payload span must stay valid until
  /// write_file returns. Sections are written in registration order;
  /// (id, aux) pairs must be unique (throws SnapshotError otherwise).
  void add_section(std::uint32_t id, std::uint32_t aux,
                   std::span<const std::byte> payload);

  /// Typed convenience over add_section.
  template <typename T>
  void add_array(std::uint32_t id, std::uint32_t aux,
                 std::span<const T> values) {
    add_section(id, aux, std::as_bytes(values));
  }

  /// Writes the snapshot to `path` atomically and durably. Throws
  /// SnapshotError naming the path on any I/O failure (the tmp file is
  /// removed).
  void write_file(const std::string& path) const;

  [[nodiscard]] std::size_t section_count() const noexcept {
    return sections_.size();
  }

 private:
  struct Pending {
    std::uint32_t id;
    std::uint32_t aux;
    std::span<const std::byte> payload;
  };
  std::uint64_t world_version_;
  std::vector<Pending> sections_;
};

/// Atomic, durable small-file write (tmp, fsync, rename, directory
/// fsync) for sidecar files like a journal MANIFEST. Throws
/// SnapshotError.
void atomic_write_file(const std::string& path,
                       std::span<const std::byte> bytes);

}  // namespace sunchase::snapshot
