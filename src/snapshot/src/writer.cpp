#include "sunchase/snapshot/writer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "sunchase/common/error.h"
#include "sunchase/snapshot/crc32.h"

namespace sunchase::snapshot {

namespace {

[[noreturn]] void fail_errno(const std::string& path,
                             const std::string& what) {
  throw SnapshotError("snapshot: " + path + ": " + what + ": " +
                      std::strerror(errno));
}

std::uint64_t align_up(std::uint64_t offset) {
  const std::uint64_t a = kSectionAlignment;
  return (offset + a - 1) / a * a;
}

std::span<const std::byte> struct_bytes(const void* p, std::size_t n) {
  return {static_cast<const std::byte*>(p), n};
}

/// RAII fd that unlinks `path` unless released (tmp-file cleanup on
/// any failure path).
class TmpFile {
 public:
  TmpFile(const std::string& path, int fd) : path_(path), fd_(fd) {}
  TmpFile(const TmpFile&) = delete;
  TmpFile& operator=(const TmpFile&) = delete;
  ~TmpFile() {
    if (fd_ >= 0) ::close(fd_);
    if (!released_) ::unlink(path_.c_str());
  }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close_fd() {
    ::close(fd_);
    fd_ = -1;
  }
  void release() noexcept { released_ = true; }

 private:
  std::string path_;
  int fd_ = -1;
  bool released_ = false;
};

void write_all(int fd, const std::string& path,
               std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  while (n > 0) {
    const ssize_t wrote = ::write(fd, p, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      fail_errno(path, "write failed");
    }
    p += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
}

void fsync_directory_of(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) fail_errno(dir, "cannot open directory for fsync");
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) fail_errno(dir, "directory fsync failed");
}

/// Shared tmp+fsync+rename body: `emit` writes the payload to the open
/// fd.
template <typename EmitFn>
void write_atomically(const std::string& path, EmitFn emit) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail_errno(tmp, "cannot create");
  TmpFile guard(tmp, fd);
  emit(fd, tmp);
  if (::fsync(fd) != 0) fail_errno(tmp, "fsync failed");
  guard.close_fd();
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    fail_errno(path, "rename failed");
  guard.release();
  fsync_directory_of(path);
}

}  // namespace

void SnapshotWriter::add_section(std::uint32_t id, std::uint32_t aux,
                                 std::span<const std::byte> payload) {
  for (const Pending& s : sections_)
    if (s.id == id && s.aux == aux)
      throw SnapshotError("snapshot: duplicate section " + section_name(id) +
                          " (id " + std::to_string(id) + ", aux " +
                          std::to_string(aux) + ")");
  sections_.push_back(Pending{id, aux, payload});
}

void SnapshotWriter::write_file(const std::string& path) const {
  // Layout: header, table, then payloads each aligned up.
  std::vector<SectionEntry> table(sections_.size());
  std::uint64_t offset =
      sizeof(FileHeader) + sizeof(SectionEntry) * sections_.size();
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    offset = align_up(offset);
    table[i].id = sections_[i].id;
    table[i].aux = sections_[i].aux;
    table[i].offset = offset;
    table[i].bytes = sections_[i].payload.size();
    table[i].crc = crc32(sections_[i].payload);
    table[i].reserved = 0;
    offset += table[i].bytes;
  }
  const std::uint64_t file_bytes = offset;

  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.format_version = kFormatVersion;
  header.endianness = kEndianTag;
  header.world_version = world_version_;
  header.section_count = static_cast<std::uint32_t>(sections_.size());
  header.file_bytes = file_bytes;
  header.table_crc = crc32(
      struct_bytes(table.data(), sizeof(SectionEntry) * table.size()));
  header.header_crc = 0;
  header.header_crc = crc32(struct_bytes(&header, sizeof(header)));

  write_atomically(path, [&](int fd, const std::string& tmp) {
    write_all(fd, tmp, struct_bytes(&header, sizeof(header)));
    write_all(fd, tmp,
              struct_bytes(table.data(), sizeof(SectionEntry) * table.size()));
    static constexpr std::byte kZeros[kSectionAlignment] = {};
    std::uint64_t written =
        sizeof(FileHeader) + sizeof(SectionEntry) * table.size();
    for (std::size_t i = 0; i < sections_.size(); ++i) {
      const std::uint64_t pad = table[i].offset - written;
      write_all(fd, tmp, std::span<const std::byte>(kZeros, pad));
      write_all(fd, tmp, sections_[i].payload);
      written = table[i].offset + table[i].bytes;
    }
  });
}

void atomic_write_file(const std::string& path,
                       std::span<const std::byte> bytes) {
  write_atomically(path, [&](int fd, const std::string& tmp) {
    write_all(fd, tmp, bytes);
  });
}

}  // namespace sunchase::snapshot
