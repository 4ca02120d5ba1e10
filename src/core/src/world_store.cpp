#include "sunchase/core/world_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <utility>

#include "sunchase/common/error.h"
#include "sunchase/common/logging.h"
#include "sunchase/core/world_codec.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/snapshot/writer.h"

namespace sunchase::core {

namespace {

std::string snapshot_file_name(std::uint64_t version) {
  return "world-" + std::to_string(version) + ".scsnap";
}

/// The version encoded in a `world-<version>.scsnap` file name, or 0
/// when the name does not match the pattern (versions start at 1).
std::uint64_t version_of_file_name(const std::string& name) {
  const std::string prefix = "world-";
  const std::string suffix = ".scsnap";
  if (name.size() <= prefix.size() + suffix.size()) return 0;
  if (name.compare(0, prefix.size(), prefix) != 0) return 0;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return 0;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return 0;
  std::uint64_t version = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return 0;
    version = version * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return version;
}

/// First line of the MANIFEST, or empty when absent/unreadable.
std::string read_manifest(const std::filesystem::path& directory) {
  std::ifstream in(directory / "MANIFEST");
  std::string line;
  if (!in || !std::getline(in, line)) return {};
  return line;
}

}  // namespace

WorldStore::WorldStore(WorldInit initial)
    : current_(World::create(std::move(initial), 1)), next_version_(2) {
  remember(current());
}

WorldStore::WorldStore(WorldPtr initial) {
  if (!initial) throw InvalidArgument("WorldStore: null initial world");
  next_version_ = initial->version() + 1;
  current_ = initial;
  remember(initial);
}

WorldPtr WorldStore::publish(WorldInit next) {
  // Build and persist outside current_mutex_: a slow construction
  // (solar map, caches) or journal write must never make readers wait.
  // Only the version counter, the journal persist, and the final
  // pointer swap are serialized across publishers.
  std::lock_guard<std::mutex> lock(publish_mutex_);
  const std::uint64_t version = next_version_;
  WorldPtr world = World::create(std::move(next), version);
  if (journal_enabled_) {
    // Persist before the swap: a publish that cannot reach disk must
    // not become visible (and must not consume the version number —
    // the retry gets the same one).
    try {
      persist_locked(world);
    } catch (const Error& e) {
      ++journal_persist_failures_;
      obs::Registry::global().counter("journal.persist_failures").add();
      SUNCHASE_LOG(Error) << "worldstore: publish of version " << version
                          << " aborted: " << e.what();
      throw;
    }
  }
  next_version_ = version + 1;
  // The old version may lose its last reference with the swap: release
  // it after the readers' lock, not under it.
  WorldPtr previous;
  {
    const std::lock_guard<std::mutex> swap(current_mutex_);
    previous = std::exchange(current_, world);
  }
  remember(world);
  obs::Registry::global().gauge("world.version").set(
      static_cast<double>(version));
  obs::Registry::global().counter("world.publishes").add();
  SUNCHASE_LOG(Info) << "worldstore: published version " << version;
  return world;
}

void WorldStore::enable_journal(std::string directory) {
  namespace fs = std::filesystem;
  std::lock_guard<std::mutex> lock(publish_mutex_);
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec)
    throw SnapshotError("journal: cannot create directory '" + directory +
                        "': " + ec.message());
  journal_directory_ = std::move(directory);
  journal_enabled_ = true;
  const WorldPtr world = current();
  const fs::path existing =
      fs::path(journal_directory_) / snapshot_file_name(world->version());
  if (fs::exists(existing, ec)) {
    // Adopted from load_latest(): the snapshot we just mapped is the
    // journal tail; rewriting it would race our own mapping.
    journal_persisted_version_ = world->version();
    SUNCHASE_LOG(Info) << "worldstore: journaling to " << journal_directory_
                       << " (version " << world->version()
                       << " already on disk)";
    return;
  }
  persist_locked(world);
  SUNCHASE_LOG(Info) << "worldstore: journaling to " << journal_directory_
                     << " (persisted version " << world->version() << ")";
}

void WorldStore::persist_locked(const WorldPtr& world) {
  const std::string file = snapshot_file_name(world->version());
  save_world_snapshot(*world, journal_directory_ + "/" + file);
  const std::string manifest = file + "\n";
  snapshot::atomic_write_file(
      journal_directory_ + "/MANIFEST",
      std::as_bytes(std::span<const char>(manifest.data(), manifest.size())));
  journal_persisted_version_ = world->version();
  obs::Registry::global().counter("journal.persists").add();
  obs::Registry::global().gauge("journal.persisted_version").set(
      static_cast<double>(world->version()));
}

JournalState WorldStore::journal_state() const {
  namespace fs = std::filesystem;
  JournalState state;
  std::lock_guard<std::mutex> lock(publish_mutex_);
  state.enabled = journal_enabled_;
  if (!journal_enabled_) return state;
  state.directory = journal_directory_;
  state.persisted_version = journal_persisted_version_;
  state.persist_failures = journal_persist_failures_;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(journal_directory_, ec))
    if (version_of_file_name(entry.path().filename().string()) != 0)
      ++state.snapshots_on_disk;
  return state;
}

LoadLatestResult WorldStore::load_latest(const std::string& directory) {
  namespace fs = std::filesystem;
  LoadLatestResult result;
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) return result;

  // Candidates newest-first; the MANIFEST target (normally the newest
  // intact file) is tried first when it parses.
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    const std::uint64_t version = version_of_file_name(name);
    if (version != 0) candidates.emplace_back(version, name);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const std::string manifest = read_manifest(directory);
  if (version_of_file_name(manifest) != 0) {
    const auto it = std::find_if(
        candidates.begin(), candidates.end(),
        [&manifest](const auto& c) { return c.second == manifest; });
    if (it != candidates.end()) std::rotate(candidates.begin(), it, it + 1);
  }

  for (const auto& [version, name] : candidates) {
    const std::string path = directory + "/" + name;
    try {
      result.world = load_world_snapshot(path);
      result.loaded_from = path;
      SUNCHASE_LOG(Info) << "worldstore: loaded version "
                         << result.world->version() << " from " << path;
      return result;
    } catch (const Error& e) {
      ++result.skipped_corrupt;
      result.errors.emplace_back(e.what());
      obs::Registry::global().counter("journal.load_skipped_corrupt").add();
      SUNCHASE_LOG(Warning) << "worldstore: skipping corrupt snapshot: "
                         << e.what();
    }
  }
  return result;
}

void WorldStore::remember(const WorldPtr& world) {
  const std::lock_guard<std::mutex> lock(lineage_mutex_);
  if (lineage_.size() == kLineageCapacity) lineage_.pop_front();
  lineage_.emplace_back(world->version(), std::weak_ptr<const World>(world));
}

std::vector<WorldVersionInfo> WorldStore::lineage() const {
  const std::uint64_t current_version = current()->version();
  std::vector<WorldVersionInfo> rows;
  {
    const std::lock_guard<std::mutex> lock(lineage_mutex_);
    rows.reserve(lineage_.size());
    for (const auto& [version, weak] : lineage_) {
      WorldVersionInfo info;
      info.version = version;
      info.current = version == current_version;
      if (const WorldPtr pinned = weak.lock()) {
        info.alive = true;
        // Discount our own temporary pin and, for the current version,
        // the store's reference — what remains is outside readers.
        const auto count = static_cast<std::size_t>(pinned.use_count());
        const std::size_t own = info.current ? 2u : 1u;
        info.pins = count > own ? count - own : 0u;
      }
      rows.push_back(info);
    }
  }
  // Aggregate gauges only: per-version series would grow with every
  // publish, so version-level detail stays in /debug/worlds.
  std::size_t live = 0, pins = 0;
  for (const WorldVersionInfo& row : rows) {
    live += row.alive ? 1u : 0u;
    pins += row.pins;
  }
  obs::Registry::global().gauge("world.live_versions").set(
      static_cast<double>(live));
  obs::Registry::global().gauge("world.pinned_readers").set(
      static_cast<double>(pins));
  return rows;
}

}  // namespace sunchase::core
