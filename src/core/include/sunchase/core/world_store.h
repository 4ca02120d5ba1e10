// Versioned publication point for world snapshots — the server-side
// half of the live-update story. `current()` copies the latest
// snapshot's pointer under a mutex of its own: a query pins the
// snapshot it starts on by holding that copy. `publish()` builds and
// persists the next version without that mutex, then takes it only to
// swap the pointer: queries already running keep their pinned snapshot
// (its refcount keeps it alive), queries arriving after the swap see
// the new one, and no reader ever observes a half-built world. This is
// the MVCC-snapshot pattern (cf. couchbase-lite-core): a reader waits
// at most for another pointer copy or swap, never for a world build or
// a journal write.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sunchase/core/world.h"

namespace sunchase::core {

/// Journal status for introspection (GET /debug/worlds).
struct JournalState {
  bool enabled = false;
  std::string directory;
  std::uint64_t persisted_version = 0;  ///< newest version on disk (0 = none)
  std::uint64_t persist_failures = 0;   ///< persists that aborted a publish
  std::uint64_t snapshots_on_disk = 0;  ///< world-*.scsnap files present
};

/// Result of WorldStore::load_latest: the newest intact snapshot in a
/// journal directory, with an account of every corrupt or torn file
/// that was skipped on the way to it.
struct LoadLatestResult {
  WorldPtr world;           ///< nullptr when the directory holds none
  std::string loaded_from;  ///< path of the snapshot behind `world`
  std::uint64_t skipped_corrupt = 0;
  std::vector<std::string> errors;  ///< one message per skipped file
};

/// One row of WorldStore::lineage(): a published version, whether any
/// reader still holds its snapshot, and an estimate of how many pins
/// are outstanding. Backs GET /debug/worlds.
struct WorldVersionInfo {
  std::uint64_t version = 0;
  bool current = false;  ///< the store's latest published version
  bool alive = false;    ///< snapshot still referenced somewhere
  /// Outstanding reader pins: shared_ptr use_count minus the store's
  /// own reference. Approximate under concurrency (use_count is a
  /// racy read), exact once the world is quiescent.
  std::size_t pins = 0;
};

class WorldStore {
 public:
  /// Publishes the initial snapshot as version 1.
  explicit WorldStore(WorldInit initial);
  /// Adopts an existing snapshot; the next publish gets version
  /// `initial->version() + 1`. Throws InvalidArgument on null.
  explicit WorldStore(WorldPtr initial);

  WorldStore(const WorldStore&) = delete;
  WorldStore& operator=(const WorldStore&) = delete;

  /// The latest published snapshot: a short critical section around
  /// one pointer copy. Call once per query and keep the returned
  /// pointer — that is the pin.
  [[nodiscard]] WorldPtr current() const noexcept {
    const std::lock_guard<std::mutex> lock(current_mutex_);
    return current_;
  }

  /// Version of the latest published snapshot.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return current()->version();
  }

  /// Builds `next` as a new World with the next version number and
  /// swaps it in atomically. Concurrent publishers are serialized
  /// (versions stay dense and monotonic); readers wait only for the
  /// pointer swap, never for the build or the journal write.
  /// With a journal enabled the version is first written durably to
  /// the journal; a persist failure throws common::SnapshotError and
  /// aborts the publish (readers keep the old version, and the version
  /// number is not consumed). Returns the newly published snapshot.
  WorldPtr publish(WorldInit next);

  /// Turns on journaling: an append-only `directory` (created if
  /// missing) of `world-<version>.scsnap` snapshots plus an atomically
  /// renamed MANIFEST naming the newest one. Persists the current
  /// version immediately when the directory does not already hold it —
  /// so a store adopted from load_latest() does not rewrite the
  /// snapshot it just mapped. Throws common::SnapshotError when the
  /// directory cannot be created or the initial persist fails.
  void enable_journal(std::string directory);

  /// Journal status (scans the directory for the on-disk count).
  [[nodiscard]] JournalState journal_state() const;

  /// Boot-time recovery: loads the newest intact snapshot from a
  /// journal directory, preferring the MANIFEST target, then falling
  /// back through older `world-<version>.scsnap` files when the newest
  /// are torn or corrupt (each skip is logged, counted, and reported
  /// in the result — a damaged tail never aborts the boot). A missing
  /// or empty directory yields a null world, not an error.
  [[nodiscard]] static LoadLatestResult load_latest(
      const std::string& directory);

  /// Versions this store ever published remembers (most recent
  /// kLineageCapacity, oldest first), with liveness and pin estimates
  /// from the weak references it keeps — publishing never extends a
  /// snapshot's lifetime. Refreshes the `world.live_versions` and
  /// `world.pinned_readers` gauges as a side effect.
  static constexpr std::size_t kLineageCapacity = 32;
  [[nodiscard]] std::vector<WorldVersionInfo> lineage() const;

 private:
  /// Records `world` in the lineage ring (evicting the oldest row).
  void remember(const WorldPtr& world);

  /// Writes `world` to the journal directory and repoints MANIFEST.
  /// Caller holds publish_mutex_. Throws common::SnapshotError.
  void persist_locked(const WorldPtr& world);

  /// The latest snapshot, guarded by current_mutex_ alone: never held
  /// across a build or a persist, so readers never wait for either.
  WorldPtr current_;
  mutable std::mutex current_mutex_;
  std::uint64_t next_version_;   ///< guarded by publish_mutex_
  /// Serializes publishers (and journal persists) only.
  mutable std::mutex publish_mutex_;
  mutable std::mutex lineage_mutex_;  ///< guards lineage_ only
  std::deque<std::pair<std::uint64_t, std::weak_ptr<const World>>> lineage_;
  // Journal fields, all guarded by publish_mutex_.
  bool journal_enabled_ = false;
  std::string journal_directory_;
  std::uint64_t journal_persisted_version_ = 0;
  std::uint64_t journal_persist_failures_ = 0;
};

}  // namespace sunchase::core
