// The WorldStore journal: publishes durably append world-<v>.scsnap
// files and repoint MANIFEST atomically; boot-time load_latest()
// restores the newest intact version and walks past torn or corrupt
// tails instead of aborting. These suites run under the CI
// ThreadSanitizer job (WorldJournal matches its filter).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core_fixture.h"
#include "sunchase/common/error.h"
#include "sunchase/core/world_store.h"
#include "sunchase/roadnet/citygen.h"

namespace sunchase::core {
namespace {

namespace fs = std::filesystem;

WorldInit city_init() {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  return test::RoutingEnv::make_init(city.graph());
}

/// A fresh (empty) journal directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string manifest_of(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST");
  std::string line;
  std::getline(in, line);
  return line;
}

/// Truncates `path` to `keep` bytes — a simulated torn write (the
/// atomic rename normally makes this impossible; a crashed copy or a
/// bad disk does not care).
void truncate_file(const std::string& path, std::uintmax_t keep) {
  fs::resize_file(path, keep);
}

TEST(WorldJournal, PublishAppendsSnapshotsAndRepointsManifest) {
  const std::string dir = fresh_dir("journal_publish");
  WorldStore store(city_init());
  store.enable_journal(dir);

  EXPECT_TRUE(fs::exists(dir + "/world-1.scsnap"));
  EXPECT_EQ(manifest_of(dir), "world-1.scsnap");

  (void)store.publish(store.current()->recipe());
  (void)store.publish(store.current()->recipe());
  EXPECT_TRUE(fs::exists(dir + "/world-2.scsnap"));
  EXPECT_TRUE(fs::exists(dir + "/world-3.scsnap"));
  EXPECT_EQ(manifest_of(dir), "world-3.scsnap");

  const JournalState state = store.journal_state();
  EXPECT_TRUE(state.enabled);
  EXPECT_EQ(state.directory, dir);
  EXPECT_EQ(state.persisted_version, 3u);
  EXPECT_EQ(state.persist_failures, 0u);
  EXPECT_EQ(state.snapshots_on_disk, 3u);
}

TEST(WorldJournal, LoadLatestRestoresTheNewestVersion) {
  const std::string dir = fresh_dir("journal_restore");
  {
    WorldStore store(city_init());
    store.enable_journal(dir);
    (void)store.publish(store.current()->recipe());
  }
  const LoadLatestResult latest = WorldStore::load_latest(dir);
  ASSERT_NE(latest.world, nullptr);
  EXPECT_EQ(latest.world->version(), 2u);
  EXPECT_EQ(latest.loaded_from, dir + "/world-2.scsnap");
  EXPECT_EQ(latest.skipped_corrupt, 0u);

  // A store adopted from the restored world continues the version
  // sequence without rewriting the snapshot it booted from.
  WorldStore revived(latest.world);
  revived.enable_journal(dir);
  (void)revived.publish(revived.current()->recipe());
  EXPECT_EQ(revived.version(), 3u);
  EXPECT_TRUE(fs::exists(dir + "/world-3.scsnap"));
  EXPECT_EQ(manifest_of(dir), "world-3.scsnap");
}

TEST(WorldJournal, TornTailFallsBackToTheNewestIntactVersion) {
  const std::string dir = fresh_dir("journal_torn");
  {
    WorldStore store(city_init());
    store.enable_journal(dir);
    (void)store.publish(store.current()->recipe());
    (void)store.publish(store.current()->recipe());
  }
  // Tear the newest file mid-payload; the MANIFEST still names it.
  truncate_file(dir + "/world-3.scsnap", 100);

  const LoadLatestResult latest = WorldStore::load_latest(dir);
  ASSERT_NE(latest.world, nullptr);
  EXPECT_EQ(latest.world->version(), 2u);
  EXPECT_EQ(latest.skipped_corrupt, 1u);
  ASSERT_EQ(latest.errors.size(), 1u);
  EXPECT_NE(latest.errors[0].find("world-3.scsnap"), std::string::npos)
      << latest.errors[0];
}

TEST(WorldJournal, WalksPastMultipleCorruptTailsByChecksum) {
  const std::string dir = fresh_dir("journal_multi");
  {
    WorldStore store(city_init());
    store.enable_journal(dir);
    (void)store.publish(store.current()->recipe());
    (void)store.publish(store.current()->recipe());
  }
  truncate_file(dir + "/world-3.scsnap", 40);  // mid-header
  {
    // Bit-flip a payload byte of version 2: intact header, bad section.
    std::fstream f(dir + "/world-2.scsnap",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(600);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(600);
    f.write(&byte, 1);
  }
  const LoadLatestResult latest = WorldStore::load_latest(dir);
  ASSERT_NE(latest.world, nullptr);
  EXPECT_EQ(latest.world->version(), 1u);
  EXPECT_EQ(latest.skipped_corrupt, 2u);
  EXPECT_EQ(latest.errors.size(), 2u);
}

TEST(WorldJournal, ManifestNamingAMissingFileFallsBackToTheScan) {
  const std::string dir = fresh_dir("journal_badmanifest");
  {
    WorldStore store(city_init());
    store.enable_journal(dir);
    (void)store.publish(store.current()->recipe());
  }
  std::ofstream(dir + "/MANIFEST") << "world-99.scsnap\n";
  const LoadLatestResult latest = WorldStore::load_latest(dir);
  ASSERT_NE(latest.world, nullptr);
  EXPECT_EQ(latest.world->version(), 2u);
}

TEST(WorldJournal, MissingOrEmptyDirectoryYieldsNullWorld) {
  const LoadLatestResult missing =
      WorldStore::load_latest(testing::TempDir() + "/journal_nonexistent");
  EXPECT_EQ(missing.world, nullptr);
  EXPECT_EQ(missing.skipped_corrupt, 0u);

  const LoadLatestResult empty =
      WorldStore::load_latest(fresh_dir("journal_empty"));
  EXPECT_EQ(empty.world, nullptr);
}

TEST(WorldJournal, DurablePersistFailureAbortsThePublish) {
  const std::string dir = fresh_dir("journal_failure");
  WorldStore store(city_init());
  store.enable_journal(dir);

  // Yank the directory out from under the journal: the next publish
  // cannot persist, so it must not become visible and must not
  // consume the version number.
  fs::remove_all(dir);
  std::ofstream(dir) << "not a directory";
  EXPECT_THROW((void)store.publish(store.current()->recipe()),
               SnapshotError);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.journal_state().persist_failures, 1u);

  // With the directory back, the retry gets the version the failed
  // attempt would have had.
  fs::remove(dir);
  fs::create_directories(dir);
  (void)store.publish(store.current()->recipe());
  EXPECT_EQ(store.version(), 2u);
  EXPECT_TRUE(fs::exists(dir + "/world-2.scsnap"));
}

TEST(WorldJournal, EnableJournalRejectsAnUncreatableDirectory) {
  const std::string blocker = fresh_dir("journal_blocked") + "/file";
  std::ofstream(blocker) << "x";
  WorldStore store(city_init());
  EXPECT_THROW(
      store.enable_journal(blocker + "/nested"),
      SnapshotError);
  EXPECT_FALSE(store.journal_state().enabled);
}

}  // namespace
}  // namespace sunchase::core
