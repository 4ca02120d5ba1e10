// QueryLog: the JSONL sink must hold up under concurrent planner
// workers — exactly one unbroken, parseable line per record — and its
// slow-query threshold must count (and only count) the slow ones.
#include "sunchase/obs/query_log.h"

#include <gtest/gtest.h>

#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_check.h"
#include "sunchase/common/error.h"
#include "sunchase/common/thread_pool.h"

namespace sunchase::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

QueryRecord sample_record(std::int64_t index) {
  QueryRecord record;
  record.mode = "batch";
  record.index = index;
  record.origin = 3;
  record.destination = 42;
  record.departure = "10:00:00";
  record.mlc_seconds = 0.012;
  record.total_seconds = 0.015;
  record.labels_created = 100;
  record.pareto_size = 4;
  record.candidate_count = 2;
  record.travel_time_s = 310.5;
  record.energy_in_wh = 1.25;
  record.energy_out_wh = 20.75;
  return record;
}

TEST(QueryLogTest, WritesOneParseableLinePerRecord) {
  std::ostringstream sink;
  QueryLog log(sink);
  log.write(sample_record(0));
  log.write(sample_record(1));

  const auto lines = lines_of(sink.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(test::json_parses(line)) << line;
    EXPECT_NE(line.find("\"mode\":\"batch\""), std::string::npos);
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  }
  EXPECT_EQ(log.record_count(), 2u);
}

TEST(QueryLogTest, HammeredByAThreadPoolNeverInterleavesLines) {
  constexpr int kWorkers = 8;
  constexpr int kRecordsPerWorker = 50;
  std::ostringstream sink;
  QueryLog log(sink);
  {
    common::ThreadPool pool(kWorkers);
    std::vector<std::future<void>> futures;
    for (int w = 0; w < kWorkers; ++w) {
      futures.push_back(pool.submit([&log, w] {
        for (int r = 0; r < kRecordsPerWorker; ++r)
          log.write(sample_record(w * kRecordsPerWorker + r));
      }));
    }
    for (auto& f : futures) f.get();
  }

  const auto lines = lines_of(sink.str());
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kWorkers * kRecordsPerWorker));
  EXPECT_EQ(log.record_count(),
            static_cast<std::uint64_t>(kWorkers * kRecordsPerWorker));

  // Every line parses on its own, and every record index appears exactly
  // once — a torn or interleaved write would break one or the other.
  std::set<std::string> indices;
  for (const std::string& line : lines) {
    ASSERT_TRUE(test::json_parses(line)) << line;
    const auto at = line.find("\"index\":");
    ASSERT_NE(at, std::string::npos) << line;
    const auto start = at + 8;
    indices.insert(line.substr(start, line.find(',', start) - start));
  }
  EXPECT_EQ(indices.size(),
            static_cast<std::size_t>(kWorkers * kRecordsPerWorker));
}

TEST(QueryLogTest, CountsQueriesAboveTheSlowThreshold) {
  std::ostringstream sink;
  QueryLog log(sink);
  log.set_slow_threshold(Seconds{0.5});
  EXPECT_DOUBLE_EQ(log.slow_threshold().value(), 0.5);

  QueryRecord fast = sample_record(0);
  fast.total_seconds = 0.1;
  QueryRecord slow = sample_record(1);
  slow.total_seconds = 2.0;
  log.write(fast);
  log.write(slow);
  log.write(slow);

  EXPECT_EQ(log.record_count(), 3u);
  EXPECT_EQ(log.slow_count(), 2u);
}

TEST(QueryLogTest, ZeroThresholdDisablesSlowCounting) {
  std::ostringstream sink;
  QueryLog log(sink);
  QueryRecord record = sample_record(0);
  record.total_seconds = 1e6;
  log.write(record);
  EXPECT_EQ(log.slow_count(), 0u);
}

TEST(QueryLogTest, ErrorRecordsCarryTheMessageAndSkipTheSummary) {
  std::ostringstream sink;
  QueryLog log(sink);
  QueryRecord record = sample_record(0);
  record.status = "error";
  record.error = "unreachable destination";
  log.write(record);

  const auto lines = lines_of(sink.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(test::json_parses(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(lines[0].find("unreachable destination"), std::string::npos);
  EXPECT_EQ(lines[0].find("travel_time_s"), std::string::npos);
}

TEST(QueryLogTest, EscapesHostileStringsIntoValidJson) {
  std::ostringstream sink;
  QueryLog log(sink);
  QueryRecord record = sample_record(0);
  record.status = "error";
  record.error = "bad \"query\"\nwith \\ and\ttabs, \x1f" "x";
  log.write(record);

  const auto lines = lines_of(sink.str());
  ASSERT_EQ(lines.size(), 1u);  // the embedded newline must be escaped
  EXPECT_TRUE(test::json_parses(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\\u001fx"), std::string::npos) << lines[0];
}

TEST(QueryLogTest, FileConstructorThrowsOnUnwritablePath) {
  EXPECT_THROW(QueryLog("/nonexistent-dir/sub/query.jsonl"), IoError);
}

TEST(QueryLogTest, FileConstructorWritesJsonlToDisk) {
  const std::string path =
      testing::TempDir() + "/sunchase_query_log_test.jsonl";
  {
    QueryLog log(path);
    log.write(sample_record(7));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(test::json_parses(line)) << line;
  EXPECT_FALSE(std::getline(in, line));
}

}  // namespace
}  // namespace sunchase::obs
