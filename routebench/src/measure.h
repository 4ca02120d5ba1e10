// The benchmark's own arithmetic: sample quantiles, latency histograms,
// the host clock probe and a span log with per-layer self times. Pure
// code with no dependency on the program under test, so the self-tests
// can pin it on known inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace sunchase::routebench {

using Clock = std::chrono::steady_clock;

/// Seconds from `from` to now.
[[nodiscard]] double seconds_since(Clock::time_point from);

/// The q-quantile (q in [0, 1]) of `samples`, interpolating linearly
/// between order statistics: the rule of numpy's default percentile and
/// of Python's statistics.quantiles(method="inclusive"). Throws
/// std::invalid_argument on an empty sample or q outside [0, 1].
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// Latency quantiles in fixed memory: counts in logarithmic bins 0.1 %
/// wide from 1 us to about 1000 s, read back with linear interpolation
/// inside a bin. Memory does not grow with the number of requests, so a
/// faster program does not raise peak_rss_mb. Thread-safe.
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// One latency; values outside the bins count in the first or last.
  void add(double ms);
  [[nodiscard]] std::uint64_t count() const;
  /// The q-quantile (q in [0, 1]): the latency of rank q (n - 1) among
  /// the n added, sorted from 0, within 0.1 %. A fractional rank is
  /// placed inside its bin, not between two distant latencies as
  /// quantile() would. 0 when none was added.
  [[nodiscard]] double quantile_ms(double q) const;
  /// The mean of the latencies left when the fraction `trim` (in
  /// [0, 0.5)) is cut from each end of the sorted list, within 0.1 %; 0
  /// when none was added. Unlike the median it moves smoothly as the
  /// mix of two distinct speeds shifts, and unlike the mean it ignores
  /// a few stalls.
  [[nodiscard]] double trimmed_mean_ms(double trim) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> bins_;  ///< guarded by mutex_
  std::uint64_t count_ = 0;          ///< guarded by mutex_
};

/// The median of the last `window` values pushed.
class TrailingMedian {
 public:
  explicit TrailingMedian(std::size_t window);
  void push(double value);
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  /// Throws std::invalid_argument when nothing was pushed.
  [[nodiscard]] double value() const;

 private:
  const std::size_t window_;
  std::vector<double> values_;  ///< ring buffer of the last window_ values
  std::size_t next_ = 0;
};

/// The host's clock, measured so that timings can be read at a
/// reference clock. Shared hosts run the same code at very different
/// speeds from one minute to the next (turbo headroom depends on what
/// the other tenants run): in trials the same search work, with
/// identical label counts, took 2.5 s to 3.9 s per pass. A thread of
/// its own (on the benchmark's one CPU) runs a fixed kernel (a dependent multiply-xorshift chain of
/// kKernelIterations steps, which touches no memory and runs no program
/// code) every kPeriod and times it in its own thread CPU time, which
/// time slices lost to other threads do not inflate. factor() is the
/// kernel's reference time over the median of its last kWindow timings:
/// multiplying a time measured now by it gives the time at the
/// reference clock, where the kernel takes kReferenceKernelSeconds.
class ClockProbe {
 public:
  static constexpr int kKernelIterations = 100000;
  /// The kernel's CPU time on a 2.0 GHz Intel Xeon (Sapphire Rapids)
  /// KVM guest: about 5 cycles per step.
  static constexpr double kReferenceKernelSeconds = 250e-6;
  static constexpr std::chrono::milliseconds kPeriod{25};
  static constexpr std::size_t kWindow = 40;  ///< one second of timings

  /// Times the kernel kWindow / 4 times back to back, so factor() has a
  /// value at once, then starts the thread.
  ClockProbe();
  ~ClockProbe();
  ClockProbe(const ClockProbe&) = delete;
  ClockProbe& operator=(const ClockProbe&) = delete;

  /// Reference seconds per second measured now.
  [[nodiscard]] double factor() const noexcept {
    return factor_.load(std::memory_order_relaxed);
  }
  /// CPU seconds the probe has spent so far, which the benchmark takes
  /// out of the process's CPU time.
  [[nodiscard]] double cpu_seconds() const noexcept {
    return cpu_seconds_.load(std::memory_order_relaxed);
  }

 private:
  void sample();
  void loop();

  TrailingMedian kernel_s_{kWindow};  ///< touched by one thread at a time
  std::atomic<double> factor_{1.0};
  std::atomic<double> cpu_seconds_{0.0};
  std::atomic<std::uint64_t> sink_{1};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  ///< guarded by stop_mutex_
  std::thread thread_;
};

/// One timed call. `parent` is the span of the layer that makes this
/// call inside the program (0 for a root); `request` groups the spans
/// of one request.
struct Span {
  std::uint64_t id = 0;
  std::string name;
  double start_us = 0.0;  ///< since the log's origin
  double end_us = 0.0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;

  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

/// Thread-safe in-memory span store, written out once at exit.
class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Records one span and returns its id (ids start at 1).
  std::uint64_t record(std::string name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent,
                       std::uint64_t request);
  /// A fresh request id (ids start at 1).
  std::uint64_t next_request();

  [[nodiscard]] std::vector<Span> spans() const;

  /// One JSON object per line: id, name, start_us, end_us, parent,
  /// request. Throws std::runtime_error when the file cannot be written.
  void write_jsonl(const std::string& path) const;

 private:
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;         ///< guarded by mutex_
  std::uint64_t next_request_ = 1;  ///< guarded by mutex_
};

/// One row of a share table: a layer's mean self time per root span,
/// and that time as a share of the root's mean duration.
struct LayerShare {
  std::string name;
  int depth = 0;  ///< 0 for the root
  double mean_self_us = 0.0;
  double share = 0.0;
};

/// Spans indexed by parent, for the per-layer metrics and share tables.
///
/// A span's self time is its duration minus the durations of its direct
/// children. The program has no spans of its own, so the benchmark times
/// each callee in a call of its own next to its parent's; a child's
/// interval then need not lie inside its parent's, and subtracting
/// durations is what attributes the time. For nested, non-overlapping
/// children this equals subtracting the part of the interval they
/// cover. A self time is negative when a separately timed child ran
/// slower than the call that contains it.
class SpanTree {
 public:
  explicit SpanTree(std::vector<Span> spans);

  /// Durations of the spans named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;
  /// Self times of the spans named `name`, in recording order.
  [[nodiscard]] std::vector<double> self_us(std::string_view name) const;
  /// For each span named `name` with a direct child named `child`: its
  /// duration minus that child's.
  [[nodiscard]] std::vector<double> minus_child_us(
      std::string_view name, std::string_view child) const;
  /// Mean self time of every layer in the subtrees of the spans named
  /// `root` (root included), as a share of the roots' mean duration, in
  /// depth-first order of first appearance. The shares sum to 1. Empty
  /// when no span is named `root`.
  [[nodiscard]] std::vector<LayerShare> shares(std::string_view root) const;

 private:
  [[nodiscard]] double self_of(std::size_t index) const;

  std::vector<Span> spans_;
  /// span id -> indices of its direct children
  std::map<std::uint64_t, std::vector<std::size_t>> children_;
};

}  // namespace sunchase::routebench
