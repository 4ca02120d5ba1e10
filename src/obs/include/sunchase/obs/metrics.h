// Process-wide metrics: named counters, gauges, and fixed-boundary
// histograms behind a thread-safe registry. Hot-path updates are single
// relaxed atomic operations (no locks); reading takes a snapshot that
// renders as JSON (for BENCH_*.json / --metrics-out run reports) or
// Prometheus text exposition format. Instrumented code caches the
// handle returned by Registry::{counter,gauge,histogram} — handles stay
// valid for the registry's lifetime.
//
// Metrics may carry dimensional labels (endpoint, status, pricing
// mode): each distinct {name, label set} is an independent series of
// one family, rendered as a proper Prometheus label set
// (`serve_requests{endpoint="/plan",status="200"} 3`). Cardinality is
// bounded — a family caps out at kMaxSeriesPerFamily label sets, after
// which new sets clamp to one shared {overflow="true"} series (and
// `obs.metrics.series_overflow` counts the clamps), so an unbounded
// label value (a raw URL, a user id) can never OOM the registry.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sunchase::obs {

/// One metric's dimensional labels: {key, value} pairs. Order does not
/// matter (series identity sorts by key); keys are sanitized to the
/// Prometheus label charset, values may be any UTF-8 (escaped on
/// export). Keep values BOUNDED — enum-like strings, never raw input.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical series identity: `name` alone for empty labels, otherwise
/// `name{k="v",...}` with keys sorted and values escaped — the exact
/// form snapshot maps and exports key on. Throws InvalidArgument on an
/// empty name, empty label key, or duplicate label key.
[[nodiscard]] std::string series_key(const std::string& name,
                                     const Labels& labels);

/// Monotonically increasing event count. add() is a relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A last-written-wins instantaneous value (throughput, pool size, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Relative adjustment for level-style gauges tracked from many
  /// threads (in-flight requests, queue depth): one relaxed atomic
  /// fetch_add, so concurrent +1/-1 pairs never lose updates the way
  /// racing value()+set() would.
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-side copy of a histogram: cumulative-free bucket counts plus
/// exact count/sum/min/max taken at snapshot time.
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< upper bounds, strictly increasing
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (last = +Inf)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< exact observed minimum (0 when count == 0)
  double max = 0.0;  ///< exact observed maximum (0 when count == 0)

  /// Quantile estimate by linear interpolation inside the target
  /// bucket, clamped to the exact [min, max] range. q in [0, 1].
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// Fixed-boundary histogram: observe() is a binary search plus a few
/// relaxed atomics (bucket, count, sum, min/max CAS) — no locks.
/// Usable standalone (e.g. a per-batch latency histogram) or through
/// the registry.
class Histogram {
 public:
  /// Throws InvalidArgument unless `bounds` is non-empty and strictly
  /// increasing.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Exponential boundaries from 100 µs to 10 s — the default for
/// latency-in-seconds histograms across the planner.
[[nodiscard]] std::vector<double> latency_bounds();

/// A histogram that answers two questions at once: "since boot"
/// (cumulative, identical to Histogram) and "recently" (a rolling
/// window, default 60 s). The window is a ring of kSlices
/// sub-histograms, each owning one window/kSlices-second time slice;
/// observe() lands in the cumulative histogram plus the current slice,
/// lazily resetting a slice the first time its ring slot is revisited
/// in a new epoch. window_snapshot() merges every slice still inside
/// the window, so the effective span wanders between (kSlices-1)/kSlices
/// and 1 full window — the standard ring-buffer quantization, fine for
/// "p99 over the last minute".
///
/// Hot path: one extra epoch load + slice observe vs a plain
/// Histogram; rotation takes a mutex at most once per slice interval.
/// An observe racing a rotation may land in a slice being recycled —
/// acceptable noise for windowed quantiles (all traffic is atomic, so
/// TSan stays quiet). An EMPTY window reports count == 0 and
/// quantile() == 0.0 (HistogramSnapshot's empty policy) — exporters
/// show 0, not NaN, when no traffic arrived in the last minute.
class WindowedHistogram {
 public:
  static constexpr std::size_t kSlices = 6;

  /// `clock` returns seconds on a monotonic axis; tests inject a fake
  /// for deterministic rotation. Defaults to steady_clock seconds since
  /// construction. Throws like Histogram on bad bounds; additionally
  /// requires window_seconds > 0.
  explicit WindowedHistogram(std::vector<double> bounds,
                             double window_seconds = 60.0,
                             std::function<double()> clock = {});
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void observe(double v);
  /// Cumulative (since boot / last reset) — same meaning as Histogram.
  [[nodiscard]] HistogramSnapshot snapshot() const;
  /// Merge of the slices still inside the window: the last ~60 s.
  [[nodiscard]] HistogramSnapshot window_snapshot() const;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return cumulative_.bounds();
  }
  [[nodiscard]] double window_seconds() const noexcept {
    return slice_seconds_ * static_cast<double>(kSlices);
  }
  void reset();

 private:
  [[nodiscard]] std::int64_t epoch_now() const;

  Histogram cumulative_;
  double slice_seconds_;
  std::function<double()> clock_;
  std::vector<std::unique_ptr<Histogram>> slices_;  ///< kSlices ring
  /// Epoch each ring slot currently holds data for; -1 = never used.
  std::array<std::atomic<std::int64_t>, kSlices> slice_epochs_;
  mutable std::mutex rotate_mutex_;
};

/// Point-in-time copy of every registered metric, ready to export.
/// Keys are series keys (see series_key): plain names for unlabeled
/// metrics, `name{k="v",...}` for labeled series.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Pretty-printed JSON object ({"counters": {...}, "gauges": {...},
  /// "histograms": {...}}); every line is prefixed with `indent` spaces
  /// so the object can be embedded inside another JSON document.
  [[nodiscard]] std::string to_json(int indent = 0) const;

  /// Prometheus text exposition format ('.' in names becomes '_').
  /// Series are grouped by family so # TYPE renders exactly once per
  /// family; labeled histograms merge the `le` bucket label into the
  /// user label set.
  [[nodiscard]] std::string to_prometheus() const;
};

/// Thread-safe name -> metric registry. Registration takes a mutex;
/// the returned references are stable and lock-free to update.
/// Library code uses the process-wide global(); tests may construct
/// private registries for isolation.
class Registry {
 public:
  /// Distinct label sets one family tolerates before clamping new ones
  /// to the shared {overflow="true"} series.
  static constexpr std::size_t kMaxSeriesPerFamily = 64;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the named metric (one series per {name, labels}).
  /// Throws InvalidArgument when the name already names a metric of a
  /// different kind, or (histograms) when the boundaries differ from
  /// the registered ones. Past kMaxSeriesPerFamily distinct label sets,
  /// returns the family's overflow series instead of creating more.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = latency_bounds());
  /// Labeled series require explicit bounds (a default here would make
  /// `histogram("h", {1.0})` ambiguous against the overload above).
  Histogram& histogram(const std::string& name, const Labels& labels,
                       std::vector<double> bounds);
  /// A histogram series with a rolling window attached. Snapshots
  /// export it twice: cumulative under `name{labels}` and the last
  /// ~window_seconds under `name.window{labels}` — so /metrics carries
  /// both quantile sources side by side. Shares the family's kind and
  /// boundary checks with plain histogram series (an unlabeled plain
  /// `name` series may coexist), but one series key must be either
  /// plain or windowed — re-registering the same key as the other
  /// flavor throws InvalidArgument, as does a window_seconds mismatch
  /// within the family.
  WindowedHistogram& windowed_histogram(const std::string& name,
                                        const Labels& labels,
                                        std::vector<double> bounds,
                                        double window_seconds = 60.0);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every value; handles stay valid. For tests and benches that
  /// want a clean slate without re-registering.
  void reset_values();

  /// The process-wide registry all library instrumentation targets.
  static Registry& global();

 private:
  /// Enforces one kind per family ('c'/'g'/'h'); throws on collision.
  void check_kind(const std::string& family, char kind, const char* where);
  /// True when the family may still add a series; false means the
  /// caller must clamp to the overflow series.
  bool admit_series(const std::string& family);
  Counter& overflow_counter_locked();

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>> windowed_;
  /// family -> window length; all windowed series of a family share it.
  std::map<std::string, double> window_seconds_;
  std::map<std::string, char> kinds_;         ///< family -> kind
  std::map<std::string, std::size_t> series_; ///< family -> series count
  /// family -> bucket boundaries; every series of a histogram family
  /// must share them so _bucket rows line up across label sets.
  std::map<std::string, std::vector<double>> histogram_bounds_;
};

}  // namespace sunchase::obs
