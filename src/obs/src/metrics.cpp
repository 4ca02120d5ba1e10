#include "sunchase/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "sunchase/common/error.h"
#include "sunchase/common/json_text.h"

namespace sunchase::obs {

using common::format_double;
using common::json_escape;

namespace {

/// Lowers a relaxed atomic min/max watermark via CAS.
template <class Cmp>
void update_watermark(std::atomic<double>& mark, double v, Cmp better) {
  double cur = mark.load(std::memory_order_relaxed);
  while (better(v, cur) &&
         !mark.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Prometheus metric names allow [a-zA-Z0-9_:] only; the registry's
/// dotted names map '.' (and anything else) to '_'.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

/// Label KEYS join the metric name's charset (leading digits are the
/// caller's problem — keys are programmer-chosen constants).
std::string prometheus_label_key(const std::string& key) {
  std::string out = key;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

/// Label VALUE escaping per the exposition format: backslash, double
/// quote and newline must be escaped; everything else passes through.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Splits a series key back into {family, label block incl. braces}.
std::pair<std::string, std::string> split_series_key(const std::string& key) {
  const std::size_t brace = key.find('{');
  if (brace == std::string::npos) return {key, ""};
  return {key.substr(0, brace), key.substr(brace)};
}

/// A bucket's label block: the series' own labels with `le` appended
/// last — `{le="0.5"}` for unlabeled series, `{k="v",le="0.5"}` else.
std::string bucket_labels(const std::string& labels, const std::string& le) {
  if (labels.empty()) return "{le=\"" + le + "\"}";
  return labels.substr(0, labels.size() - 1) + ",le=\"" + le + "\"}";
}

}  // namespace

std::string series_key(const std::string& name, const Labels& labels) {
  if (name.empty())
    throw InvalidArgument("series_key: metric name must not be empty");
  if (labels.empty()) return name;

  Labels sorted;
  sorted.reserve(labels.size());
  for (const auto& [key, value] : labels) {
    if (key.empty())
      throw InvalidArgument("series_key: '" + name +
                            "': label key must not be empty");
    sorted.emplace_back(prometheus_label_key(key), value);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < sorted.size(); ++i)
    if (sorted[i].first == sorted[i - 1].first)
      throw InvalidArgument("series_key: '" + name +
                            "': duplicate label key '" + sorted[i].first +
                            "'");

  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i != 0) out += ',';
    out += sorted[i].first;
    out += "=\"";
    out += escape_label_value(sorted[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= target && buckets[i] > 0) {
      // Interpolate within bucket i between its lower and upper edge.
      const double lo = i == 0 ? min : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : max;
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[i]);
      return std::clamp(lo + (hi - lo) * fraction, min, max);
    }
    cumulative = next;
  }
  return max;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (bounds_.empty())
    throw InvalidArgument("Histogram: at least one bucket boundary required");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw InvalidArgument("Histogram: boundaries must be strictly increasing");
}

void Histogram::observe(double v) noexcept {
  // Prometheus `le` semantics: bucket i counts bounds[i-1] < v <=
  // bounds[i], so the first boundary >= v is the home bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  update_watermark(min_, v, std::less<>{});
  update_watermark(max_, v, std::greater<>{});
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.reserve(buckets_.size());
  for (const auto& b : buckets_)
    snap.buckets.push_back(b.load(std::memory_order_relaxed));
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = snap.count ? min_.load(std::memory_order_relaxed) : 0.0;
  snap.max = snap.count ? max_.load(std::memory_order_relaxed) : 0.0;
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> latency_bounds() {
  return {1e-4,   2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
          5e-2,   1e-1,   0.25, 0.5,  1.0,    2.5,  5.0,  10.0};
}

WindowedHistogram::WindowedHistogram(std::vector<double> bounds,
                                     double window_seconds,
                                     std::function<double()> clock)
    : cumulative_(bounds), slice_seconds_(0.0), clock_(std::move(clock)) {
  if (!(window_seconds > 0.0))
    throw InvalidArgument("WindowedHistogram: window_seconds must be > 0");
  slice_seconds_ = window_seconds / static_cast<double>(kSlices);
  if (!clock_) {
    const auto origin = std::chrono::steady_clock::now();
    clock_ = [origin] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           origin)
          .count();
    };
  }
  slices_.reserve(kSlices);
  for (std::size_t i = 0; i < kSlices; ++i)
    slices_.push_back(std::make_unique<Histogram>(bounds));
  for (auto& epoch : slice_epochs_)
    epoch.store(-1, std::memory_order_relaxed);
}

std::int64_t WindowedHistogram::epoch_now() const {
  return static_cast<std::int64_t>(std::floor(clock_() / slice_seconds_));
}

void WindowedHistogram::observe(double v) {
  cumulative_.observe(v);
  const std::int64_t epoch = epoch_now();
  const auto idx =
      static_cast<std::size_t>(epoch % static_cast<std::int64_t>(kSlices));
  if (slice_epochs_[idx].load(std::memory_order_acquire) != epoch) {
    // First visit to this ring slot in a new epoch: recycle it. The
    // double-checked lock keeps rotation single-writer; an observe
    // racing the reset may lose its sample to the recycled slice —
    // noise a windowed quantile tolerates by design.
    const std::lock_guard<std::mutex> lock(rotate_mutex_);
    if (slice_epochs_[idx].load(std::memory_order_relaxed) != epoch) {
      slices_[idx]->reset();
      slice_epochs_[idx].store(epoch, std::memory_order_release);
    }
  }
  slices_[idx]->observe(v);
}

HistogramSnapshot WindowedHistogram::snapshot() const {
  return cumulative_.snapshot();
}

HistogramSnapshot WindowedHistogram::window_snapshot() const {
  const std::int64_t epoch = epoch_now();
  HistogramSnapshot merged;
  merged.bounds = cumulative_.bounds();
  merged.buckets.assign(merged.bounds.size() + 1, 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < kSlices; ++i) {
    const std::int64_t e = slice_epochs_[i].load(std::memory_order_acquire);
    // A slot is inside the window while its epoch is one of the last
    // kSlices epochs; never-used (-1) and expired slots contribute
    // nothing.
    if (e < 0 || e + static_cast<std::int64_t>(kSlices) <= epoch) continue;
    const HistogramSnapshot s = slices_[i]->snapshot();
    for (std::size_t b = 0; b < merged.buckets.size(); ++b)
      merged.buckets[b] += s.buckets[b];
    merged.count += s.count;
    merged.sum += s.sum;
    if (s.count > 0) {
      min = std::min(min, s.min);
      max = std::max(max, s.max);
    }
  }
  merged.min = merged.count ? min : 0.0;
  merged.max = merged.count ? max : 0.0;
  return merged;
}

void WindowedHistogram::reset() {
  const std::lock_guard<std::mutex> lock(rotate_mutex_);
  cumulative_.reset();
  for (std::size_t i = 0; i < kSlices; ++i) {
    slices_[i]->reset();
    slice_epochs_[i].store(-1, std::memory_order_relaxed);
  }
}

std::string MetricsSnapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(std::max(indent, 0)), ' ');
  std::ostringstream out;
  out << pad << "{\n";

  // Series keys embed quoted label values (`name{k="v"}`), so every
  // key goes through json_escape.
  out << pad << "  \"counters\": {";
  for (auto it = counters.begin(); it != counters.end(); ++it)
    out << (it == counters.begin() ? "\n" : ",\n") << pad << "    \""
        << json_escape(it->first) << "\": " << it->second;
  out << (counters.empty() ? "" : "\n" + pad + "  ") << "},\n";

  out << pad << "  \"gauges\": {";
  for (auto it = gauges.begin(); it != gauges.end(); ++it)
    out << (it == gauges.begin() ? "\n" : ",\n") << pad << "    \""
        << json_escape(it->first) << "\": " << format_double(it->second);
  out << (gauges.empty() ? "" : "\n" + pad + "  ") << "},\n";

  out << pad << "  \"histograms\": {";
  for (auto it = histograms.begin(); it != histograms.end(); ++it) {
    const HistogramSnapshot& h = it->second;
    out << (it == histograms.begin() ? "\n" : ",\n");
    out << pad << "    \"" << json_escape(it->first) << "\": {\n";
    out << pad << "      \"count\": " << h.count
        << ", \"sum\": " << format_double(h.sum)
        << ", \"min\": " << format_double(h.min)
        << ", \"max\": " << format_double(h.max)
        << ", \"p50\": " << format_double(h.quantile(0.5))
        << ", \"p99\": " << format_double(h.quantile(0.99)) << ",\n";
    out << pad << "      \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      out << (i ? ", " : "") << "{\"le\": \"";
      if (i < h.bounds.size())
        out << format_double(h.bounds[i]);
      else
        out << "+Inf";
      out << "\", \"count\": " << h.buckets[i] << "}";
    }
    out << "]\n" << pad << "    }";
  }
  out << (histograms.empty() ? "" : "\n" + pad + "  ") << "}\n";

  out << pad << "}";
  return out.str();
}

std::string MetricsSnapshot::to_prometheus() const {
  // Group series under their family first: map ordering interleaves
  // families otherwise (`name2` sorts before `name{...}`), and the
  // exposition format requires all of a family's series — and its one
  // # TYPE line — to be contiguous.
  const auto emit_header = [](std::ostringstream& out,
                              const std::string& family, const char* type) {
    out << "# TYPE " << prometheus_name(family) << " " << type << "\n";
  };

  std::ostringstream out;
  std::map<std::string, std::vector<std::pair<std::string, std::uint64_t>>>
      counter_families;
  for (const auto& [key, value] : counters) {
    auto [family, labels] = split_series_key(key);
    counter_families[std::move(family)].emplace_back(std::move(labels),
                                                     value);
  }
  for (const auto& [family, series] : counter_families) {
    emit_header(out, family, "counter");
    for (const auto& [labels, value] : series)
      out << prometheus_name(family) << labels << " " << value << "\n";
  }

  std::map<std::string, std::vector<std::pair<std::string, double>>>
      gauge_families;
  for (const auto& [key, value] : gauges) {
    auto [family, labels] = split_series_key(key);
    gauge_families[std::move(family)].emplace_back(std::move(labels), value);
  }
  for (const auto& [family, series] : gauge_families) {
    emit_header(out, family, "gauge");
    for (const auto& [labels, value] : series)
      out << prometheus_name(family) << labels << " "
          << format_double(value) << "\n";
  }

  std::map<std::string,
           std::vector<std::pair<std::string, const HistogramSnapshot*>>>
      histogram_families;
  for (const auto& [key, h] : histograms) {
    auto [family, labels] = split_series_key(key);
    histogram_families[std::move(family)].emplace_back(std::move(labels),
                                                       &h);
  }
  for (const auto& [family, series] : histogram_families) {
    emit_header(out, family, "histogram");
    const std::string p = prometheus_name(family);
    for (const auto& [labels, h] : series) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h->buckets.size(); ++i) {
        cumulative += h->buckets[i];
        out << p << "_bucket"
            << bucket_labels(labels, i < h->bounds.size()
                                         ? format_double(h->bounds[i])
                                         : "+Inf")
            << " " << cumulative << "\n";
      }
      out << p << "_sum" << labels << " " << format_double(h->sum) << "\n";
      out << p << "_count" << labels << " " << h->count << "\n";
    }
  }
  return out.str();
}

void Registry::check_kind(const std::string& family, char kind,
                          const char* where) {
  const auto [it, inserted] = kinds_.emplace(family, kind);
  if (!inserted && it->second != kind)
    throw InvalidArgument(std::string("Registry::") + where + ": '" +
                          family + "' is registered as another metric kind");
}

Counter& Registry::overflow_counter_locked() {
  // Direct map access: we already hold mutex_, and the bookkeeping
  // counter must never itself trip the cardinality path.
  auto& slot = counters_["obs.metrics.series_overflow"];
  if (!slot) {
    slot = std::make_unique<Counter>();
    kinds_.emplace("obs.metrics.series_overflow", 'c');
    series_["obs.metrics.series_overflow"] = 1;
  }
  return *slot;
}

bool Registry::admit_series(const std::string& family) {
  std::size_t& count = series_[family];
  if (count >= kMaxSeriesPerFamily) {
    overflow_counter_locked().add();
    return false;
  }
  ++count;
  return true;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  std::string key = series_key(name, labels);
  const std::lock_guard<std::mutex> lock(mutex_);
  check_kind(name, 'c', "counter");
  if (const auto it = counters_.find(key); it != counters_.end())
    return *it->second;
  if (!admit_series(name))
    key = series_key(name, {{"overflow", "true"}});
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  std::string key = series_key(name, labels);
  const std::lock_guard<std::mutex> lock(mutex_);
  check_kind(name, 'g', "gauge");
  if (const auto it = gauges_.find(key); it != gauges_.end())
    return *it->second;
  if (!admit_series(name))
    key = series_key(name, {{"overflow", "true"}});
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  return histogram(name, Labels{}, std::move(bounds));
}

Histogram& Registry::histogram(const std::string& name, const Labels& labels,
                               std::vector<double> bounds) {
  std::string key = series_key(name, labels);
  const std::lock_guard<std::mutex> lock(mutex_);
  check_kind(name, 'h', "histogram");
  // Boundaries are a family-wide property: every label set shares them
  // so the _bucket rows line up across series.
  if (const auto it = histogram_bounds_.find(name);
      it != histogram_bounds_.end()) {
    if (it->second != bounds)
      throw InvalidArgument("Registry::histogram: '" + name +
                            "' re-registered with different boundaries");
  } else {
    histogram_bounds_[name] = bounds;
  }
  if (const auto it = histograms_.find(key); it != histograms_.end())
    return *it->second;
  if (windowed_.count(key) != 0)
    throw InvalidArgument("Registry::histogram: '" + key +
                          "' is already a windowed histogram series");
  if (!admit_series(name))
    key = series_key(name, {{"overflow", "true"}});
  auto& slot = histograms_[key];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

WindowedHistogram& Registry::windowed_histogram(const std::string& name,
                                                const Labels& labels,
                                                std::vector<double> bounds,
                                                double window_seconds) {
  std::string key = series_key(name, labels);
  const std::lock_guard<std::mutex> lock(mutex_);
  check_kind(name, 'h', "windowed_histogram");
  // Reserve the exported `.window` family too, so no other metric can
  // claim the name the window snapshot renders under.
  check_kind(name + ".window", 'h', "windowed_histogram");
  if (histograms_.count(key) != 0)
    throw InvalidArgument("Registry::windowed_histogram: '" + key +
                          "' is already a plain histogram series");
  if (const auto it = histogram_bounds_.find(name);
      it != histogram_bounds_.end()) {
    if (it->second != bounds)
      throw InvalidArgument("Registry::histogram: '" + name +
                            "' re-registered with different boundaries");
  } else {
    histogram_bounds_[name] = bounds;
  }
  if (const auto it = window_seconds_.find(name);
      it != window_seconds_.end()) {
    if (it->second != window_seconds)
      throw InvalidArgument("Registry::windowed_histogram: '" + name +
                            "' re-registered with a different window");
  } else {
    window_seconds_[name] = window_seconds;
  }
  if (const auto it = windowed_.find(key); it != windowed_.end())
    return *it->second;
  if (!admit_series(name))
    key = series_key(name, {{"overflow", "true"}});
  auto& slot = windowed_[key];
  if (!slot)
    slot = std::make_unique<WindowedHistogram>(std::move(bounds),
                                               window_seconds);
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_)
    snap.histograms[name] = h->snapshot();
  for (const auto& [key, w] : windowed_) {
    snap.histograms[key] = w->snapshot();
    const auto [family, labels] = split_series_key(key);
    snap.histograms[family + ".window" + labels] = w->window_snapshot();
  }
  return snap;
}

void Registry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
  for (const auto& [name, w] : windowed_) w->reset();
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed: handles
  return *instance;                            // outlive static teardown
}

}  // namespace sunchase::obs
