#include "measure.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace sunchase::routebench {

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile: q outside [0, 1]");
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return samples[below] + fraction * (samples[above] - samples[below]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

namespace {

constexpr double kHistogramLowestMs = 1e-3;
constexpr double kHistogramRatio = 1.001;
/// Bins up to about 1000 s.
constexpr std::size_t kHistogramBins = 20734;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : bins_(kHistogramBins, 0) {}

void LatencyHistogram::add(double ms) {
  const double position =
      ms > kHistogramLowestMs
          ? std::log(ms / kHistogramLowestMs) / std::log(kHistogramRatio)
          : 0.0;
  const auto bin = static_cast<std::size_t>(
      std::min(position, static_cast<double>(kHistogramBins - 1)));
  const std::lock_guard<std::mutex> lock(mutex_);
  ++bins_[bin];
  ++count_;
}

std::uint64_t LatencyHistogram::count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double LatencyHistogram::quantile_ms(double q) const {
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile_ms: q outside [0, 1]");
  const std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) return 0.0;
  // The rank of quantile(): q (n - 1) over the sorted latencies, 0-based.
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t before = 0;
  std::size_t bin = 0;
  while (static_cast<double>(before + bins_[bin]) <= rank) before += bins_[bin++];
  // The bin's latencies spread evenly over its width.
  const double inside =
      (rank - static_cast<double>(before) + 0.5) /
      static_cast<double>(bins_[bin]);
  return kHistogramLowestMs *
         std::pow(kHistogramRatio, static_cast<double>(bin) + inside);
}

double LatencyHistogram::trimmed_mean_ms(double trim) const {
  if (!(trim >= 0.0 && trim < 0.5))
    throw std::invalid_argument("trimmed_mean_ms: trim outside [0, 0.5)");
  const std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) return 0.0;
  // Ranks [lo, hi) of the sorted latencies, fractional at both ends.
  const double lo = trim * static_cast<double>(count_);
  const double hi = static_cast<double>(count_) - lo;
  double before = 0.0, weight = 0.0, sum = 0.0;
  for (std::size_t bin = 0; bin < bins_.size() && before < hi; ++bin) {
    const double after = before + static_cast<double>(bins_[bin]);
    const double kept = std::min(after, hi) - std::max(before, lo);
    if (kept > 0.0) {
      weight += kept;
      sum += kept * kHistogramLowestMs *
             std::pow(kHistogramRatio, static_cast<double>(bin) + 0.5);
    }
    before = after;
  }
  return sum / weight;
}

TrailingMedian::TrailingMedian(std::size_t window)
    : window_(std::max<std::size_t>(1, window)) {}

void TrailingMedian::push(double value) {
  if (values_.size() < window_) {
    values_.push_back(value);
  } else {
    values_[next_] = value;
    next_ = (next_ + 1) % window_;
  }
}

double TrailingMedian::value() const { return median(values_); }

ClockProbe::ClockProbe() {
  for (std::size_t i = 0; i < kWindow / 4; ++i) sample();
  thread_ = std::thread([this] { loop(); });
}

ClockProbe::~ClockProbe() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
}

void ClockProbe::sample() {
  std::uint64_t x = sink_.load(std::memory_order_relaxed);
  const double start = thread_cpu_seconds();
  for (int i = 0; i < kKernelIterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 17;
  }
  const double end = thread_cpu_seconds();
  sink_.store(x, std::memory_order_relaxed);  // keeps the chain alive
  kernel_s_.push(end - start);
  factor_.store(kReferenceKernelSeconds / kernel_s_.value(),
                std::memory_order_relaxed);
}

void ClockProbe::loop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stop_cv_.wait_for(lock, kPeriod, [this] { return stop_; })) {
    lock.unlock();
    sample();
    cpu_seconds_.store(thread_cpu_seconds(), std::memory_order_relaxed);
    lock.lock();
  }
}

std::uint64_t SpanLog::record(std::string name, Clock::time_point start,
                              Clock::time_point end, std::uint64_t parent,
                              std::uint64_t request) {
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.name = std::move(name);
  span.start_us = micros(start);
  span.end_us = micros(end);
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::uint64_t SpanLog::next_request() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_request_++;
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  char line[256];
  for (const Span& s : spans()) {
    // Span names are the benchmark's own identifiers ([a-z._]), so they
    // need no JSON escaping.
    std::snprintf(line, sizeof line,
                  "{\"id\":%llu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%llu,\"request\":%llu}\n",
                  static_cast<unsigned long long>(s.id), s.name.c_str(),
                  s.start_us, s.end_us,
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write span log " + path);
}

SpanTree::SpanTree(std::vector<Span> spans) : spans_(std::move(spans)) {
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != 0) children_[spans_[i].parent].push_back(i);
}

double SpanTree::self_of(std::size_t index) const {
  double self = spans_[index].duration_us();
  if (const auto kids = children_.find(spans_[index].id);
      kids != children_.end())
    for (const std::size_t child : kids->second)
      self -= spans_[child].duration_us();
  return self;
}

std::vector<double> SpanTree::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.duration_us());
  return out;
}

std::vector<double> SpanTree::self_us(std::string_view name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) out.push_back(self_of(i));
  return out;
}

std::vector<double> SpanTree::minus_child_us(std::string_view name,
                                             std::string_view child) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    const auto kids = children_.find(s.id);
    if (kids == children_.end()) continue;
    for (const std::size_t k : kids->second)
      if (spans_[k].name == child) {
        out.push_back(s.duration_us() - spans_[k].duration_us());
        break;
      }
  }
  return out;
}

std::vector<LayerShare> SpanTree::shares(std::string_view root) const {
  std::vector<LayerShare> rows;
  std::map<std::string, std::size_t, std::less<>> row_of;
  double root_total = 0.0;
  std::size_t roots = 0;
  // Depth-first walk of one root's subtree, summing self time by name.
  const auto walk = [&](auto&& self, std::size_t index, int depth) -> void {
    const Span& span = spans_[index];
    auto [it, added] = row_of.try_emplace(span.name, rows.size());
    if (added) rows.push_back(LayerShare{span.name, depth, 0.0, 0.0});
    rows[it->second].mean_self_us += self_of(index);
    if (const auto kids = children_.find(span.id); kids != children_.end())
      for (const std::size_t child : kids->second) self(self, child, depth + 1);
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != root || spans_[i].parent != 0) continue;
    ++roots;
    root_total += spans_[i].duration_us();
    walk(walk, i, 0);
  }
  if (roots == 0) return rows;
  for (LayerShare& row : rows) {
    row.mean_self_us /= static_cast<double>(roots);
    row.share = root_total > 0.0
                    ? row.mean_self_us * static_cast<double>(roots) /
                          root_total
                    : 0.0;
  }
  return rows;
}

}  // namespace sunchase::routebench
