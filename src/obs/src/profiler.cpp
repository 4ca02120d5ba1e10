#include "sunchase/obs/profiler.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "sunchase/common/json_text.h"

namespace sunchase::obs {

using common::json_escape;

namespace {

/// Thread-exit hook: hands the thread's stack back to the profiler's
/// free list so pool churn recycles a bounded set.
struct StackLease {
  std::shared_ptr<detail::SpanStack> stack;
  ~StackLease() {
    if (stack) Profiler::global().release_stack(std::move(stack));
  }
};

}  // namespace

double thread_cpu_seconds() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return 0.0;
#endif
}

Profiler& Profiler::global() {
  static Profiler* instance = new Profiler();  // never destroyed: thread
  return *instance;                            // stacks may outlive main
}

detail::SpanStack& Profiler::thread_stack() {
  thread_local StackLease lease;
  if (!lease.stack) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      lease.stack = std::move(free_.back());
      free_.pop_back();
      lease.stack->reset();
    } else {
      lease.stack = std::make_shared<detail::SpanStack>();
      stacks_.push_back(lease.stack);
    }
  }
  return *lease.stack;
}

void Profiler::release_stack(std::shared_ptr<detail::SpanStack> stack) {
  const std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(stack));
}

std::vector<const char*> current_span_stack() {
  const detail::SpanStack& stack = Profiler::global().thread_stack();
  std::vector<const char*> frames(detail::SpanStack::kMaxDepth);
  // sample() on the owning thread sees a consistent (never torn) stack:
  // pushes and pops happen on this thread.
  const std::uint32_t depth =
      stack.sample(frames.data(), detail::SpanStack::kMaxDepth);
  frames.resize(depth);
  return frames;
}

SpanStackScope::SpanStackScope(const std::vector<const char*>& frames)
    : stack_(&Profiler::global().thread_stack()), pushed_(frames.size()) {
  for (const char* frame : frames) stack_->push(frame);
}

SpanStackScope::~SpanStackScope() {
  for (std::size_t i = 0; i < pushed_; ++i) stack_->pop();
}

std::size_t Profiler::registered_stacks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stacks_.size();
}

void Profiler::sample_once() {
  std::vector<std::shared_ptr<detail::SpanStack>> stacks;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stacks = stacks_;
  }
  const char* frames[detail::SpanStack::kMaxDepth];
  for (const auto& stack : stacks) {
    const std::uint32_t depth =
        stack->sample(frames, detail::SpanStack::kMaxDepth);
    samples_total_.fetch_add(1, std::memory_order_relaxed);
    if (depth == 0) {
      samples_idle_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::string key;
    for (std::uint32_t i = 0; i < depth; ++i) {
      if (i != 0) key += ';';
      key += frames[i];
    }
    const std::lock_guard<std::mutex> lock(folds_mutex_);
    ++folds_[key];
  }
}

void Profiler::sampler_loop() {
  const auto interval =
      std::chrono::milliseconds(std::max(interval_ms(), 1));
  std::unique_lock<std::mutex> lock(sampler_mutex_);
  while (running_.load(std::memory_order_relaxed)) {
    lock.unlock();
    sample_once();
    lock.lock();
    sampler_cv_.wait_for(lock, interval, [this] {
      return !running_.load(std::memory_order_relaxed);
    });
  }
}

void Profiler::start(Options options) {
  const std::lock_guard<std::mutex> lock(sampler_mutex_);
  if (sampler_.joinable()) return;  // already running
  interval_ms_.store(std::max(options.interval_ms, 1),
                     std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  sampler_ = std::thread([this] { sampler_loop(); });
}

void Profiler::stop() {
  std::thread sampler;
  {
    const std::lock_guard<std::mutex> lock(sampler_mutex_);
    if (!sampler_.joinable()) return;
    running_.store(false, std::memory_order_relaxed);
    sampler_cv_.notify_all();
    sampler = std::move(sampler_);
  }
  sampler.join();
}

std::vector<ProfileEntry> Profiler::entries(std::size_t n) const {
  std::vector<ProfileEntry> out;
  {
    const std::lock_guard<std::mutex> lock(folds_mutex_);
    out.reserve(folds_.size());
    for (const auto& [stack, count] : folds_)
      out.push_back(ProfileEntry{stack, count});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ProfileEntry& a, const ProfileEntry& b) {
                     return a.count > b.count;
                   });
  if (n != 0 && out.size() > n) out.resize(n);
  return out;
}

std::string Profiler::collapsed() const {
  std::ostringstream out;
  for (const ProfileEntry& entry : entries())
    out << entry.stack << ' ' << entry.count << '\n';
  return out.str();
}

std::string Profiler::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(std::max(indent, 0)), ' ');
  std::ostringstream out;
  out << pad << "{\n";
  out << pad << "  \"running\": " << (running() ? "true" : "false") << ",\n";
  out << pad << "  \"interval_ms\": " << interval_ms() << ",\n";
  out << pad << "  \"samples_total\": " << samples_total() << ",\n";
  out << pad << "  \"samples_idle\": " << samples_idle() << ",\n";
  out << pad << "  \"stacks\": [";
  const std::vector<ProfileEntry> all = entries();
  for (std::size_t i = 0; i < all.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << pad << "    {\"stack\": \"" << json_escape(all[i].stack)
        << "\", \"count\": " << all[i].count << "}";
  }
  out << (all.empty() ? "" : "\n" + pad + "  ") << "]\n";
  out << pad << "}";
  return out.str();
}

void Profiler::reset() {
  const std::lock_guard<std::mutex> lock(folds_mutex_);
  folds_.clear();
  samples_total_.store(0, std::memory_order_relaxed);
  samples_idle_.store(0, std::memory_order_relaxed);
}

}  // namespace sunchase::obs
