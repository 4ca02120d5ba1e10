#include "sunchase/obs/query_log.h"

#include <algorithm>
#include <sstream>

#include "sunchase/common/error.h"
#include "sunchase/common/json_text.h"
#include "sunchase/common/logging.h"

namespace sunchase::obs {

using common::format_double;
using common::json_quote;

std::string QueryRecord::to_json() const {
  std::ostringstream out;
  out << "{\"mode\":" << json_quote(mode);
  if (index >= 0) out << ",\"index\":" << index;
  out << ",\"origin\":" << origin << ",\"destination\":" << destination
      << ",\"departure\":" << json_quote(departure) << ",\"pricing\":"
      << json_quote(pricing) << ",\"status\":" << json_quote(status);
  if (world_version >= 0) out << ",\"world.version\":" << world_version;
  if (!trace_id.empty()) out << ",\"trace_id\":" << json_quote(trace_id);
  if (status != "ok") out << ",\"error\":" << json_quote(error);
  out << ",\"mlc_seconds\":" << format_double(mlc_seconds)
      << ",\"kmeans_seconds\":" << format_double(kmeans_seconds)
      << ",\"selection_seconds\":" << format_double(selection_seconds)
      << ",\"total_seconds\":" << format_double(total_seconds)
      << ",\"cpu_ms\":" << format_double(cpu_ms)
      << ",\"labels_created\":" << labels_created
      << ",\"labels_dominated\":" << labels_dominated
      << ",\"queue_pops\":" << queue_pops << ",\"pareto_size\":"
      << pareto_size << ",\"labels_pruned_bound\":" << labels_pruned_bound
      << ",\"labels_merged_epsilon\":" << labels_merged_epsilon
      << ",\"lower_bound_seconds\":" << format_double(lower_bound_seconds);
  if (status == "ok")
    out << ",\"candidates\":" << candidate_count << ",\"travel_time_s\":"
        << format_double(travel_time_s) << ",\"shaded_time_s\":"
        << format_double(shaded_time_s) << ",\"energy_out_wh\":"
        << format_double(energy_out_wh) << ",\"energy_in_wh\":"
        << format_double(energy_in_wh);
  out << "}";
  return out.str();
}

QueryLog::QueryLog(const std::string& path)
    : owned_(path),
      sink_(owned_),
      records_metric_(Registry::global().counter("querylog.records")),
      slow_metric_(Registry::global().counter("querylog.slow_queries")) {
  if (!owned_) throw IoError("QueryLog: cannot open " + path);
}

QueryLog::QueryLog(std::ostream& sink)
    : sink_(sink),
      records_metric_(Registry::global().counter("querylog.records")),
      slow_metric_(Registry::global().counter("querylog.slow_queries")) {}

std::vector<std::string> QueryLog::tail(std::size_t n) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = std::min(n, tail_.size());
  return std::vector<std::string>(
      tail_.end() - static_cast<std::ptrdiff_t>(count), tail_.end());
}

void QueryLog::write(const QueryRecord& record) {
  // Build the full line outside the lock; the critical section is one
  // streamed write, so lines from concurrent workers never interleave.
  std::string line = record.to_json() + "\n";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sink_ << line;
    sink_.flush();
    line.pop_back();  // ring holds bare JSON objects, no newline
    if (tail_.size() == kTailCapacity) tail_.pop_front();
    tail_.push_back(std::move(line));
  }
  records_.fetch_add(1, std::memory_order_relaxed);
  records_metric_.add();

  const double threshold =
      slow_threshold_seconds_.load(std::memory_order_relaxed);
  if (threshold > 0.0 && record.total_seconds > threshold) {
    slow_.fetch_add(1, std::memory_order_relaxed);
    slow_metric_.add();
    SUNCHASE_LOG(Warning) << "querylog: slow query " << record.origin << "->"
                          << record.destination << " @ " << record.departure
                          << ": " << record.total_seconds << " s > "
                          << threshold << " s threshold ("
                          << record.labels_created << " labels, Pareto "
                          << record.pareto_size << ")";
  }
}

}  // namespace sunchase::obs
