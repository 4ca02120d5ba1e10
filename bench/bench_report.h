// The one report layout the perf benches and tools/loadgen write, and
// the only one tools/bench_compare.py reads:
//
//   {"bench": NAME,
//    "samples": [{"name": N, "labels": {K: V, ...}, "value": X,
//                 "unit": U, "gate": G}, ...]}
//
// A sample is identified by its name and labels. Its gate is null
// (ungated) or bounds the value, absolutely ("min", "max") or against
// the baseline sample with the same name and labels ("min_ratio",
// "max_ratio": value >= min_ratio * baseline, value <= max_ratio *
// baseline). Each bench states its thresholds next to the numbers they
// bound, so the comparator needs no knowledge of any bench.
#pragma once

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sunchase::bench {

using Labels = std::vector<std::pair<std::string, std::string>>;

struct Gate {
  std::optional<double> min;        ///< value >= min
  std::optional<double> max;        ///< value <= max
  std::optional<double> min_ratio;  ///< value >= min_ratio * baseline
  std::optional<double> max_ratio;  ///< value <= max_ratio * baseline
};

inline Gate at_least(double min) {
  Gate gate;
  gate.min = min;
  return gate;
}

inline Gate baseline_at_least(double ratio) {
  Gate gate;
  gate.min_ratio = ratio;
  return gate;
}

inline Gate baseline_at_most(double ratio) {
  Gate gate;
  gate.max_ratio = ratio;
  return gate;
}

/// Exactly the baseline's value: for counts a deterministic run must
/// reproduce on any machine.
inline Gate baseline_exact() {
  Gate gate;
  gate.min_ratio = 1.0;
  gate.max_ratio = 1.0;
  return gate;
}

class Report {
 public:
  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  void add(std::string name, Labels labels, double value, std::string unit,
           Gate gate = {}) {
    samples_.push_back({std::move(name), std::move(labels), value,
                        std::move(unit), gate});
  }

  /// Writes the report to `path`, one sample per line; false (with a
  /// message on stderr) when the file cannot be written.
  bool write(const std::string& path) const {
    std::string out = "{\n  \"bench\": " + quoted(bench_) +
                      ",\n  \"samples\": [\n";
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      const Sample& s = samples_[i];
      out += "    {\"name\": " + quoted(s.name) + ", \"labels\": {";
      for (std::size_t l = 0; l < s.labels.size(); ++l) {
        if (l != 0) out += ", ";
        out += quoted(s.labels[l].first) + ": " + quoted(s.labels[l].second);
      }
      out += "}, \"value\": " + number(s.value) +
             ", \"unit\": " + quoted(s.unit) + ", \"gate\": " + gate(s.gate);
      out += i + 1 < samples_.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr &&
              std::fwrite(out.data(), 1, out.size(), f) == out.size();
    if (f != nullptr && std::fclose(f) != 0) ok = false;
    if (!ok) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("\nwrote %s (%zu samples)\n", path.c_str(), samples_.size());
    return true;
  }

 private:
  struct Sample {
    std::string name;
    Labels labels;
    double value;
    std::string unit;
    Gate gate;
  };

  static std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + '"';
  }

  /// JSON has no NaN or infinity; such a value is written as null, which
  /// fails any gate on it.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
  }

  static std::string gate(const Gate& g) {
    std::string out;
    const std::pair<const char*, const std::optional<double>*> bounds[] = {
        {"min", &g.min},
        {"max", &g.max},
        {"min_ratio", &g.min_ratio},
        {"max_ratio", &g.max_ratio}};
    for (const auto& [key, bound] : bounds) {
      if (!bound->has_value()) continue;
      out += out.empty() ? "{" : ", ";
      out += std::string("\"") + key + "\": " + number(**bound);
    }
    return out.empty() ? "null" : out + "}";
  }

  std::string bench_;
  std::vector<Sample> samples_;
};

}  // namespace sunchase::bench
