#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

namespace sunchase::routebench {

namespace {

/// The server renders numbers with "%.10g"; values it prints agree with
/// the benchmark's own to this relative tolerance.
constexpr double kRelTolerance = 1e-9;

std::string format10(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Whether a route's travel time `actual` lies in [shortest_s,
/// shortest_s * (1 + max_excess)], up to the rendering tolerance.
bool within(double actual, double shortest_s, double max_excess) {
  const double slack = kRelTolerance * std::max(1.0, shortest_s);
  return actual >= shortest_s - slack &&
         actual <= shortest_s * (1.0 + max_excess) + slack;
}

std::string shortest_error(const std::string& what, double actual,
                           double shortest_s, double max_excess) {
  return what + " " + format10(actual) + " s, shortest_time_path says " +
         format10(shortest_s) + " s" +
         (max_excess > 0.0
              ? " (allowed up to " + format10(100.0 * max_excess) + "% more)"
              : "");
}

double number(const serve::JsonValue& object, const char* key) {
  const serve::JsonValue* member = object.find(key);
  if (member == nullptr)
    throw std::runtime_error(std::string("missing field \"") + key + '"');
  return member->as_number();
}

std::uint64_t whole(const serve::JsonValue& object, const char* key) {
  const double v = number(object, key);
  if (!(v >= 0.0) || v != std::floor(v))
    throw std::runtime_error(std::string("field \"") + key +
                             "\" is not a whole number");
  return static_cast<std::uint64_t>(v);
}

const serve::JsonValue& member(const serve::JsonValue& object,
                               const char* key) {
  const serve::JsonValue* found = object.find(key);
  if (found == nullptr)
    throw std::runtime_error(std::string("missing field \"") + key + '"');
  return *found;
}

/// Canonical rendering of one JSON value: object members in order,
/// numbers with all 17 digits.
void render(const serve::JsonValue& v, std::string& out) {
  switch (v.type()) {
    case serve::JsonValue::Type::Null:
      out += "null";
      break;
    case serve::JsonValue::Type::Bool:
      out += v.as_bool() ? "true" : "false";
      break;
    case serve::JsonValue::Type::Number: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v.as_number());
      out += buf;
      break;
    }
    case serve::JsonValue::Type::String:
      out += serve::json_quote(v.as_string());
      break;
    case serve::JsonValue::Type::Array:
      out += '[';
      for (const serve::JsonValue& item : v.as_array()) {
        if (out.back() != '[') out += ',';
        render(item, out);
      }
      out += ']';
      break;
    case serve::JsonValue::Type::Object:
      out += '{';
      for (const auto& [key, value] : v.as_object()) {
        if (out.back() != '{') out += ',';
        out += serve::json_quote(key);
        out += ':';
        render(value, out);
      }
      out += '}';
      break;
  }
}

/// Runs `body`, turning any exception (malformed JSON, missing field)
/// into the failure message.
template <typename F>
std::string guarded(F&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    return std::string("malformed answer: ") + e.what();
  }
}

}  // namespace

std::string check_status(const serve::HttpResponse& response) {
  if (response.status >= 200 && response.status < 300) return {};
  return "HTTP " + std::to_string(response.status) + ": " +
         response.body.substr(0, 200);
}

std::string check_plan(const serve::HttpResponse& response, double shortest_s,
                       double max_excess, PlanAnswer& out) {
  if (std::string error = check_status(response); !error.empty())
    return error;
  return guarded([&]() -> std::string {
    serve::JsonValue body = serve::JsonValue::parse(response.body);
    out.query_id = whole(body, "query_id");
    out.world_version = whole(body, "world_version");
    const serve::JsonValue& candidates = member(body, "candidates");
    if (candidates.as_array().empty()) return "no candidates";
    const serve::JsonValue& first = candidates.as_array().front();
    if (!member(first, "shortest_time").as_bool())
      return "candidates[0] is not the shortest-time route";
    const double travel = number(first, "travel_time_s");
    if (!within(travel, shortest_s, max_excess))
      return shortest_error("candidates[0] travel time", travel, shortest_s,
                            max_excess);
    out.fingerprint.clear();
    render(candidates, out.fingerprint);
    out.candidates = candidates;
    return {};
  });
}

std::string check_batch(const serve::HttpResponse& response,
                        const std::vector<double>& shortest_s,
                        double max_excess, BatchAnswer& out) {
  if (std::string error = check_status(response); !error.empty())
    return error;
  return guarded([&]() -> std::string {
    const serve::JsonValue body = serve::JsonValue::parse(response.body);
    const serve::JsonValue::Array& rows = member(body, "results").as_array();
    if (rows.size() != shortest_s.size())
      return std::to_string(rows.size()) + " rows for " +
             std::to_string(shortest_s.size()) + " queries";
    out.query_ids.clear();
    out.world_versions.clear();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const serve::JsonValue& row = rows[i];
      if (member(row, "status").as_string() != "ok")
        return "row " + std::to_string(i) + " is not ok: " +
               row.string_or("error", "");
      const serve::JsonValue& route = member(row, "recommended");
      const double travel = number(route, "travel_time_s");
      const double extra = number(route, "extra_time_s");
      if (!within(travel - extra, shortest_s[i], max_excess))
        return shortest_error(
            "row " + std::to_string(i) + " implies a shortest-time route of",
            travel - extra, shortest_s[i], max_excess);
      out.query_ids.push_back(whole(row, "query_id"));
      out.world_versions.push_back(whole(row, "world_version"));
    }
    return {};
  });
}

std::string check_explain(const serve::HttpResponse& response,
                          std::uint64_t world_version) {
  if (std::string error = check_status(response); !error.empty())
    return error;
  return guarded([&]() -> std::string {
    const serve::JsonValue body = serve::JsonValue::parse(response.body);
    if (!member(body, "conserves").as_bool())
      return "ledger does not conserve the route cost (max deviation " +
             format10(number(body, "max_deviation")) + ")";
    const std::uint64_t version = whole(body, "world_version");
    if (version != world_version)
      return "replayed on world v" + std::to_string(version) +
             ", answered on v" + std::to_string(world_version);
    return {};
  });
}

std::string check_world_version(const serve::HttpResponse& response,
                                std::uint64_t world_version) {
  if (std::string error = check_status(response); !error.empty())
    return error;
  return guarded([&]() -> std::string {
    const serve::JsonValue body = serve::JsonValue::parse(response.body);
    const std::uint64_t version = whole(body, "world_version");
    if (version != world_version)
      return "world v" + std::to_string(version) + ", expected v" +
             std::to_string(world_version);
    return {};
  });
}

std::string check_same_candidates(const core::PlanResult& direct,
                                  const serve::JsonValue& candidates) {
  return guarded([&]() -> std::string {
    const serve::JsonValue::Array& answered = candidates.as_array();
    if (answered.size() != direct.candidates.size())
      return "planner gives " + std::to_string(direct.candidates.size()) +
             " candidates, HTTP answer has " +
             std::to_string(answered.size());
    for (std::size_t i = 0; i < answered.size(); ++i) {
      const core::CandidateRoute& c = direct.candidates[i];
      const serve::JsonValue& a = answered[i];
      const std::pair<const char*, double> fields[] = {
          {"edges", static_cast<double>(c.route.path.edges.size())},
          {"length_m", c.metrics.total_length.value()},
          {"travel_time_s", c.metrics.travel_time.value()},
          {"solar_time_s", c.metrics.solar_time.value()},
          {"shaded_time_s", c.metrics.shaded_time.value()},
          {"energy_in_wh", c.metrics.energy_in.value()},
          {"energy_out_wh", c.metrics.energy_out.value()},
          {"extra_energy_wh", c.extra_energy.value()},
          {"extra_time_s", c.extra_time.value()},
      };
      for (const auto& [key, value] : fields)
        if (format10(number(a, key)) != format10(value))
          return "candidate " + std::to_string(i) + " " + key + ": planner " +
                 format10(value) + ", HTTP answer " +
                 format10(number(a, key));
      if (member(a, "shortest_time").as_bool() != c.is_shortest_time)
        return "candidate " + std::to_string(i) + " shortest_time differs";
    }
    return {};
  });
}

}  // namespace sunchase::routebench
