// Output checks: every answer the benchmark receives is checked before
// its latency counts. Each check returns an empty string when the
// answer is right and otherwise says what is wrong, so a failed check
// becomes one failed operation with a reason instead of an abort.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sunchase/core/planner.h"
#include "sunchase/serve/http.h"
#include "sunchase/serve/json.h"

namespace sunchase::routebench {

/// What a correct /plan answer told us.
struct PlanAnswer {
  std::uint64_t query_id = 0;
  std::uint64_t world_version = 0;
  /// The candidates array rendered canonically; on a fixed world every
  /// answer to one trip must carry the same one.
  std::string fingerprint;
  serve::JsonValue candidates;
};

/// What a correct /batch answer told us, one entry per row.
struct BatchAnswer {
  std::vector<std::uint64_t> query_ids;
  std::vector<std::uint64_t> world_versions;
};

/// How much slower than core::shortest_time_path the shortest-time
/// candidate may be. Exact pricing finds the same route: 0. Slot
/// pricing freezes each edge's price at its slot start while UrbanTraffic
/// varies within the slot, so the route it finds may be slower; the
/// program documents that divergence as under 1 % (EXPERIMENTS.md,
/// "Slot-quantized pricing diverges under rush-hour traffic").
inline constexpr double kExactPricingExcess = 0.0;
inline constexpr double kSlotPricingExcess = 0.01;

/// Any answer: 2xx.
[[nodiscard]] std::string check_status(const serve::HttpResponse& response);

/// A /plan answer: 2xx, at least one candidate, and candidates[0] is
/// the shortest-time route, its travel time within `max_excess` above
/// `shortest_s` (core::shortest_time_path's time for the trip).
[[nodiscard]] std::string check_plan(const serve::HttpResponse& response,
                                     double shortest_s, double max_excess,
                                     PlanAnswer& out);

/// A /batch answer: 2xx, one `ok` row per query, and each row's
/// recommended route is `extra_time_s` slower than a shortest-time
/// route whose travel time is within `max_excess` above shortest_s[i].
[[nodiscard]] std::string check_batch(const serve::HttpResponse& response,
                                      const std::vector<double>& shortest_s,
                                      double max_excess, BatchAnswer& out);

/// A GET /explain answer: 2xx, the ledger conserves the route's cost,
/// and the replay ran on `world_version`, the world that answered.
[[nodiscard]] std::string check_explain(const serve::HttpResponse& response,
                                        std::uint64_t world_version);

/// A /world/publish or /healthz answer: 2xx and the world version the
/// benchmark's own count of publishes predicts.
[[nodiscard]] std::string check_world_version(
    const serve::HttpResponse& response, std::uint64_t world_version);

/// The planner called directly gives the candidates the HTTP answer
/// carried, compared at the precision the server renders.
[[nodiscard]] std::string check_same_candidates(
    const core::PlanResult& direct, const serve::JsonValue& candidates);

}  // namespace sunchase::routebench
