// The multi-label correcting algorithm (paper Algorithm 1): computes
// the Pareto set of routes under the three criteria — the full set when
// every edge is priced at the departure, a non-dominated subset of it
// under time-dependent pricing (MlcResult::routes). Labels carry
// one cost per criterion; a priority queue pops the lexicographic
// minimum; per-node bags keep only non-dominated labels; dominated
// labels are removed (lazily) from the queue.
#pragma once

#include <cstddef>
#include <vector>

#include "sunchase/core/criteria.h"
#include "sunchase/core/edge_cost.h"
#include "sunchase/core/world_fwd.h"
#include "sunchase/roadnet/path.h"

namespace sunchase::obs {
class Gauge;
}  // namespace sunchase::obs

namespace sunchase::core {

struct MlcOptions {
  /// Time budget as a multiple of the shortest travel time: labels whose
  /// travel time exceeds factor * T_shortest are pruned — the paper's
  /// "acceptable arrival time" constraint. Set to 0 to disable (no
  /// arrival-time constraint; the route set can be large).
  double max_time_factor = 1.5;
  /// Hard safety cap on created labels; RoutingError beyond it.
  std::size_t max_labels = 5'000'000;
  /// When true (default), edge criteria are evaluated at the clock time
  /// the label enters the edge (departure + accumulated travel time),
  /// so a route crossing a 15-minute boundary sees the shading/panel
  /// state change mid-route. When false, all edges are priced at the
  /// departure instant (the static approximation).
  bool time_dependent = true;
  /// How the entry clock is turned into an edge price: Exact evaluates
  /// the solar map per expansion; SlotQuantized rounds the clock down to
  /// the 15-minute slot start and reads the shared SlotCostCache.
  /// Bit-identical on a slot-constant world; see PricingMode.
  PricingMode pricing = PricingMode::Exact;
  /// Which of the world's vehicles the energy-consumption criterion is
  /// priced for (an index into World's vehicle list).
  std::size_t vehicle = 0;
  /// When true (default) and a time budget is active, a reverse Dijkstra
  /// from the destination (static lower-bound edge weights, no early
  /// exit) is run once per query and any label whose travel time plus
  /// its node's time-to-destination lower bound exceeds the budget is
  /// never inserted. Admissible, so the destination Pareto set is
  /// bit-identical to the plain filter — only the explored frontier
  /// shrinks. No effect when max_time_factor == 0.
  bool prune_with_lower_bounds = true;
  /// Epsilon-dominance merge: a new label is dropped when an existing
  /// bag label is within a factor (1 + epsilon) of it in EVERY
  /// criterion. 0 (default) keeps the search exact (the relaxed test is
  /// never evaluated); > 0 trades Pareto-set completeness for speed with
  /// a per-merge relative error of at most epsilon (errors can compound
  /// along a route — measure with the bench sweep, see EXPERIMENTS.md).
  double epsilon = 0.0;
};

/// One non-dominated route with its criteria vector.
struct ParetoRoute {
  roadnet::Path path;
  Criteria cost;
};

/// Search instrumentation (scalability benches report these).
struct MlcStats {
  std::size_t labels_created = 0;
  std::size_t labels_dominated = 0;
  std::size_t queue_pops = 0;
  std::size_t pareto_size = 0;
  /// Expansions rejected because travel time plus the node's
  /// time-to-destination lower bound exceeded the time budget (counts
  /// the old plain filter too when lower-bound pruning is off).
  std::size_t labels_pruned_bound = 0;
  /// Labels dropped by the relaxed epsilon-dominance merge (0 unless
  /// options.epsilon > 0).
  std::size_t labels_merged_epsilon = 0;
  /// Bag rows the insert scan compared a new label against (rows read
  /// before it was rejected, merged or accepted). The machine-independent
  /// measure of dominance work.
  std::size_t dominance_checks = 0;
  Seconds shortest_travel_time{0.0};
  /// Wall clock of this search (the query log's mlc phase duration).
  double search_seconds = 0.0;
  /// Wall clock of the reverse-Dijkstra lower-bound build (inside
  /// search_seconds; 0 when pruning is off or no budget is set).
  double lower_bound_seconds = 0.0;

  /// Adds every field of `o`: a batch's totals are its queries' sums.
  MlcStats& operator+=(const MlcStats& o) noexcept {
    labels_created += o.labels_created;
    labels_dominated += o.labels_dominated;
    queue_pops += o.queue_pops;
    pareto_size += o.pareto_size;
    labels_pruned_bound += o.labels_pruned_bound;
    labels_merged_epsilon += o.labels_merged_epsilon;
    dominance_checks += o.dominance_checks;
    shortest_travel_time += o.shortest_travel_time;
    search_seconds += o.search_seconds;
    lower_bound_seconds += o.lower_bound_seconds;
    return *this;
  }
};

struct MlcResult {
  /// Pareto routes at the target, sorted lexicographically. With
  /// time_dependent = false, the full Pareto set. With time-dependent
  /// pricing (the default), a non-dominated subset: a label dominated at
  /// an intermediate node is dropped, although arriving later could
  /// have put its next edges in a less shaded slot.
  /// tests/core/test_mlc_oracle.cpp compares against exhaustive
  /// enumeration on the search's clock and pins the misses (8 of 11 405
  /// true routes over 2160 small scene-world queries); no returned
  /// route is ever dominated.
  std::vector<ParetoRoute> routes;
  MlcStats stats;
};

/// The solver. Pins one immutable world snapshot for its lifetime —
/// construction is cheap (under SlotQuantized pricing it resolves the
/// world-owned, shared SlotCostCache; it never builds one), so a
/// per-query solver over a freshly loaded snapshot is the idiomatic
/// hot-swap pattern. Throws InvalidArgument for a null world or an
/// unknown vehicle index.
class MultiLabelCorrecting {
 public:
  explicit MultiLabelCorrecting(WorldPtr world,
                                MlcOptions options = MlcOptions{});

  /// Pareto routes (see MlcResult::routes) from `origin` to
  /// `destination` leaving at `departure`, sorted lexicographically.
  /// Throws RoutingError when the destination is unreachable or the
  /// label budget is exhausted; GraphError for unknown nodes.
  [[nodiscard]] MlcResult search(roadnet::NodeId origin,
                                 roadnet::NodeId destination,
                                 TimeOfDay departure) const;

  [[nodiscard]] const MlcOptions& options() const noexcept {
    return options_;
  }

  /// The snapshot every search() prices against.
  [[nodiscard]] const WorldPtr& world() const noexcept { return world_; }

  /// The world-owned slot cost cache backing SlotQuantized pricing;
  /// nullptr under Exact. Shared with every other solver, batch worker
  /// and explainer on the same (world version, vehicle).
  [[nodiscard]] const SlotCostCache* cache() const noexcept {
    return cache_;
  }

 private:
  WorldPtr world_;
  MlcOptions options_;
  const SlotCostCache* cache_ = nullptr;  ///< only when SlotQuantized
};

namespace detail {

/// The "mlc.cpu_seconds{pricing}" gauge the planners add each query's
/// CPU seconds to, one handle per pricing mode resolved on first use,
/// so the per-query accounting does no registry lookup.
[[nodiscard]] obs::Gauge& mlc_cpu_seconds(PricingMode pricing);

}  // namespace detail

}  // namespace sunchase::core
