#include "sunchase/core/mlc.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <queue>
#include <span>
#include <utility>

#include "sunchase/common/error.h"
#include "sunchase/common/logging.h"
#include "sunchase/core/detail/bag_block.h"
#include "sunchase/core/dijkstra.h"
#include "sunchase/core/slot_cost_cache.h"
#include "sunchase/core/world.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/obs/trace.h"

namespace sunchase::core {

namespace {

/// Registry handles for the search counters, resolved once. Stats are
/// bulk-added per query so the inner loop pays no atomics.
struct MlcMetrics {
  obs::Counter& labels_created;
  obs::Counter& labels_dominated;
  obs::Counter& queue_pops;
  obs::Counter& queries;
  obs::Counter& label_cap_hits;
  obs::Counter& labels_pruned_bound;
  obs::Counter& labels_merged_epsilon;
  obs::Counter& dominance_checks;
  obs::Histogram& lower_bound_latency;
  obs::Histogram& latency;

  static const MlcMetrics& get() {
    static MlcMetrics metrics{
        obs::Registry::global().counter("mlc.labels_created"),
        obs::Registry::global().counter("mlc.labels_dominated"),
        obs::Registry::global().counter("mlc.queue_pops"),
        obs::Registry::global().counter("mlc.queries"),
        obs::Registry::global().counter("mlc.label_cap_hits"),
        obs::Registry::global().counter("mlc.labels_pruned_bound"),
        obs::Registry::global().counter("mlc.labels_merged_epsilon"),
        obs::Registry::global().counter("mlc.dominance_checks"),
        obs::Registry::global().histogram("mlc.lower_bound_seconds"),
        obs::Registry::global().histogram("mlc.query_latency_seconds")};
    return metrics;
  }
};

/// How a label was reached: `node` via `via_edge` from the label at
/// arena index `parent` (-1 for the origin label). The label's cost is
/// kept where it is read, in its queue entry and its bag row.
struct Label {
  roadnet::NodeId node = roadnet::kInvalidNode;
  roadnet::EdgeId via_edge = roadnet::kInvalidEdge;
  std::int32_t parent = -1;
  bool alive = true;  ///< false once dominated (lazy queue deletion)
};

/// One node's bag: its live labels' costs and arena indices in creation
/// order, four rows to a block (detail/bag_block.h); `blocks` always
/// holds ceil(size / 4) blocks. `bounds` covers every row ever pushed;
/// a compaction leaves it as it was.
struct Bag {
  std::vector<detail::BagBlock> blocks;
  std::uint32_t size = 0;
  detail::BagBounds bounds;

  /// Valid-lane mask of block `b`: all four lanes but in the last block.
  [[nodiscard]] unsigned valid(std::size_t b) const noexcept {
    const std::size_t left = size - 4 * b;
    return left >= 4 ? detail::kFullBlock : (1u << left) - 1u;
  }

  [[nodiscard]] Criteria cost(std::uint32_t row) const noexcept {
    const detail::BagBlock& b = blocks[row / 4];
    const std::uint32_t lane = row % 4;
    Criteria cost;
    cost.travel_time = Seconds{b.time[lane]};
    cost.shaded_time = Seconds{b.shade[lane]};
    cost.energy_out = WattHours{b.energy[lane]};
    return cost;
  }

  [[nodiscard]] std::uint32_t label(std::uint32_t row) const noexcept {
    return blocks[row / 4].label[row % 4];
  }

  void push(const Criteria& cost, std::uint32_t label) {
    const std::uint32_t lane = size % 4;
    if (lane == 0) blocks.emplace_back();  // value-initialized
    detail::BagBlock& b = blocks.back();
    b.time[lane] = cost.travel_time.value();
    b.shade[lane] = cost.shaded_time.value();
    b.energy[lane] = cost.energy_out.value();
    b.label[lane] = label;
    bounds.add(b.time[lane], b.shade[lane], b.energy[lane]);
    ++size;
  }
};

/// Step 2 of Algorithm 1 for one candidate cost at a node: true when no
/// bag row rejects (or, with Merge, epsilon-merges) it, in which case
/// the rows it dominates are gone from the bag and dead in the arena.
/// The scan tests whole blocks, and the lowest set bit of the stop mask
/// is the first stopping row in creation order, so `dominance_checks`
/// and `labels_merged_epsilon` count what a row-by-row scan would. The
/// "candidate dominates a row" test runs only for accepted candidates,
/// and the compaction is stable, so the bag keeps creation order. Each
/// pass is skipped when the bag's bounds show that it would find no
/// row; the counts are the same as if it had run.
template <bool Merge>
bool admit(Bag& bag, const detail::Candidate& c, std::vector<Label>& arena,
           MlcStats& stats) {
  namespace block = detail::block;
  const std::size_t blocks = (bag.size + 3) / 4;
  const std::size_t scan = bag.bounds.no_row_stops(c, Merge) ? 0 : blocks;
  // Two blocks per step, so one branch decides eight rows.
  for (std::size_t b = 0; b < scan; b += 2) {
    const detail::BagBlock* at = &bag.blocks[b];
    const bool pair = b + 1 < blocks;
    unsigned rejects = block::reject_rows(at[0], c, bag.valid(b));
    if (pair) rejects |= block::reject_rows(at[1], c, bag.valid(b + 1)) << 4;
    unsigned stop = rejects;
    if constexpr (Merge) {
      stop |= block::merge_rows(at[0], c, bag.valid(b));
      if (pair) stop |= block::merge_rows(at[1], c, bag.valid(b + 1)) << 4;
    }
    if (stop == 0) continue;
    const auto first = static_cast<std::size_t>(std::countr_zero(stop));
    stats.dominance_checks += 4 * b + first + 1;
    // A row that both rejects and merges the candidate rejects it.
    if constexpr (Merge) {
      if ((rejects >> first & 1u) == 0) ++stats.labels_merged_epsilon;
    }
    return false;
  }
  stats.dominance_checks += bag.size;
  if (bag.bounds.no_row_dominated(c)) return true;

  // The first block holding a row the candidate dominates, if any.
  std::size_t b = 0;
  for (; b < blocks; ++b)
    if (block::dominated_rows(bag.blocks[b], c, bag.valid(b)) != 0) break;
  if (b == blocks) return true;
  // Step 2c: drop the dominated rows (their queue entries die lazily via
  // the alive flag). Rows move only to lower positions already read.
  auto kept = static_cast<std::uint32_t>(4 * b);
  for (; b < blocks; ++b) {
    detail::BagBlock& from = bag.blocks[b];
    const unsigned valid = bag.valid(b);
    const unsigned dead = block::dominated_rows(from, c, valid);
    for (unsigned lane = 0; lane < 4; ++lane) {
      if ((valid >> lane & 1u) == 0) break;
      if ((dead >> lane & 1u) != 0) {
        arena[from.label[lane]].alive = false;
        ++stats.labels_dominated;
        continue;
      }
      detail::BagBlock& to = bag.blocks[kept / 4];
      const std::uint32_t at = kept % 4;
      to.time[at] = from.time[lane];
      to.shade[at] = from.shade[lane];
      to.energy[at] = from.energy[lane];
      to.label[at] = from.label[lane];
      ++kept;
    }
  }
  bag.size = kept;
  bag.blocks.resize((kept + 3) / 4);
  return true;
}

struct QueueEntry {
  Criteria cost;  ///< the label's cost, the ordering key
  std::uint32_t label;
};

struct LexGreater {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
    return lex_less(b.cost, a.cost);
  }
};

}  // namespace

obs::Gauge& detail::mlc_cpu_seconds(PricingMode pricing) {
  // Gauge rather than Counter: CPU seconds are fractional, and
  // Gauge::add is the registry's only atomic float accumulator. The
  // series is monotone in practice — treat it like a counter when
  // graphing rates. Each series registers on its mode's first query.
  auto resolve = [](PricingMode mode) -> obs::Gauge& {
    return obs::Registry::global().gauge("mlc.cpu_seconds",
                                         {{"pricing", pricing_name(mode)}});
  };
  if (pricing == PricingMode::SlotQuantized) {
    static obs::Gauge& slot = resolve(PricingMode::SlotQuantized);
    return slot;
  }
  static obs::Gauge& exact = resolve(PricingMode::Exact);
  return exact;
}

MultiLabelCorrecting::MultiLabelCorrecting(WorldPtr world, MlcOptions options)
    : world_(std::move(world)), options_(options) {
  if (!world_) throw InvalidArgument("MultiLabelCorrecting: null world");
  static_cast<void>(world_->vehicle(options.vehicle));  // validates the index
  if (options.pricing == PricingMode::SlotQuantized)
    cache_ = &world_->slot_cache(options.vehicle);
  // Non-finite first: NaN slips through every ordered comparison below
  // (NaN < 0 is false), and an unchecked NaN/inf poisons time_bound and
  // silently disables the only prune the search has.
  if (!std::isfinite(options.max_time_factor))
    throw InvalidArgument("MultiLabelCorrecting: non-finite time factor");
  if (options.max_time_factor < 0.0)
    throw InvalidArgument("MultiLabelCorrecting: negative time factor");
  if (options.max_time_factor > 0.0 && options.max_time_factor < 1.0)
    throw InvalidArgument(
        "MultiLabelCorrecting: time factor below 1 excludes the shortest "
        "path itself");
  if (!std::isfinite(options.epsilon) || options.epsilon < 0.0)
    throw InvalidArgument(
        "MultiLabelCorrecting: epsilon must be finite and >= 0");
}

MlcResult MultiLabelCorrecting::search(roadnet::NodeId origin,
                                       roadnet::NodeId destination,
                                       TimeOfDay departure) const {
  const solar::SolarInputMap& map = world_->solar_map();
  const ev::ConsumptionModel& vehicle = world_->vehicle(options_.vehicle);
  const auto& graph = map.graph();
  if (origin >= graph.node_count() || destination >= graph.node_count())
    throw GraphError("MultiLabelCorrecting::search: unknown node");

  const obs::SpanTimer span("mlc.search");
  const auto search_start = std::chrono::steady_clock::now();

  MlcResult result;

  // Time bound from the shortest-time baseline (also proves
  // reachability before the multi-criteria expansion starts).
  const auto shortest = detail::shortest_time_path(
      graph, map.traffic(), origin, destination, departure);
  if (!shortest)
    throw RoutingError("MultiLabelCorrecting::search: destination unreachable");
  result.stats.shortest_travel_time = shortest->travel_time;
  const double time_bound =
      options_.max_time_factor > 0.0
          ? shortest->travel_time.value() * options_.max_time_factor
          : 0.0;

  // Time-to-destination lower bounds (the ROADMAP's ellipse pruning):
  // a reverse Dijkstra with static admissible edge weights, settled over
  // the whole component so every node a label can touch has a bound.
  // Admissibility makes the prune exact — a label it kills can only lead
  // to arrivals past the budget, and domination is downward-closed under
  // it (a dominating label has <= travel time, so it survives whenever
  // its victim would). Empty when pruning is off or no budget is set;
  // lower_bounds[destination] == 0, so in-budget arrivals never prune.
  std::vector<double> lower_bounds;
  if (time_bound > 0.0 && options_.prune_with_lower_bounds) {
    const obs::SpanTimer lb_span("mlc.lower_bounds");
    const auto lb_start = std::chrono::steady_clock::now();
    lower_bounds = detail::time_lower_bounds(graph, map.traffic(), destination);
    result.stats.lower_bound_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      lb_start)
            .count();
  }

  std::vector<Label> arena;
  arena.reserve(1024);
  std::vector<Bag> bags(graph.node_count());
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, LexGreater> queue;

  // Initialization: L(origin) = (origin, (0,0,0), NULL).
  arena.push_back(Label{origin, roadnet::kInvalidEdge, -1, true});
  bags[origin].push(Criteria{}, 0);
  queue.push(QueueEntry{Criteria{}, 0});
  result.stats.labels_created = 1;

  // Slot-cache lookups, added to the cache's hit/miss counters once per
  // search (and before a label-budget throw) instead of per edge.
  std::uint64_t slot_lookups = 0;
  std::uint64_t slot_misses = 0;
  auto report_slot_lookups = [&] {
    if (cache_ != nullptr)
      cache_->record_lookups(slot_lookups - slot_misses, slot_misses);
  };

  // Inserts `cost` at node v unless a bag row rejects it (admit()).
  // Whether epsilon-merging is on is decided here, once per insert, so
  // the exact (epsilon = 0) scan never evaluates the relaxed merge.
  const double epsilon = options_.epsilon;
  auto try_insert = [&](roadnet::NodeId v, const Criteria& cost,
                        roadnet::EdgeId via, std::int32_t parent) {
    Bag& bag = bags[v];
    const detail::Candidate candidate = detail::Candidate::of(cost, epsilon);
    bool admitted = false;
    if (epsilon > 0.0)
      admitted = admit<true>(bag, candidate, arena, result.stats);
    else
      admitted = admit<false>(bag, candidate, arena, result.stats);
    if (!admitted) return;
    if (arena.size() >= options_.max_labels) {
      report_slot_lookups();
      MlcMetrics::get().label_cap_hits.add();
      SUNCHASE_LOG(Info) << "mlc: label budget of " << options_.max_labels
                         << " exhausted at node " << v << " ("
                         << result.stats.labels_dominated
                         << " labels dominated so far)";
      throw RoutingError("MultiLabelCorrecting::search: label budget of " +
                         std::to_string(options_.max_labels) + " exhausted");
    }
    const auto idx = static_cast<std::uint32_t>(arena.size());
    arena.push_back(Label{v, via, parent, true});
    ++result.stats.labels_created;
    bag.push(cost, idx);
    queue.push(QueueEntry{cost, idx});
  };

  while (!queue.empty()) {
    const QueueEntry entry = queue.top();
    queue.pop();
    ++result.stats.queue_pops;
    // Read before any try_insert: growing the arena invalidates `label`.
    const Label& label = arena[entry.label];
    if (!label.alive) continue;  // lazily deleted
    // Expanding from the destination only finds cycles back to it, and
    // every cycle is dominated (criteria are non-negative additive).
    if (label.node == destination) continue;
    const std::span<const roadnet::EdgeId> out = graph.out_edges(label.node);
    if (out.empty()) continue;  // a dead end reads no slot column

    const TimeOfDay now =
        options_.time_dependent
            ? departure.advanced_by(entry.cost.travel_time)
            : departure;
    // Under SlotQuantized all expansions from this label share one slot
    // column: resolve it once, then each edge is an array read.
    std::span<const SlotCostCache::Entry> slot_column;
    if (cache_ != nullptr) {
      bool missed = false;
      slot_column = cache_->column(now.slot_index(), missed);
      slot_lookups += out.size();
      if (missed) ++slot_misses;
    }
    for (const roadnet::EdgeId e : out) {
      const Criteria next =
          entry.cost +
          (cache_ != nullptr
               ? slot_column[e].criteria
               : detail::price_edge(map, vehicle, e, now).criteria);
      const roadnet::NodeId to = graph.edge(e).to;
      if (time_bound > 0.0) {
        // With lower bounds: can this label still reach the destination
        // inside the budget? Without: the plain arrival-time filter
        // (lb == 0 everywhere, which the bounds subsume since lb >= 0).
        const double slack =
            lower_bounds.empty() ? 0.0 : lower_bounds[to];
        if (next.travel_time.value() + slack > time_bound) {
          ++result.stats.labels_pruned_bound;
          continue;  // cannot make the acceptable arrival time
        }
      }
      try_insert(to, next, e, static_cast<std::int32_t>(entry.label));
    }
  }
  report_slot_lookups();

  // Harvest the destination bag and rebuild paths parent-by-parent.
  const Bag& arrivals = bags[destination];
  for (std::uint32_t row = 0; row < arrivals.size; ++row) {
    ParetoRoute route;
    route.cost = arrivals.cost(row);
    for (std::int32_t i = static_cast<std::int32_t>(arrivals.label(row));
         arena[static_cast<std::uint32_t>(i)].parent != -1;
         i = arena[static_cast<std::uint32_t>(i)].parent)
      route.path.edges.push_back(arena[static_cast<std::uint32_t>(i)].via_edge);
    std::reverse(route.path.edges.begin(), route.path.edges.end());
    result.routes.push_back(std::move(route));
  }
  std::sort(result.routes.begin(), result.routes.end(),
            [](const ParetoRoute& a, const ParetoRoute& b) {
              return lex_less(a.cost, b.cost);
            });
  result.stats.pareto_size = result.routes.size();

  result.stats.search_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    search_start)
          .count();
  const MlcMetrics& metrics = MlcMetrics::get();
  metrics.labels_created.add(result.stats.labels_created);
  metrics.labels_dominated.add(result.stats.labels_dominated);
  metrics.queue_pops.add(result.stats.queue_pops);
  metrics.queries.add();
  metrics.labels_pruned_bound.add(result.stats.labels_pruned_bound);
  metrics.labels_merged_epsilon.add(result.stats.labels_merged_epsilon);
  metrics.dominance_checks.add(result.stats.dominance_checks);
  if (result.stats.lower_bound_seconds > 0.0)
    metrics.lower_bound_latency.observe(result.stats.lower_bound_seconds);
  metrics.latency.observe(result.stats.search_seconds);
  SUNCHASE_LOG(Debug) << "mlc: " << origin << "->" << destination << " @ "
                      << departure.to_string() << ": "
                      << result.stats.labels_created << " labels, "
                      << result.stats.labels_dominated << " dominated, "
                      << result.stats.queue_pops << " pops, Pareto set "
                      << result.stats.pareto_size;
  return result;
}

}  // namespace sunchase::core
