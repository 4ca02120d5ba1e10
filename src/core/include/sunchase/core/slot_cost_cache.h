// Slot-quantized edge-cost cache: a lazily-materialized, thread-safe
// table of EdgePrice rows keyed by (EdgeId, 15-minute slot) for
// one fixed (SolarInputMap, ConsumptionModel) pair. The paper holds
// panel power C and the shading profile constant within each slot
// (Sec. IV, Eq. 2-3), so every label entering an edge during a slot can
// share one precomputed cost instead of re-deriving it per expansion —
// the multi-label correcting hot path becomes an array read, and
// concurrent batch workers share a single materialization.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "sunchase/core/edge_cost.h"
#include "sunchase/obs/metrics.h"

namespace sunchase::core {

/// Owned by (and only constructible through) core::World, which
/// guarantees the map and vehicle it reads outlive it: one cache per
/// (world version, vehicle), shared by every planner, batch worker and
/// explainer on that snapshot — obtain it via World::slot_cache().
/// Columns (one per slot, covering every edge) fill on first
/// touch under a per-slot once_flag, then publish via an acquire/release
/// flag — later lookups are wait-free reads of immutable rows. Memory is
/// bounded by kSlotsPerDay columns of edge_count entries; actual usage
/// (only the slots a workload touches materialize) is reported through
/// the "slotcache.bytes" / "slotcache.filled_slots" gauges, alongside
/// "slotcache.hits" / "slotcache.misses" counters and the
/// "slotcache.fill_seconds" histogram of per-column fill times.
class SlotCostCache {
 public:
  /// One (edge, slot) row: detail::price_edge at the slot start.
  using Entry = EdgePrice;

  SlotCostCache(const SlotCostCache&) = delete;
  SlotCostCache& operator=(const SlotCostCache&) = delete;

  /// The cost of entering `edge` during slot `slot`: price_edge at
  /// TimeOfDay::slot_start(slot). The first caller of a slot fills its
  /// whole column (concurrent callers of the same slot block on the
  /// fill, counted as misses); every later lookup is a hit. Throws
  /// InvalidArgument for a slot outside [0, kSlotsPerDay); edges are
  /// bounds-checked against the map's graph.
  [[nodiscard]] const Entry& at(roadnet::EdgeId edge, int slot) const;

  /// The whole column for `slot`, indexed by edge id, filling it on
  /// first touch exactly like at(). Counts nothing itself: `missed` is
  /// set when the column had not published yet (the lookup at() would
  /// count as a miss), and a caller reading many rows through one
  /// column reports them once via record_lookups(). Throws
  /// InvalidArgument for a slot outside [0, kSlotsPerDay).
  [[nodiscard]] std::span<const Entry> column(int slot, bool& missed) const;

  /// Adds lookups made through column() to the "slotcache.hits" /
  /// "slotcache.misses" counters, so they total what the same reads
  /// through at() would have counted.
  void record_lookups(std::uint64_t hits, std::uint64_t misses) const {
    hits_.add(hits);
    misses_.add(misses);
  }

  /// Columns materialized so far.
  [[nodiscard]] std::size_t filled_slots() const noexcept {
    return filled_.load(std::memory_order_relaxed);
  }
  /// Bytes held by materialized columns (the bounded-memory accounting
  /// the "slotcache.bytes" gauge reports).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return filled_slots() * map_.graph().edge_count() * sizeof(Entry);
  }

 private:
  friend class World;
  SlotCostCache(const solar::SolarInputMap& map,
                const ev::ConsumptionModel& vehicle);

  struct Column {
    std::once_flag once;
    std::atomic<bool> ready{false};
    std::vector<Entry> entries;  ///< edge_count rows once filled
  };

  /// The published column for `slot` (range already checked), filling
  /// it first if needed; `missed` as in column().
  Column& ready_column(int slot, bool& missed) const;

  /// Prices every edge at the slot start, then publishes the column:
  /// flips `ready`, bumps the filled counter and refreshes the gauges.
  void fill(Column& column, int slot) const;

  const solar::SolarInputMap& map_;
  const ev::ConsumptionModel& vehicle_;
  mutable std::array<Column, TimeOfDay::kSlotsPerDay> columns_;
  mutable std::atomic<std::size_t> filled_{0};
  obs::Counter& hits_;            ///< "slotcache.hits"
  obs::Counter& misses_;          ///< "slotcache.misses"
  obs::Histogram& fill_seconds_;  ///< "slotcache.fill_seconds"
  obs::Gauge& bytes_gauge_;       ///< "slotcache.bytes"
  obs::Gauge& slots_gauge_;       ///< "slotcache.filled_slots"
};

}  // namespace sunchase::core
