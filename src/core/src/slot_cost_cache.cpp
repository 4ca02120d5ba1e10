#include "sunchase/core/slot_cost_cache.h"

#include <chrono>
#include <string>

#include "sunchase/common/error.h"

namespace sunchase::core {

namespace {

void check_slot(const char* who, int slot) {
  if (slot < 0 || slot >= TimeOfDay::kSlotsPerDay)
    throw InvalidArgument(std::string(who) + ": slot index " +
                          std::to_string(slot) + " outside [0, " +
                          std::to_string(TimeOfDay::kSlotsPerDay) + ")");
}

}  // namespace

SlotCostCache::SlotCostCache(const solar::SolarInputMap& map,
                             const ev::ConsumptionModel& vehicle)
    : map_(map),
      vehicle_(vehicle),
      hits_(obs::Registry::global().counter("slotcache.hits")),
      misses_(obs::Registry::global().counter("slotcache.misses")),
      fill_seconds_(
          obs::Registry::global().histogram("slotcache.fill_seconds")),
      bytes_gauge_(obs::Registry::global().gauge("slotcache.bytes")),
      slots_gauge_(obs::Registry::global().gauge("slotcache.filled_slots")) {}

const SlotCostCache::Entry& SlotCostCache::at(roadnet::EdgeId edge,
                                              int slot) const {
  check_slot("SlotCostCache::at", slot);
  bool missed = false;
  const Column& column = ready_column(slot, missed);
  (missed ? misses_ : hits_).add();
  // Edge ids are dense (add_edge hands them out starting at 0), so the
  // id doubles as the row index; a stale id is rejected here.
  if (edge >= column.entries.size())
    throw InvalidArgument("SlotCostCache::at: edge id " +
                          std::to_string(edge) + " outside [0, " +
                          std::to_string(column.entries.size()) + ")");
  return column.entries[edge];
}

std::span<const SlotCostCache::Entry> SlotCostCache::column(
    int slot, bool& missed) const {
  check_slot("SlotCostCache::column", slot);
  return ready_column(slot, missed).entries;
}

SlotCostCache::Column& SlotCostCache::ready_column(int slot,
                                                   bool& missed) const {
  Column& column = columns_[static_cast<std::size_t>(slot)];
  // First touch of this slot (or racing with the filler): everyone who
  // arrives before the column publishes counts as a miss.
  missed = !column.ready.load(std::memory_order_acquire);
  if (missed) std::call_once(column.once, [&] { fill(column, slot); });
  return column;
}

void SlotCostCache::fill(Column& column, int slot) const {
  const auto start = std::chrono::steady_clock::now();
  const TimeOfDay when = TimeOfDay::slot_start(slot);
  const std::size_t n = map_.graph().edge_count();
  column.entries.reserve(n);
  for (roadnet::EdgeId e = 0; e < n; ++e)
    column.entries.push_back(detail::price_edge(map_, vehicle_, e, when));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  column.ready.store(true, std::memory_order_release);
  const std::size_t filled =
      filled_.fetch_add(1, std::memory_order_relaxed) + 1;
  slots_gauge_.set(static_cast<double>(filled));
  bytes_gauge_.set(static_cast<double>(filled * n * sizeof(Entry)));
  fill_seconds_.observe(seconds);
}

}  // namespace sunchase::core
