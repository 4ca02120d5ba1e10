// Crowd-sensed solar map — the paper's Sec. VI future work: "a driver
// can mount the smartphone on the windshield ... capturing the on-road
// shadow conditions using its front-facing cameras. By collecting the
// real-time shadow information across thousands of phones in moving
// vehicles, we are able to draw a comprehensive solar input map."
//
// The CrowdSolarMap aggregates per-edge, per-15-minute-slot shadow
// observations from probe vehicles; cells without enough reports fall
// back to a prior (typically the static 3D-model estimate), so the
// crowd layer corrects the model where traffic actually flows —
// including obstructions the 3D database does not know about
// (construction, seasonal foliage), which the paper names as the main
// source of model error.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sunchase/common/time_of_day.h"
#include "sunchase/roadnet/graph.h"
#include "sunchase/shadow/shading.h"

namespace sunchase::crowd {

/// One report from one vehicle: "edge e looked f shaded during slot s".
struct Observation {
  roadnet::EdgeId edge = roadnet::kInvalidEdge;
  int slot = 0;                  ///< 15-minute slot index [0, 96)
  double shaded_fraction = 0.0;  ///< camera estimate in [0, 1]
  std::uint64_t vehicle_id = 0;
};

class CrowdSolarMap {
 public:
  struct Options {
    int first_slot = 32;          ///< 08:00
    int last_slot = 74;           ///< 18:30
    /// Reports required before a cell overrides the prior.
    int min_observations = 1;
  };

  /// `prior` answers for cells without crowd data (e.g. the vision or
  /// exact model estimate); it must be valid for this map's lifetime.
  CrowdSolarMap(std::size_t edge_count, shadow::ShadedFractionFn prior,
                Options options);

  /// Ingests one observation; throws InvalidArgument when the edge,
  /// slot, or fraction is out of range.
  void report(const Observation& observation);

  /// Crowd mean for the cell when it has enough reports, otherwise the
  /// prior. Times outside the slot window clamp to its edges.
  [[nodiscard]] double shaded_fraction(roadnet::EdgeId edge,
                                       TimeOfDay when) const;

  /// Whether the (edge, slot) cell has enough reports to override the
  /// prior; false for slots outside the map's window. Throws
  /// InvalidArgument for an unknown edge. World folding uses this to
  /// fall back to the base snapshot's profile instead of the prior.
  [[nodiscard]] bool covered(roadnet::EdgeId edge, int slot) const;

  /// Estimator view for ShadingProfile::compute (captures `this`; keep
  /// the map alive).
  [[nodiscard]] shadow::ShadedFractionFn estimator() const;

  /// Calls `visit(edge, slot, mean)` for every covered cell, in no
  /// particular order, where `mean` is what shaded_fraction answers.
  template <class Visit>
  void for_each_covered(Visit&& visit) const {
    for (const auto& [index, cell] : cells_)
      if (cell.count >= options_.min_observations)
        visit(static_cast<roadnet::EdgeId>(index / slots_),
              options_.first_slot + static_cast<int>(index % slots_),
              cell.sum / cell.count);
  }

  /// Fraction of (edge, slot) cells with at least min_observations.
  [[nodiscard]] double coverage() const noexcept;

  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  [[nodiscard]] std::size_t observation_count() const noexcept {
    return total_observations_;
  }

 private:
  struct Cell {
    double sum = 0.0;
    int count = 0;
  };

  [[nodiscard]] std::size_t index_of(roadnet::EdgeId edge, int slot) const;

  std::size_t edge_count_;
  shadow::ShadedFractionFn prior_;
  Options options_;
  std::size_t slots_ = 0;  ///< slots in the window
  /// Only the cells that got a report, keyed by index_of.
  std::unordered_map<std::size_t, Cell> cells_;
  std::size_t covered_cells_ = 0;  ///< cells with >= min_observations
  std::size_t total_observations_ = 0;
};

}  // namespace sunchase::crowd
