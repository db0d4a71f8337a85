/// \file hier_index.hpp
/// Hierarchy-aware spatial decomposition of a cell tree — the data
/// structure behind the hierarchical DRC/extraction/emission paths.
///
/// `flatten()` expands every instance, so memory and analysis work scale
/// with *instance count*. Bristle-Blocks chips are arrays of repeated
/// parameterized cells (datapath bit slices, decoder columns, pad rings),
/// so the same hardware is described far more compactly as
///
///   * a set of *units*: the unique repeated cells, each flattened ONCE
///     (its whole subtree) into local coordinates, with the usual lazy
///     per-layer `geom::RectIndex`es;
///   * a list of *placements*: (unit, `geom::Transform`) pairs locating
///     every occurrence in world coordinates, spatially indexed by their
///     world bounding boxes;
///   * a *residual* `FlatLayout`: geometry owned by cells that occur only
///     once (the top cell's own wiring, one-off blocks), flattened into
///     world coordinates as before.
///
/// Every consumer that used to walk the full flatten can instead process
/// each unit's interior once and handle placements through transform-aware
/// queries: `drc::DeckChecker::checkHier`, `extract::extractHier` and the
/// `layout::View` hierarchical constructor all run off this index, so
/// their cost scales with *unique-cell* geometry plus the interaction
/// regions between placements — the ROADMAP's "stop flattening the world"
/// refactor.
///
/// Thread safety: construction does all the flattening eagerly, and the
/// unit and residual layer indexes are `FlatLayout::indexOn`'s, safe to
/// build on first use from any thread, so every query may run
/// concurrently. The instance-materialization counter is atomic (the
/// `svc` viewport tests assert through it that a window only resolves the
/// placements whose bounding boxes touch it).

#pragma once

#include "cell/cell.hpp"
#include "cell/flatten.hpp"
#include "geom/rect_index.hpp"
#include "geom/transform.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

namespace bb::cell {

/// One unique repeated cell, flattened once in local coordinates.
struct HierUnit {
  const Cell* cell = nullptr;
  FlatLayout flat;            ///< whole-subtree flatten, local coords
  geom::Rect bbox;            ///< bbox of `flat` (local coords)
  std::size_t placementCount = 0;
};

/// One occurrence of a unit in world coordinates.
struct HierPlacement {
  std::size_t unit = 0;
  geom::Transform t;          ///< unit-local -> world
  geom::Rect worldBBox;       ///< t(unit bbox)
};

class HierIndex {
 public:
  /// Decompose `top`. A cell becomes a reuse unit when it occurs more
  /// than once in the fully-expanded tree and its subtree holds at least
  /// `minUnitShapes` primitives (tiny cells are cheaper re-flattened than
  /// indexed); everything else is expanded into the residual. Units
  /// partition the geometry exactly: every flattened primitive lives in
  /// exactly one unit placement or in the residual.
  explicit HierIndex(const Cell& top, std::size_t minUnitShapes = 2);

  HierIndex(const HierIndex&) = delete;
  HierIndex& operator=(const HierIndex&) = delete;

  [[nodiscard]] const Cell& top() const noexcept { return *top_; }
  [[nodiscard]] const FlatLayout& residual() const noexcept { return residual_; }
  [[nodiscard]] const std::vector<HierUnit>& units() const noexcept { return units_; }
  [[nodiscard]] const std::vector<HierPlacement>& placements() const noexcept {
    return placements_;
  }
  /// Bounding box of everything (residual plus placed unit bboxes).
  [[nodiscard]] const geom::Rect& bbox() const noexcept { return bbox_; }

  /// Primitive count the full flatten would hold (sum over placements of
  /// unit counts, plus residual) vs. what is actually resident here.
  [[nodiscard]] std::size_t flatCount() const noexcept { return flatCount_; }
  [[nodiscard]] std::size_t uniqueCount() const noexcept { return uniqueCount_; }

  /// Visit the indices of all placements whose world bbox comes within
  /// Chebyshev distance `margin` of `q` (0 = touching), ascending.
  void forEachPlacementNear(const geom::Rect& q, geom::Coord margin,
                            const std::function<void(std::size_t)>& fn) const;

  /// Visit every world-space rect on layer `l` touching `q`, from the
  /// residual first and then from each near placement in ascending
  /// placement order (rects within a source come back in ascending local
  /// index order — deterministic).
  void forEachRectTouching(tech::Layer l, const geom::Rect& q,
                           const std::function<void(const geom::Rect&)>& fn) const;

  /// Instance materializations performed against this index (placements
  /// resolved into world geometry by `layout::View` and friends).
  [[nodiscard]] std::uint64_t instancesMaterialized() const noexcept {
    return materialized_.load(std::memory_order_relaxed);
  }
  void noteMaterialized(std::uint64_t n) const noexcept {
    materialized_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Resident-size estimate (unit flattens + residual + placement table),
  /// the hierarchical counterpart of `FlatLayout::approxBytes`.
  [[nodiscard]] std::size_t approxBytes() const noexcept;

 private:
  const Cell* top_;
  FlatLayout residual_;
  std::vector<HierUnit> units_;
  std::vector<HierPlacement> placements_;
  std::vector<geom::Rect> worldBoxes_;  ///< placement world bboxes, in order
  geom::RectIndex placementIndex_;      ///< over `worldBoxes_`
  geom::Rect bbox_{};
  std::size_t flatCount_ = 0;
  std::size_t uniqueCount_ = 0;
  mutable std::atomic<std::uint64_t> materialized_{0};
};

}  // namespace bb::cell
