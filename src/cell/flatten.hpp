/// \file flatten.hpp
/// Hierarchy flattening: expand a cell and all sub-instances into
/// per-layer primitive lists in a single coordinate system. DRC,
/// extraction and the mask writers operate on the flattened form.

#pragma once

#include "cell/cell.hpp"
#include "core/once_slot.hpp"
#include "geom/rect_index.hpp"

#include <array>
#include <vector>

namespace bb::cell {

/// Flattened artwork: rectangles per layer (paths are decomposed into
/// rectangles; polygons are kept whole).
///
/// Each layer carries a lazily-built `geom::RectIndex` (see `indexOn`) so
/// the geometric kernels that share one FlatLayout — DRC, extraction,
/// emission — also share one spatial index per layer instead of
/// rebuilding (or worse, brute-scanning) per consumer. An index reads
/// its layer's rects in place, so mutate a layer only through the
/// non-const `on()`, which drops the index first. Movable (the rect
/// buffers, and the indexes reading them, move along), not copyable.
struct FlatLayout {
  std::array<std::vector<geom::Rect>, tech::kLayerCount> rects;
  std::vector<std::pair<tech::Layer, geom::Polygon>> polygons;

  /// Mutable access drops the layer's cached index.
  [[nodiscard]] std::vector<geom::Rect>& on(tech::Layer l) noexcept {
    const auto i = static_cast<std::size_t>(l);
    indexes_[i].reset();
    return rects[i];
  }
  [[nodiscard]] const std::vector<geom::Rect>& on(tech::Layer l) const noexcept {
    return rects[static_cast<std::size_t>(l)];
  }

  /// Spatial index over `on(l)`, built on first use and cached until the
  /// layer is next mutated through the non-const `on()`. Any number of
  /// threads may make the first call at once: one builds, the rest wait,
  /// and every caller gets the same index (a `core::OnceSlot`).
  [[nodiscard]] const geom::RectIndex& indexOn(tech::Layer l) const;

  /// Build every layer's index now (benches time index building apart
  /// from the queries that would otherwise build on first use).
  void buildIndexes() const;

  [[nodiscard]] std::size_t totalCount() const noexcept;
  [[nodiscard]] geom::Rect bbox() const noexcept;

  /// Resident-size estimate: rect storage, polygon vertices, and any
  /// layer indexes built so far.
  [[nodiscard]] std::size_t approxBytes() const noexcept;

 private:
  std::array<core::OnceSlot<geom::RectIndex>, tech::kLayerCount> indexes_;
};

/// Flatten `c` (optionally pre-transformed by `t`).
[[nodiscard]] FlatLayout flatten(const Cell& c, const geom::Transform& t = {});

/// Flatten into an existing FlatLayout (used when assembling a chip from
/// several placed cells). Drops `out`'s layer indexes once per call, so
/// `indexOn` afterwards sees the appended rects.
void flattenInto(FlatLayout& out, const Cell& c, const geom::Transform& t = {});

/// The number of primitives `flatten(c)` would hold, i.e.
/// `flatten(c).totalCount()`, without building it: a rect or polygon
/// counts 1 and a path its `toRects()` size (0, 1 or points-1), summed
/// over the expanded tree with one count per distinct cell, so the cost
/// scales with the cells and instance edges, not the flattened shapes.
[[nodiscard]] std::size_t flatCount(const Cell& c);

}  // namespace bb::cell
