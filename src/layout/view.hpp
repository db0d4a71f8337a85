/// \file view.hpp
/// Windowed, tile-streaming view over flattened artwork — the emission-side
/// counterpart of the per-layer spatial indexes.
///
/// Every mask writer used to walk the raw flattened layer vectors front to
/// back, so emitting a small viewport of a huge chip cost as much as
/// emitting the whole chip. A `View` is a viewport window plus a tile grid
/// over a `cell::FlatLayout`: it yields each layer's geometry tile by tile
/// in a deterministic order, answering "what is inside this window?" with
/// `FlatLayout::indexOn(layer)` window queries instead of full scans, so
/// emission cost tracks the geometry in the window (output-sensitive), not
/// the chip size. All four geometry writers (CIF, GDS, SVG, sticks-SVG)
/// stream from a View: `writeCif`/`writeGds` take one directly
/// (`writeCif(View{flat, opts})`), svg and sticks open one from their
/// `ViewOptions`. Full-chip emission is simply the `window == bbox`,
/// single-tile special case and is bit-identical to the raw walk. A
/// whole-artwork view (no window set, one tile, merging off) is that
/// walk: it reads each layer vector in place and builds no index, while
/// windowed, tiled and merged views query the per-layer indexes. The
/// emitter registry reaches every writer through `reps::EmitterOptions`,
/// which is `ViewOptions` plus the `hierarchical` switch.
///
/// Two streaming modes:
///  * unmerged (default): original rects, unclipped, each emitted exactly
///    once — a rect touching several tiles belongs to the tile containing
///    its window-clamped lower-left corner. With the default single tile
///    the order is exactly the source-vector order (the index returns
///    ascending indices), which is what makes full emission byte-identical
///    to the pre-View writers.
///  * merged: each tile's geometry is clipped to the tile and decomposed
///    with `geom::sweep::unionRects` into disjoint maximal rects — fewer,
///    overlap-free boxes whose union area per layer equals the raw union
///    area exactly (the equivalence tests assert this via
///    `sweep::unionArea`). Merged output is clipped to the window.
///
/// Polygons (which only CIF import produces today) stream through the
/// `geom::poly` clipping engine: a polygon crossing the window boundary
/// is clipped to the window (`geom::poly::clipToRect`) and its pieces
/// emitted instead of the whole ring, while a polygon fully inside the
/// window passes through verbatim — so full-chip emission stays
/// byte-identical to the raw walk. Tiled writers assign each piece to
/// exactly one owner tile (`windowPolygonsOwnedBy`, the same
/// window-clamped lower-left rule the rects use), so a boundary-spanning
/// piece is never re-emitted per touching tile.
///
/// A View can also be opened over a `cell::HierIndex` instead of a full
/// flatten: the constructor resolves ONLY the placements whose bounding
/// boxes touch the window (plus the residual geometry in the window)
/// into a private FlatLayout, so a viewport over an NxN array
/// materializes O(window) geometry, never the whole flatten. The
/// index's instance-materialization counter records how many placements
/// were resolved — the svc viewport tests assert through it.

#pragma once

#include "cell/flatten.hpp"
#include "cell/hier_index.hpp"
#include "core/once_slot.hpp"
#include "geom/geometry.hpp"

#include <memory>

#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace bb::layout {

/// Window/tile/merge parameters for a View. `reps::EmitterOptions`
/// extends it, so the same fields drive every registered emitter.
struct ViewOptions {
  /// Viewport in layout coordinates. Unset: the whole artwork
  /// (`flat.bbox()`), i.e. full-chip emission.
  std::optional<geom::Rect> window;
  /// Tile pitch of the streaming grid. 0: one tile covering the window.
  geom::Coord tileSize = 0;
  /// Merge each tile's rects into disjoint maximal pieces
  /// (`sweep::unionRects`), clipped to the tile. Off: original rects.
  bool merge = false;
};

class View {
 public:
  /// `flat` must outlive the View (it is not copied). Building a View is
  /// cheap; the per-layer indexes are built lazily by FlatLayout on the
  /// first query of each layer, and a whole-artwork view makes none.
  explicit View(const cell::FlatLayout& flat, ViewOptions opts = {});

  /// Open a view over hierarchical artwork WITHOUT flattening it: only
  /// the residual geometry inside the window plus the placements whose
  /// world bboxes touch the window are materialized (into a private
  /// layout this View owns), and `hier.noteMaterialized` records how
  /// many placements were resolved. `hier` may be released after
  /// construction. An unset `opts.window` views `hier.bbox()` — the
  /// full-chip case, equivalent to a flat View but still built from
  /// per-unit index queries.
  explicit View(const cell::HierIndex& hier, ViewOptions opts = {});

  [[nodiscard]] const cell::FlatLayout& flat() const noexcept { return *flat_; }
  [[nodiscard]] const geom::Rect& window() const noexcept { return window_; }
  [[nodiscard]] bool merged() const noexcept { return opts_.merge; }
  /// What a writer sizes its output from: the artwork's shape count for
  /// a view with no window set, and 0 for a windowed one, so a small
  /// viewport never reserves for the whole die.
  [[nodiscard]] std::size_t shapeCountHint() const noexcept {
    return opts_.window ? 0 : flat_->totalCount();
  }

  [[nodiscard]] std::size_t tilesX() const noexcept { return tilesX_; }
  [[nodiscard]] std::size_t tilesY() const noexcept { return tilesY_; }
  [[nodiscard]] std::size_t tileCount() const noexcept { return tilesX_ * tilesY_; }
  /// Tile (tx, ty)'s cell, clipped to the window (the last row/column
  /// absorbs the remainder, so tiles partition the window exactly).
  [[nodiscard]] geom::Rect tileRect(std::size_t tx, std::size_t ty) const noexcept;

  /// Stream layer `l` tile by tile in deterministic order: rows bottom-up,
  /// tiles left-to-right within a row. `fn(tx, ty, rects)` — `rects` is a
  /// scratch buffer reused across tiles (copy what must outlive the call).
  /// Unmerged: original rects touching the window, each exactly once,
  /// ascending source order within a tile. Merged: disjoint maximal
  /// pieces of the tile-clipped union. A whole-artwork view hands `fn`
  /// the layer vector itself, with no index query.
  using TileFn =
      std::function<void(std::size_t tx, std::size_t ty, const std::vector<geom::Rect>&)>;
  void forEachTile(tech::Layer l, const TileFn& fn) const;

  /// `forEachTile` with the per-tile *collection* (index query, corner
  /// filtering or clip+union) fanned out over the process-shared
  /// `core::ThreadPool` into per-worker buffers. `fn` itself still runs
  /// sequentially on the calling thread, in exactly `forEachTile`'s
  /// deterministic tile order, so the streamed output is byte-identical
  /// to the sequential walk — the writers switch between the two freely.
  /// Single-tile views (the full-chip emission default) take the
  /// sequential path unchanged; safe to call from inside a pool task
  /// (nested parallelism shares the one pool budget).
  void forEachTileParallel(tech::Layer l, const TileFn& fn) const;

  /// Layer `l`'s whole windowed geometry in one vector, in tile order
  /// (the streaming order flattened).
  [[nodiscard]] std::vector<geom::Rect> rectsOn(tech::Layer l) const;
  /// The same rects without a copy where the View has them whole: a
  /// whole-artwork view hands back the layer vector itself; any other
  /// view collects its tiles once (as `forEachTileParallel` does) into
  /// `scratch` and hands that back. The span is valid while the View's
  /// artwork and `scratch` live unchanged.
  [[nodiscard]] std::span<const geom::Rect> rectsOn(tech::Layer l,
                                                    std::vector<geom::Rect>& scratch) const;

  /// The window's polygon geometry in source order: window-crossing
  /// polygons are replaced by their window-clipped pieces (fully-inside
  /// polygons verbatim, zero-area grazers dropped). Built once on first
  /// use and cached (thread-safe); the returned reference lives as long
  /// as the View.
  [[nodiscard]] const std::vector<std::pair<tech::Layer, geom::Polygon>>& windowPolygons()
      const;

  /// `windowPolygons()` restricted to the pieces OWNED by tile (tx, ty)
  /// — the tile containing the piece bbox's window-clamped lower-left
  /// corner, exactly the rect owner rule — so a tiled writer emits each
  /// piece exactly once. Pointers reference the `windowPolygons` cache.
  [[nodiscard]] std::vector<std::pair<tech::Layer, const geom::Polygon*>>
  windowPolygonsOwnedBy(std::size_t tx, std::size_t ty) const;

 private:
  /// Tile column/row owning window-clamped coordinate `v` along an axis
  /// starting at `lo` with `count` tiles of pitch `pitch`.
  [[nodiscard]] static std::size_t tileOf(geom::Coord v, geom::Coord lo, geom::Coord pitch,
                                          std::size_t count) noexcept;

  /// Collect tile (tx, ty)'s geometry for layer index `idx` into `out`
  /// (`cand`/`clipped` are caller scratch). The shared kernel of the
  /// sequential and parallel tile walks; const reads only, so distinct
  /// tiles collect concurrently.
  void collectTile(const geom::RectIndex& idx, std::size_t tx, std::size_t ty,
                   std::vector<int>& cand, std::vector<geom::Rect>& clipped,
                   std::vector<geom::Rect>& out) const;

  /// Size the tile grid from `window_` (shared by both constructors).
  void initGrid() noexcept;

  /// Layer `l`'s vector when this view is its whole-artwork walk, read
  /// in place; null when the view must query the layer's index.
  [[nodiscard]] const std::vector<geom::Rect>* inPlace(tech::Layer l) const;

  const cell::FlatLayout* flat_;
  /// Set by the HierIndex constructor: the window-resolved geometry this
  /// View materialized and owns (`flat_` points at it).
  std::shared_ptr<const cell::FlatLayout> owned_;
  ViewOptions opts_;
  geom::Rect window_;
  geom::Coord pitchX_ = 1, pitchY_ = 1;
  std::size_t tilesX_ = 1, tilesY_ = 1;
  /// Lazily-built window polygon pieces (see `windowPolygons`), safe for
  /// concurrent emitters sharing one View.
  core::OnceSlot<std::vector<std::pair<tech::Layer, geom::Polygon>>> pieces_;
};

}  // namespace bb::layout
