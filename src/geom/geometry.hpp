/// \file geometry.hpp
/// Integer-grid geometry primitives for mask layout.
///
/// All coordinates are integers on a quarter-lambda grid
/// (`kUnitsPerLambda` units == one Mead–Conway lambda). Using a fixed
/// integer grid keeps every geometric predicate exact — there is no
/// floating point anywhere in the layout pipeline, mirroring the CIF
/// convention of integer centimicrons.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace bb::geom {

/// Layout coordinate. 64-bit so chip-scale sums (wire lengths, areas in
/// units^2) never overflow.
using Coord = std::int64_t;

/// The coordinate range an imported deck may use: every operand of a
/// CIF `B`, `W` or `P` command and every `C ... T` offset lies in
/// [-2^30, 2^30]. Within it a box's corners and sides (< 2^31) and its
/// area (< 2^62) fit in `Coord`, and every coordinate fits GDSII's
/// 4-byte fields.
inline constexpr Coord kCoordLimit = Coord{1} << 30;

/// Grid resolution: 4 units per lambda (quarter-lambda grid).
inline constexpr Coord kUnitsPerLambda = 4;

/// Convert a lambda count to grid units.
[[nodiscard]] constexpr Coord lambda(Coord n) noexcept { return n * kUnitsPerLambda; }

/// Convert half-lambdas to grid units (many Mead–Conway features sit on
/// half-lambda centers).
[[nodiscard]] constexpr Coord halfLambda(Coord n) noexcept { return n * (kUnitsPerLambda / 2); }

/// A point on the layout grid.
struct Point {
  Coord x = 0;
  Coord y = 0;

  friend constexpr bool operator==(const Point&, const Point&) = default;
  constexpr Point operator+(Point o) const noexcept { return {x + o.x, y + o.y}; }
  constexpr Point operator-(Point o) const noexcept { return {x - o.x, y - o.y}; }
  constexpr Point& operator+=(Point o) noexcept { x += o.x; y += o.y; return *this; }
  constexpr Point& operator-=(Point o) noexcept { x -= o.x; y -= o.y; return *this; }
};

/// Floor-halve: rounds toward -inf, unlike `/ 2` which truncates toward
/// zero. Midpoints computed this way are translation-invariant — a cell
/// placed in negative coordinate space gets the same (relative) center
/// as its positive-space twin. C++20 guarantees arithmetic shift on
/// signed integers.
[[nodiscard]] constexpr Coord floorHalf(Coord v) noexcept { return v >> 1; }

/// Manhattan distance between two points — the wire-length metric used by
/// the Roto-Router.
[[nodiscard]] constexpr Coord manhattan(Point a, Point b) noexcept {
  const Coord dx = a.x > b.x ? a.x - b.x : b.x - a.x;
  const Coord dy = a.y > b.y ? a.y - b.y : b.y - a.y;
  return dx + dy;
}

/// An axis-aligned rectangle, stored normalized (x0<=x1, y0<=y1).
/// Empty rectangles (zero width or height) are representable; `isEmpty`
/// reports them.
struct Rect {
  Coord x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  Rect() = default;
  constexpr Rect(Coord ax0, Coord ay0, Coord ax1, Coord ay1) noexcept
      : x0(std::min(ax0, ax1)), y0(std::min(ay0, ay1)),
        x1(std::max(ax0, ax1)), y1(std::max(ay0, ay1)) {}

  /// Rectangle from center point, width and height (CIF "B" semantics).
  [[nodiscard]] static constexpr Rect fromCenter(Point c, Coord w, Coord h) noexcept {
    return Rect{c.x - w / 2, c.y - h / 2, c.x + w - w / 2, c.y + h - h / 2};
  }

  friend constexpr bool operator==(const Rect&, const Rect&) = default;

  [[nodiscard]] constexpr Coord width() const noexcept { return x1 - x0; }
  [[nodiscard]] constexpr Coord height() const noexcept { return y1 - y0; }
  [[nodiscard]] constexpr Coord area() const noexcept { return width() * height(); }
  [[nodiscard]] constexpr bool isEmpty() const noexcept { return x0 >= x1 || y0 >= y1; }
  /// Midpoint, rounded toward -inf on odd extents so the result is
  /// translation-invariant (plain `/ 2` would bias negative-space rects
  /// up/right relative to positive-space ones).
  [[nodiscard]] constexpr Point center() const noexcept {
    return {floorHalf(x0 + x1), floorHalf(y0 + y1)};
  }

  /// True if the interiors overlap (shared edges do not count).
  [[nodiscard]] constexpr bool overlaps(const Rect& o) const noexcept {
    return x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1;
  }
  /// True if the rectangles touch or overlap (shared edges count) —
  /// the electrical-connectivity predicate.
  [[nodiscard]] constexpr bool touches(const Rect& o) const noexcept {
    return x0 <= o.x1 && o.x0 <= x1 && y0 <= o.y1 && o.y0 <= y1;
  }
  [[nodiscard]] constexpr bool contains(Point p) const noexcept {
    return p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1;
  }
  [[nodiscard]] constexpr bool contains(const Rect& o) const noexcept {
    return o.x0 >= x0 && o.x1 <= x1 && o.y0 >= y0 && o.y1 <= y1;
  }

  [[nodiscard]] constexpr Rect translated(Point d) const noexcept {
    return Rect{x0 + d.x, y0 + d.y, x1 + d.x, y1 + d.y};
  }
  /// Grow by `m` on every side (negative shrinks; may produce empty).
  [[nodiscard]] Rect expanded(Coord m) const noexcept;
  /// Grow by `dx` horizontally and `dy` vertically (negative shrinks;
  /// an over-shrunk axis collapses to its midline). The margin-query
  /// primitive of the spatial index: `a.gap(b) <= m` is exactly
  /// `a.touches(b.expandedXY(m, m))`.
  [[nodiscard]] constexpr Rect expandedXY(Coord dx, Coord dy) const noexcept {
    Rect r;
    r.x0 = x0 - dx;
    r.y0 = y0 - dy;
    r.x1 = x1 + dx;
    r.y1 = y1 + dy;
    if (r.x0 > r.x1) r.x0 = r.x1 = floorHalf(x0 + x1);
    if (r.y0 > r.y1) r.y0 = r.y1 = floorHalf(y0 + y1);
    return r;
  }

  /// Smallest rectangle covering both (treats empty as identity).
  /// Inline: `FlatLayout::bbox()` folds every rect of a layout through it.
  [[nodiscard]] constexpr Rect unionWith(const Rect& o) const noexcept {
    if (isEmpty()) return o;
    if (o.isEmpty()) return *this;
    Rect r;
    r.x0 = std::min(x0, o.x0);
    r.y0 = std::min(y0, o.y0);
    r.x1 = std::max(x1, o.x1);
    r.y1 = std::max(y1, o.y1);
    return r;
  }
  /// Overlap region, or nullopt when interiors are disjoint.
  [[nodiscard]] std::optional<Rect> intersectWith(const Rect& o) const noexcept;
};

/// A simple polygon (implicitly closed, vertices in order).
/// Bristle Blocks cells are overwhelmingly rectilinear but CIF permits
/// arbitrary polygons, so we keep the general form.
struct Polygon {
  std::vector<Point> pts;

  [[nodiscard]] Rect bbox() const noexcept;
  /// Signed area * 2 (shoelace); positive for counter-clockwise.
  [[nodiscard]] Coord signedDoubleArea() const noexcept;
  [[nodiscard]] Coord area() const noexcept;
  [[nodiscard]] Polygon translated(Point d) const;
  [[nodiscard]] bool contains(Point p) const noexcept;
};

/// A wire: an open poly-line with a width (CIF "W" semantics, square
/// extensions at the ends). Segments are expected to be axis-parallel;
/// `toRects` decomposes the path into covering rectangles.
struct Path {
  std::vector<Point> pts;
  Coord width = 0;

  [[nodiscard]] Rect bbox() const noexcept;
  /// Total centerline length (Manhattan).
  [[nodiscard]] Coord length() const noexcept;
  /// Decompose into axis-aligned rectangles (one per segment, with
  /// half-width square end extensions so corners are covered).
  [[nodiscard]] std::vector<Rect> toRects() const;
  [[nodiscard]] Path translated(Point d) const;
};

/// Compute the bounding box of a set of rectangles (empty input -> empty rect).
[[nodiscard]] Rect bboxOf(std::span<const Rect> rs) noexcept;

/// Merge touching/overlapping rectangles into maximal disjoint regions
/// ("connected components" under `touches`). Returns one representative
/// bbox per component plus component membership. Used by extraction.
/// Near-linear via a RectIndex (see rect_index.hpp, which also declares
/// the reference `connectedComponentsBrute` the equivalence tests use).
struct RectComponents {
  std::vector<int> componentOf;   ///< component index per input rect
  int count = 0;                  ///< number of components
};
[[nodiscard]] RectComponents connectedComponents(const std::vector<Rect>& rs);

/// Exact area of the union of rectangles. O(n log n): an x-event sweep
/// over a y-compressed coverage-count tree (see sweep.hpp, which also
/// provides union decomposition and coverage-gap queries). Used for
/// utilization metrics and the DRC coverage checks. Non-destructive:
/// empty rects are skipped in place, so callers can reuse their vector
/// (and its capacity) across calls.
[[nodiscard]] Coord unionArea(const std::vector<Rect>& rs);

/// Reference O(n^2) slab-scan union area (the pre-sweep implementation,
/// kept verbatim). The equivalence tests and `bench_union_scaling`
/// assert it matches `unionArea` bit-for-bit on every run; DRC's
/// `useSpatialIndex = false` reference path still calls it.
[[nodiscard]] Coord unionAreaBrute(const std::vector<Rect>& rs);

[[nodiscard]] std::string toString(Point p);
[[nodiscard]] std::string toString(const Rect& r);

}  // namespace bb::geom
