/// \file segment_index.hpp
/// Grid-bucket spatial index over a fixed set of line segments —
/// `RectIndex`'s sibling for polygon edges (CuraEngine's SparseLineGrid
/// fills this role there).
///
/// The polygon DRC probes and the clip/offset benches ask "which edges
/// touch (or come within `m` of) this window?". `SegmentIndex` buckets
/// each segment into every grid cell its bbox overlaps and filters
/// candidates with an exact integer segment-vs-rect predicate, so the
/// answer is identical to a brute scan over all edges: ascending,
/// deduplicated, exactly filtered. Queries are const and touch no
/// mutable state; a built index can be shared across threads. The index
/// is a snapshot of the segments passed at construction.
///
/// It shares `RectIndex`'s grid, `detail::BucketGrid` (bucket_grid.hpp):
/// a power-of-two pitch, so a query maps its window to cells with shifts,
/// and home-cell flag bits that report a segment spanning several cells
/// once without recomputing its cells. It caps an index at 2^30
/// segments; larger inputs throw `std::length_error`.

#pragma once

#include "geom/bucket_grid.hpp"
#include "geom/geometry.hpp"

#include <vector>

namespace bb::geom {

/// One closed line segment. Degenerate (point) segments are allowed and
/// behave as their single point.
struct Segment {
  Point a, b;

  [[nodiscard]] Rect bbox() const noexcept {
    return Rect{a.x < b.x ? a.x : b.x, a.y < b.y ? a.y : b.y,
                a.x > b.x ? a.x : b.x, a.y > b.y ? a.y : b.y};
  }
  [[nodiscard]] bool operator==(const Segment& o) const noexcept {
    return a == o.a && b == o.b;
  }
};

/// The closed edge ring of `p` as segments, in vertex order (edge i runs
/// from vertex i to vertex i+1; the last closes back to vertex 0).
[[nodiscard]] std::vector<Segment> edgesOf(const Polygon& p);

/// Exact predicate: does the closed segment share at least one point
/// with the closed rect `r`? Integer orientation tests only.
[[nodiscard]] bool segmentTouchesRect(const Segment& s, const Rect& r) noexcept;

class SegmentIndex {
 public:
  /// An empty index (all queries return nothing).
  SegmentIndex() = default;

  /// Index `segs`. The grid pitch is the smallest power of two >= the
  /// average segment extent, or >= `cellSize` when one is given, doubled
  /// until the grid has at most ~4 cells per segment; `cellSize()`
  /// reports it. Throws `std::length_error` for more than 2^30 segments.
  explicit SegmentIndex(std::vector<Segment> segs, Coord cellSize = 0);

  [[nodiscard]] std::size_t size() const noexcept { return segs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return segs_.empty(); }
  [[nodiscard]] const Segment& segment(std::size_t i) const noexcept { return segs_[i]; }
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept { return segs_; }
  [[nodiscard]] Coord cellSize() const noexcept { return grid_.pitch(); }

  /// Resident-size estimate (segment snapshot + CSR bucket arrays).
  [[nodiscard]] std::size_t approxBytes() const noexcept {
    return segs_.size() * sizeof(Segment) + grid_.approxBytes();
  }

  /// Indices of all segments that touch `q` (a shared endpoint or edge
  /// crossing counts). Ascending, deduplicated, exactly filtered —
  /// identical to a brute scan, in the same order.
  [[nodiscard]] std::vector<int> queryTouching(const Rect& q) const;
  /// Scratch-buffer overload for hot loops (clears `out` first).
  void queryTouching(const Rect& q, std::vector<int>& out) const;

  /// Indices of all segments within Chebyshev distance `margin` of `q`
  /// (gap <= margin — the DRC spacing metric). `margin` 0 is
  /// `queryTouching`.
  [[nodiscard]] std::vector<int> queryWithin(const Rect& q, Coord margin) const;
  void queryWithin(const Rect& q, Coord margin, std::vector<int>& out) const;

 private:
  std::vector<Segment> segs_;
  detail::BucketGrid grid_;  ///< over the segments' bboxes
};

}  // namespace bb::geom
