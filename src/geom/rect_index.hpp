/// \file rect_index.hpp
/// Grid-bucket spatial index over a fixed set of rectangles.
///
/// Every geometric kernel in the pipeline — DRC spacing/width checks,
/// extraction's net-piece merging, connectivity — asks the same question:
/// "which rectangles touch (or come within `m` of) this one?". Answering
/// it by scanning the whole layer makes full-chip checks quadratic in the
/// rect count. `RectIndex` buckets the rects on a uniform grid sized from
/// the average feature extent, so each query inspects only the handful of
/// cells the query window overlaps and runs in (near-)constant time.
///
/// Queries return indices in ascending order, deduplicated and exactly
/// filtered, so a consumer that switches a brute-force scan over to the
/// index visits the same rects in the same order — indexed and brute
/// results stay bit-identical (the equivalence tests assert this).
///
/// The index borrows the rects: it keeps a view of the caller's vector,
/// which must outlive the index and stay unchanged while it is queried
/// (a `cell::FlatLayout` drops a layer's index before it hands that
/// layer out for mutation). Indexing a temporary vector does not compile.
/// Queries are const and touch no mutable state, so a built index can be
/// shared across threads.
///
/// The rects sit on `detail::BucketGrid` (bucket_grid.hpp), the grid
/// `SegmentIndex` shares: a power-of-two pitch, so a query maps its
/// window to cells with shifts, and home-cell flag bits that de-duplicate
/// rects spanning several cells. It caps an index at 2^30 rects; larger
/// inputs throw `std::length_error`.

#pragma once

#include "geom/bucket_grid.hpp"
#include "geom/geometry.hpp"

#include <span>
#include <vector>

namespace bb::geom {

class RectIndex {
 public:
  /// An empty index (all queries return nothing).
  RectIndex() = default;

  /// Index `rects`, borrowed (see the file note). The grid pitch is the
  /// smallest power of two >= the average rect extent, or >= `cellSize`
  /// when one is given, doubled until the grid has at most ~4 cells per
  /// rect; `cellSize()` reports it. Throws `std::length_error` for more
  /// than 2^30 rects.
  explicit RectIndex(std::span<const Rect> rects, Coord cellSize = 0);
  RectIndex(std::vector<Rect>&&, Coord = 0) = delete;  ///< would dangle

  [[nodiscard]] std::size_t size() const noexcept { return rects_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rects_.empty(); }
  [[nodiscard]] const Rect& rect(std::size_t i) const noexcept { return rects_[i]; }
  [[nodiscard]] Coord cellSize() const noexcept { return grid_.pitch(); }

  /// Resident-size estimate: the CSR bucket arrays (the rects are the
  /// caller's).
  [[nodiscard]] std::size_t approxBytes() const noexcept { return grid_.approxBytes(); }

  /// Indices of all rects that touch `q` (shared edges/corners count —
  /// the electrical-connectivity predicate). Ascending, deduplicated.
  [[nodiscard]] std::vector<int> queryTouching(const Rect& q) const;
  /// Scratch-buffer overload for hot loops (clears `out` first).
  void queryTouching(const Rect& q, std::vector<int>& out) const;

  /// Indices of all rects within Chebyshev distance `margin` of `q`
  /// (gap <= margin, where gap is the larger of the axis separations —
  /// the DRC spacing metric). `margin` 0 is `queryTouching`.
  [[nodiscard]] std::vector<int> queryWithin(const Rect& q, Coord margin) const;
  void queryWithin(const Rect& q, Coord margin, std::vector<int>& out) const;

 private:
  std::span<const Rect> rects_;
  detail::BucketGrid grid_;
};

/// Reference O(n^2) all-pairs connected components (the pre-index
/// implementation). Kept for the equivalence tests and scaling benches;
/// production code calls `connectedComponents`, which routes through a
/// RectIndex and produces bit-identical component labels.
[[nodiscard]] RectComponents connectedComponentsBrute(const std::vector<Rect>& rs);

}  // namespace bb::geom
