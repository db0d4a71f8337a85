/// \file bucket_grid.hpp
/// The uniform bucket grid under `RectIndex` and `SegmentIndex`
/// (internal: use it through those two classes).
///
/// Items are bucketed by bounding box into every grid cell the box
/// overlaps, in CSR form: `start_` holds per-cell offsets into `items_`.
/// The pitch is a power of two, so a coordinate maps to its cell with an
/// arithmetic shift, `(x - origin) >> shift`, which C++20 defines as the
/// floor for offsets left of or below the origin too. No query and no
/// per-item pass of a build divides.
///
/// A box spanning several cells is bucketed in each of them. Each entry
/// carries two flag bits beside the item index: "this cell is in the
/// box's first column" and "... first row". A query reports an entry only
/// in its first cell inside the window, `(homeCol || gx == qx0) &&
/// (homeRow || gy == qy0)`, so de-duplication needs no arithmetic and no
/// per-item side array. The flags take the top two bits of a 32-bit entry,
/// which caps a grid at 2^30 items; larger inputs throw
/// `std::length_error`.

#pragma once

#include "geom/geometry.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace bb::geom::detail {

class BucketGrid {
 public:
  /// An empty grid (every query returns nothing).
  BucketGrid() = default;

  /// Bucket items 0..n-1 by the boxes `boxOf(i)` returns. The pitch is
  /// `cellSize` rounded up to a power of two, or, for `cellSize` == 0,
  /// the smallest power of two >= the average box extent, so a typical
  /// item lands in O(1) cells and a typical cell holds O(1) items.
  /// Either way it doubles until the grid has at most ~4 cells per item,
  /// so degenerate inputs (one huge box among thousands of tiny ones)
  /// cannot blow up memory.
  template <typename BoxOf>
  BucketGrid(std::size_t n, Coord cellSize, BoxOf boxOf);

  /// The grid pitch in use (1 for an empty grid).
  [[nodiscard]] Coord pitch() const noexcept { return Coord{1} << shift_; }

  /// Resident size of the CSR arrays.
  [[nodiscard]] std::size_t approxBytes() const noexcept {
    return (start_.size() + items_.size()) * sizeof(std::uint32_t);
  }

  /// Clear `out`, then append each item `i` whose cells overlap `q` and
  /// for which `keep(i)` holds: once each, in ascending order.
  template <typename Keep>
  void query(const Rect& q, std::vector<int>& out, Keep keep) const;

 private:
  static constexpr std::uint32_t kHomeCol = 1u << 31;
  static constexpr std::uint32_t kHomeRow = 1u << 30;
  static constexpr std::uint32_t kIndexMask = kHomeRow - 1;

  [[nodiscard]] std::int64_t col(Coord x) const noexcept { return (x - ox_) >> shift_; }
  [[nodiscard]] std::int64_t row(Coord y) const noexcept { return (y - oy_) >> shift_; }

  Coord ox_ = 0, oy_ = 0;  ///< grid origin (lower-left of the items' bbox)
  int shift_ = 0;          ///< log2 of the pitch
  std::int64_t nx_ = 0, ny_ = 0;
  std::vector<std::uint32_t> start_;  ///< CSR offsets, nx*ny + 1
  /// Bucketed entries: item index in the low 30 bits, home-column and
  /// home-row flags in the top two (see the file note).
  std::vector<std::uint32_t> items_;
};

template <typename BoxOf>
BucketGrid::BucketGrid(std::size_t n, Coord cellSize, BoxOf boxOf) {
  if (n == 0) return;
  if (n > std::size_t{kIndexMask} + 1) {
    throw std::length_error("spatial index: more than 2^30 items");
  }
  // One pass for the bbox and the summed extents. Direct min/max, not
  // Rect::unionWith, which would drop zero-area boxes (points and
  // axis-parallel segments).
  Rect bb = boxOf(0);
  Coord ext = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Rect b = boxOf(i);
    bb.x0 = std::min(bb.x0, b.x0);
    bb.y0 = std::min(bb.y0, b.y0);
    bb.x1 = std::max(bb.x1, b.x1);
    bb.y1 = std::max(bb.y1, b.y1);
    ext += b.width() + b.height();
  }
  ox_ = bb.x0;
  oy_ = bb.y0;
  const Coord want =
      cellSize > 0 ? cellSize : std::max<Coord>(ext / static_cast<Coord>(2 * n), 1);
  // Capped at 2^62, where any bbox is at most 2x2 cells.
  shift_ = std::min(static_cast<int>(std::bit_width(static_cast<std::uint64_t>(want - 1))), 62);
  const auto maxCells = static_cast<std::int64_t>(4 * n + 64);
  for (;; ++shift_) {
    nx_ = col(bb.x1) + 1;
    ny_ = row(bb.y1) + 1;
    if (nx_ <= maxCells / ny_) break;
  }

  // `f(cell, flags)` for every cell box i overlaps, flags marking the
  // cells in its first column and first row.
  const auto forCells = [&](std::size_t i, auto&& f) {
    const Rect b = boxOf(i);
    const std::int64_t cx0 = col(b.x0), cx1 = col(b.x1);
    const std::int64_t cy0 = row(b.y0), cy1 = row(b.y1);
    for (std::int64_t gy = cy0; gy <= cy1; ++gy) {
      const std::uint32_t homeRow = gy == cy0 ? kHomeRow : 0;
      for (std::int64_t gx = cx0; gx <= cx1; ++gx) {
        f(static_cast<std::size_t>(gy * nx_ + gx), homeRow | (gx == cx0 ? kHomeCol : 0));
      }
    }
  };
  // CSR fill: count entries per cell into start_[c + 1], prefix-sum, then
  // place each entry at start_[c]++. That leaves start_[c] at cell c's
  // end, which is cell c + 1's begin, so one shift right restores the
  // offsets without a second offsets array.
  start_.assign(static_cast<std::size_t>(nx_ * ny_) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    forCells(i, [&](std::size_t c, std::uint32_t) { ++start_[c + 1]; });
  }
  std::partial_sum(start_.begin(), start_.end(), start_.begin());
  items_.resize(start_.back());
  for (std::size_t i = 0; i < n; ++i) {
    forCells(i, [&](std::size_t c, std::uint32_t flags) {
      items_[start_[c]++] = static_cast<std::uint32_t>(i) | flags;
    });
  }
  std::copy_backward(start_.begin(), start_.end() - 1, start_.end());
  start_[0] = 0;
}

template <typename Keep>
void BucketGrid::query(const Rect& q, std::vector<int>& out, Keep keep) const {
  out.clear();
  if (items_.empty()) return;
  // Clamp the window to the grid; anything outside holds no items.
  const std::int64_t qx0 = std::max<std::int64_t>(col(q.x0), 0);
  const std::int64_t qx1 = std::min<std::int64_t>(col(q.x1), nx_ - 1);
  const std::int64_t qy0 = std::max<std::int64_t>(row(q.y0), 0);
  const std::int64_t qy1 = std::min<std::int64_t>(row(q.y1), ny_ - 1);
  for (std::int64_t gy = qy0; gy <= qy1; ++gy) {
    const std::uint32_t needRow = gy == qy0 ? 0 : kHomeRow;
    for (std::int64_t gx = qx0; gx <= qx1; ++gx) {
      const std::uint32_t need = needRow | (gx == qx0 ? 0 : kHomeCol);
      const auto c = static_cast<std::size_t>(gy * nx_ + gx);
      for (std::uint32_t k = start_[c]; k < start_[c + 1]; ++k) {
        const std::uint32_t e = items_[k];
        if ((e & need) != need) continue;
        const std::uint32_t i = e & kIndexMask;
        if (keep(i)) out.push_back(static_cast<int>(i));
      }
    }
  }
  // Ascending order so consumers visit items exactly as a brute scan
  // would: equivalence with the reference paths is order-for-order.
  std::sort(out.begin(), out.end());
}

}  // namespace bb::geom::detail
