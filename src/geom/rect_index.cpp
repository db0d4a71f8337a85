#include "geom/rect_index.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace bb::geom {

namespace {

/// Floor division for possibly-negative offsets.
constexpr Coord floorDiv(Coord v, Coord d) noexcept {
  return v >= 0 ? v / d : -((-v + d - 1) / d);
}

/// Entry flags: the cell lies in the rect's first grid column / row.
constexpr std::uint32_t kHomeCol = 1u << 31;
constexpr std::uint32_t kHomeRow = 1u << 30;
constexpr std::uint32_t kIndexMask = kHomeRow - 1;

}  // namespace

RectIndex::RectIndex(std::span<const Rect> rects, Coord cellSize)
    : rects_(rects), cs_(cellSize) {
  build();
}

void RectIndex::build() {
  const std::size_t n = rects_.size();
  if (n == 0) {
    cs_ = 1;
    return;
  }
  if (n > std::size_t{kIndexMask} + 1) {
    throw std::length_error("RectIndex: more than 2^30 rects");
  }
  const Rect bb = bboxOf(rects_);
  ox_ = bb.x0;
  oy_ = bb.y0;

  if (cs_ <= 0) {
    // Pitch the grid at the average rect extent so a typical feature
    // lands in O(1) cells and a typical cell holds O(1) features.
    Coord ext = 0;
    for (const Rect& r : rects_) ext += r.width() + r.height();
    cs_ = std::max<Coord>(ext / static_cast<Coord>(2 * n), 1);
  }
  // Cap the grid at ~4 cells per rect so degenerate inputs (one huge
  // bbox, thousands of tiny rects) cannot blow up memory.
  const std::int64_t maxCells = static_cast<std::int64_t>(4 * n + 64);
  for (;;) {
    nx_ = static_cast<std::int64_t>((bb.x1 - ox_) / cs_) + 1;
    ny_ = static_cast<std::int64_t>((bb.y1 - oy_) / cs_) + 1;
    if (nx_ * ny_ <= maxCells) break;
    cs_ *= 2;
  }

  // CSR fill: count entries per cell, prefix-sum, then place.
  start_.assign(static_cast<std::size_t>(nx_ * ny_) + 1, 0);
  // `f(cell, flags)` for every cell `r` overlaps, flags marking the
  // cells in its first column and first row.
  auto cellRange = [&](const Rect& r, auto&& f) {
    const Coord gx0 = gridX(r.x0), gx1 = gridX(r.x1);
    const Coord gy0 = gridY(r.y0), gy1 = gridY(r.y1);
    for (Coord gy = gy0; gy <= gy1; ++gy) {
      const std::uint32_t row = gy == gy0 ? kHomeRow : 0;
      for (Coord gx = gx0; gx <= gx1; ++gx) {
        f(static_cast<std::size_t>(gy * nx_ + gx), row | (gx == gx0 ? kHomeCol : 0));
      }
    }
  };
  for (const Rect& r : rects_) {
    cellRange(r, [&](std::size_t c, std::uint32_t) { ++start_[c + 1]; });
  }
  std::partial_sum(start_.begin(), start_.end(), start_.begin());
  items_.resize(start_.back());
  std::vector<std::uint32_t> fill(start_.begin(), start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    cellRange(rects_[i], [&](std::size_t c, std::uint32_t flags) {
      items_[fill[c]++] = static_cast<std::uint32_t>(i) | flags;
    });
  }
}

Coord RectIndex::gridX(Coord x) const noexcept { return floorDiv(x - ox_, cs_); }
Coord RectIndex::gridY(Coord y) const noexcept { return floorDiv(y - oy_, cs_); }

void RectIndex::queryTouching(const Rect& q, std::vector<int>& out) const {
  out.clear();
  if (rects_.empty()) return;
  // Clamp the query window to the grid; anything outside holds no rects.
  const Coord qx0 = std::max<Coord>(gridX(q.x0), 0);
  const Coord qx1 = std::min<Coord>(gridX(q.x1), nx_ - 1);
  const Coord qy0 = std::max<Coord>(gridY(q.y0), 0);
  const Coord qy1 = std::min<Coord>(gridY(q.y1), ny_ - 1);
  // A rect spanning several query cells would be reported once per cell;
  // only its first cell inside the window reports it — in its home column
  // or the window's first, and likewise for rows — so the flag bits
  // de-duplicate without a division per candidate. This keeps queries
  // stateless (and therefore thread-safe).
  for (Coord gy = qy0; gy <= qy1; ++gy) {
    const std::uint32_t needRow = gy == qy0 ? 0 : kHomeRow;
    for (Coord gx = qx0; gx <= qx1; ++gx) {
      const std::uint32_t need = needRow | (gx == qx0 ? 0 : kHomeCol);
      const std::size_t c = static_cast<std::size_t>(gy * nx_ + gx);
      for (std::uint32_t k = start_[c]; k < start_[c + 1]; ++k) {
        const std::uint32_t e = items_[k];
        if ((e & need) != need) continue;
        const std::uint32_t i = e & kIndexMask;
        if (rects_[i].touches(q)) out.push_back(static_cast<int>(i));
      }
    }
  }
  // Ascending order so consumers visit rects exactly as a brute scan
  // would — equivalence with the reference paths is order-for-order.
  std::sort(out.begin(), out.end());
}

std::vector<int> RectIndex::queryTouching(const Rect& q) const {
  std::vector<int> out;
  queryTouching(q, out);
  return out;
}

void RectIndex::queryWithin(const Rect& q, Coord margin, std::vector<int>& out) const {
  // gap(a,b) <= m  <=>  a touches b expanded by m on every side.
  queryTouching(q.expandedXY(margin, margin), out);
}

std::vector<int> RectIndex::queryWithin(const Rect& q, Coord margin) const {
  std::vector<int> out;
  queryWithin(q, margin, out);
  return out;
}

namespace {

/// Path-halving union-find shared by both component implementations.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int a) noexcept {
    while (parent_[static_cast<std::size_t>(a)] != a) {
      parent_[static_cast<std::size_t>(a)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(a)])];
      a = parent_[static_cast<std::size_t>(a)];
    }
    return a;
  }
  void unite(int a, int b) noexcept {
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(a)] = b;
  }

 private:
  std::vector<int> parent_;
};

/// Number components by first-appearance order of their members. Any
/// union order over the same partition yields identical labels, which is
/// what makes indexed and brute results comparable bit-for-bit.
RectComponents label(UnionFind& uf, std::size_t n) {
  RectComponents rc;
  rc.componentOf.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const int root = uf.find(static_cast<int>(i));
    if (rc.componentOf[static_cast<std::size_t>(root)] < 0) {
      rc.componentOf[static_cast<std::size_t>(root)] = rc.count++;
    }
    rc.componentOf[i] = rc.componentOf[static_cast<std::size_t>(root)];
  }
  return rc;
}

}  // namespace

RectComponents connectedComponentsBrute(const std::vector<Rect>& rs) {
  const std::size_t n = rs.size();
  UnionFind uf(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rs[i].touches(rs[j])) uf.unite(static_cast<int>(i), static_cast<int>(j));
    }
  }
  return label(uf, n);
}

RectComponents connectedComponents(const std::vector<Rect>& rs) {
  const std::size_t n = rs.size();
  if (n <= 32) return connectedComponentsBrute(rs);  // not worth a grid
  const RectIndex idx(rs);
  UnionFind uf(n);
  std::vector<int> touching;
  for (std::size_t i = 0; i < n; ++i) {
    idx.queryTouching(rs[i], touching);
    for (int j : touching) {
      if (j > static_cast<int>(i)) uf.unite(static_cast<int>(i), j);
    }
  }
  return label(uf, n);
}

}  // namespace bb::geom
