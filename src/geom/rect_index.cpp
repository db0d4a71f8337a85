#include "geom/rect_index.hpp"

#include <numeric>

namespace bb::geom {

RectIndex::RectIndex(std::span<const Rect> rects, Coord cellSize)
    : rects_(rects), grid_(rects.size(), cellSize, [rects](std::size_t i) { return rects[i]; }) {}

void RectIndex::queryTouching(const Rect& q, std::vector<int>& out) const {
  grid_.query(q, out, [&](std::uint32_t i) { return rects_[i].touches(q); });
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
