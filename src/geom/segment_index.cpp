#include "geom/segment_index.hpp"

#include <algorithm>

namespace bb::geom {

namespace {

/// Orientation of c relative to the directed line a->b.
constexpr Coord cross3(Point a, Point b, Point c) noexcept {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

/// Closed segments [p1,p2] and [p3,p4] share a point (collinear overlap
/// and shared endpoints count).
[[nodiscard]] bool segmentsTouch(Point p1, Point p2, Point p3, Point p4) noexcept {
  const auto onSeg = [](Point a, Point b, Point p) noexcept {
    return std::min(a.x, b.x) <= p.x && p.x <= std::max(a.x, b.x) &&
           std::min(a.y, b.y) <= p.y && p.y <= std::max(a.y, b.y);
  };
  const Coord d1 = cross3(p3, p4, p1);
  const Coord d2 = cross3(p3, p4, p2);
  const Coord d3 = cross3(p1, p2, p3);
  const Coord d4 = cross3(p1, p2, p4);
  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
      ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) {
    return true;
  }
  if (d1 == 0 && onSeg(p3, p4, p1)) return true;
  if (d2 == 0 && onSeg(p3, p4, p2)) return true;
  if (d3 == 0 && onSeg(p1, p2, p3)) return true;
  if (d4 == 0 && onSeg(p1, p2, p4)) return true;
  return false;
}

}  // namespace

std::vector<Segment> edgesOf(const Polygon& p) {
  std::vector<Segment> out;
  const std::size_t n = p.pts.size();
  if (n < 2) return out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Segment{p.pts[i], p.pts[(i + 1) % n]});
  }
  return out;
}

bool segmentTouchesRect(const Segment& s, const Rect& r) noexcept {
  if (!s.bbox().touches(r)) return false;
  if (r.contains(s.a) || r.contains(s.b)) return true;
  // Neither endpoint inside: the segment touches iff it meets one of
  // the rect's four sides.
  const Point c00{r.x0, r.y0}, c10{r.x1, r.y0}, c11{r.x1, r.y1}, c01{r.x0, r.y1};
  return segmentsTouch(s.a, s.b, c00, c10) || segmentsTouch(s.a, s.b, c10, c11) ||
         segmentsTouch(s.a, s.b, c11, c01) || segmentsTouch(s.a, s.b, c01, c00);
}

SegmentIndex::SegmentIndex(std::vector<Segment> segs, Coord cellSize)
    : segs_(std::move(segs)),
      grid_(segs_.size(), cellSize, [this](std::size_t i) { return segs_[i].bbox(); }) {}

void SegmentIndex::queryTouching(const Rect& q, std::vector<int>& out) const {
  grid_.query(q, out, [&](std::uint32_t i) { return segmentTouchesRect(segs_[i], q); });
}

std::vector<int> SegmentIndex::queryTouching(const Rect& q) const {
  std::vector<int> out;
  queryTouching(q, out);
  return out;
}

void SegmentIndex::queryWithin(const Rect& q, Coord margin, std::vector<int>& out) const {
  // gap(s, q) <= m  <=>  s touches q expanded by m on every side.
  queryTouching(q.expandedXY(margin, margin), out);
}

std::vector<int> SegmentIndex::queryWithin(const Rect& q, Coord margin) const {
  std::vector<int> out;
  queryWithin(q, margin, out);
  return out;
}

}  // namespace bb::geom
