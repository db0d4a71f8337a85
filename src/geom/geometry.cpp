#include "geom/geometry.hpp"

#include "geom/text_buffer.hpp"

#include <cassert>
#include <cstdlib>

namespace bb::geom {

Rect Rect::expanded(Coord m) const noexcept { return expandedXY(m, m); }

std::optional<Rect> Rect::intersectWith(const Rect& o) const noexcept {
  if (!overlaps(o)) return std::nullopt;
  Rect r;
  r.x0 = std::max(x0, o.x0);
  r.y0 = std::max(y0, o.y0);
  r.x1 = std::min(x1, o.x1);
  r.y1 = std::min(y1, o.y1);
  return r;
}

Rect Polygon::bbox() const noexcept {
  if (pts.empty()) return {};
  Rect r{pts[0].x, pts[0].y, pts[0].x, pts[0].y};
  for (const Point& p : pts) {
    r.x0 = std::min(r.x0, p.x);
    r.y0 = std::min(r.y0, p.y);
    r.x1 = std::max(r.x1, p.x);
    r.y1 = std::max(r.y1, p.y);
  }
  return r;
}

Coord Polygon::signedDoubleArea() const noexcept {
  Coord a = 0;
  const std::size_t n = pts.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& p = pts[i];
    const Point& q = pts[(i + 1) % n];
    a += p.x * q.y - q.x * p.y;
  }
  return a;
}

Coord Polygon::area() const noexcept {
  const Coord a = signedDoubleArea();
  return (a < 0 ? -a : a) / 2;
}

Polygon Polygon::translated(Point d) const {
  Polygon p;
  p.pts.reserve(pts.size());
  for (Point q : pts) p.pts.push_back(q + d);
  return p;
}

bool Polygon::contains(Point p) const noexcept {
  // Standard even-odd ray cast; points exactly on an edge count as inside
  // (connectivity must be inclusive).
  bool inside = false;
  const std::size_t n = pts.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = pts[i];
    const Point& b = pts[j];
    // On-segment check (axis-parallel or general).
    const Coord cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
    if (cross == 0 && p.x >= std::min(a.x, b.x) && p.x <= std::max(a.x, b.x) &&
        p.y >= std::min(a.y, b.y) && p.y <= std::max(a.y, b.y)) {
      return true;
    }
    if ((a.y > p.y) != (b.y > p.y)) {
      // Exact rational comparison: x-intersection vs p.x.
      const Coord num = (b.x - a.x) * (p.y - a.y);
      const Coord den = (b.y - a.y);
      // x_int = a.x + num/den ; compare p.x < x_int without division.
      const Coord lhs = (p.x - a.x) * den;
      if ((den > 0) ? (lhs < num) : (lhs > num)) inside = !inside;
    }
  }
  return inside;
}

Rect Path::bbox() const noexcept {
  if (pts.empty()) return {};
  const Coord h = width / 2;
  Rect r{pts[0].x, pts[0].y, pts[0].x, pts[0].y};
  for (const Point& p : pts) {
    r.x0 = std::min(r.x0, p.x);
    r.y0 = std::min(r.y0, p.y);
    r.x1 = std::max(r.x1, p.x);
    r.y1 = std::max(r.y1, p.y);
  }
  return r.expanded(h);
}

Coord Path::length() const noexcept {
  Coord total = 0;
  for (std::size_t i = 1; i < pts.size(); ++i) total += manhattan(pts[i - 1], pts[i]);
  return total;
}

std::vector<Rect> Path::toRects() const {
  std::vector<Rect> out;
  out.reserve(pts.size() <= 1 ? pts.size() : pts.size() - 1);
  const Coord h = width / 2;
  if (pts.size() == 1) {
    out.push_back(Rect::fromCenter(pts[0], width, width));
    return out;
  }
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const Point a = pts[i - 1];
    const Point b = pts[i];
    if (a.y == b.y) {
      // Horizontal: extend by half-width at each end (square caps).
      out.emplace_back(std::min(a.x, b.x) - h, a.y - h, std::max(a.x, b.x) + h, a.y + h);
    } else if (a.x == b.x) {
      out.emplace_back(a.x - h, std::min(a.y, b.y) - h, a.x + h, std::max(a.y, b.y) + h);
    } else {
      // Diagonal segments are not used by the generators; cover with bbox
      // so downstream passes remain conservative rather than blind.
      Rect r{a.x, a.y, b.x, b.y};
      out.push_back(r.expanded(h));
    }
  }
  return out;
}

Path Path::translated(Point d) const {
  Path p;
  p.width = width;
  p.pts.reserve(pts.size());
  for (Point q : pts) p.pts.push_back(q + d);
  return p;
}

Rect bboxOf(std::span<const Rect> rs) noexcept {
  if (rs.empty()) return {};
  // Direct min/max accumulation: no per-rect isEmpty branches, and a
  // single pass the compiler can vectorize (this runs per index build).
  Rect acc = rs[0];
  for (const Rect& r : rs) {
    acc.x0 = std::min(acc.x0, r.x0);
    acc.y0 = std::min(acc.y0, r.y0);
    acc.x1 = std::max(acc.x1, r.x1);
    acc.y1 = std::max(acc.y1, r.y1);
  }
  return acc;
}

// connectedComponents lives in rect_index.cpp (it routes through the
// spatial index; the brute reference implementation sits beside it).

// The production unionArea is the O(n log n) boundary sweep in
// sweep.cpp; this is the original O(n^2) slab scan, kept verbatim as the
// reference the equivalence tests and bench_union_scaling diff against.
Coord unionAreaBrute(const std::vector<Rect>& rs) {
  // Coordinate-compression sweep over x slabs; within a slab, merge y
  // intervals. Exact and simple; cells hold at most a few thousand rects.
  // Empty rects are skipped in place rather than erased, so the input
  // stays untouched (DRC reuses one scratch vector across calls).
  std::vector<Coord> xs;
  xs.reserve(rs.size() * 2);
  for (const Rect& r : rs) {
    if (r.isEmpty()) continue;
    xs.push_back(r.x0);
    xs.push_back(r.x1);
  }
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  Coord total = 0;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    const Coord xa = xs[i];
    const Coord xb = xs[i + 1];
    std::vector<std::pair<Coord, Coord>> spans;
    for (const Rect& r : rs) {
      if (r.isEmpty()) continue;
      if (r.x0 <= xa && r.x1 >= xb) spans.emplace_back(r.y0, r.y1);
    }
    std::sort(spans.begin(), spans.end());
    Coord covered = 0;
    Coord curLo = 0, curHi = 0;
    bool open = false;
    for (auto [lo, hi] : spans) {
      if (!open) {
        curLo = lo;
        curHi = hi;
        open = true;
      } else if (lo <= curHi) {
        curHi = std::max(curHi, hi);
      } else {
        covered += curHi - curLo;
        curLo = lo;
        curHi = hi;
      }
    }
    if (open) covered += curHi - curLo;
    total += covered * (xb - xa);
  }
  return total;
}

std::string toString(Point p) {
  TextBuffer out;
  out << '(' << p.x << ',' << p.y << ')';
  return out.take();
}

std::string toString(const Rect& r) {
  TextBuffer out;
  out << '[' << r.x0 << ',' << r.y0 << " .. " << r.x1 << ',' << r.y1 << ']';
  return out.take();
}

}  // namespace bb::geom
