/// \file poly.cpp
/// Polygon engine implementation. See poly.hpp for the model: vertex
/// rings on the outside, disjoint-rect regions (sweep::unionRects
/// normal form) on the inside, exact integer arithmetic throughout.

#include "geom/poly.hpp"

#include "geom/rect_index.hpp"
#include "geom/sweep.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <utility>

namespace bb::geom {

Coord polygonDoubleArea(const Polygon& p) noexcept { return p.signedDoubleArea(); }

Coord polygonArea(const Polygon& p) noexcept { return p.area(); }

bool isCounterClockwise(const Polygon& p) noexcept { return p.signedDoubleArea() > 0; }

namespace poly {
namespace {

/// Cross product of (b - a) x (c - a): orientation of c relative to the
/// directed line a->b. Coordinates are chip-sized (well under 2^31), so
/// the products fit Coord exactly.
[[nodiscard]] Coord cross3(Point a, Point b, Point c) noexcept {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

/// p is on segment [a, b], given that a, b, p are collinear.
[[nodiscard]] bool onSegment(Point a, Point b, Point p) noexcept {
  return std::min(a.x, b.x) <= p.x && p.x <= std::max(a.x, b.x) &&
         std::min(a.y, b.y) <= p.y && p.y <= std::max(a.y, b.y);
}

/// Closed segments [p1,p2] and [p3,p4] share at least one point.
[[nodiscard]] bool segmentsIntersect(Point p1, Point p2, Point p3, Point p4) noexcept {
  const Coord d1 = cross3(p3, p4, p1);
  const Coord d2 = cross3(p3, p4, p2);
  const Coord d3 = cross3(p1, p2, p3);
  const Coord d4 = cross3(p1, p2, p4);
  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
      ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) {
    return true;
  }
  if (d1 == 0 && onSegment(p3, p4, p1)) return true;
  if (d2 == 0 && onSegment(p3, p4, p2)) return true;
  if (d3 == 0 && onSegment(p1, p2, p3)) return true;
  if (d4 == 0 && onSegment(p1, p2, p4)) return true;
  return false;
}

/// Floor division (round toward negative infinity), exact for any sign.
[[nodiscard]] Coord floorDiv(Coord n, Coord d) noexcept {
  const Coord q = n / d;
  const Coord r = n % d;
  return (r != 0 && ((r < 0) != (d < 0))) ? q - 1 : q;
}

/// Cut `holes` (all properly overlapping rects allowed) out of `base`,
/// appending the remaining fragments to `out`. The classic four-way
/// split; fragments are disjoint by construction.
void cutOut(const Rect& base, const std::vector<Rect>& holes, std::vector<Rect>& out) {
  std::vector<Rect> frags{base};
  std::vector<Rect> next;
  for (const Rect& h : holes) {
    next.clear();
    for (const Rect& f : frags) {
      if (!f.overlaps(h)) {
        next.push_back(f);
        continue;
      }
      if (f.y1 > h.y1) next.push_back(Rect{f.x0, h.y1, f.x1, f.y1});
      if (f.y0 < h.y0) next.push_back(Rect{f.x0, f.y0, f.x1, h.y0});
      const Coord my0 = std::max(f.y0, h.y0);
      const Coord my1 = std::min(f.y1, h.y1);
      if (f.x0 < h.x0) next.push_back(Rect{f.x0, my0, h.x0, my1});
      if (f.x1 > h.x1) next.push_back(Rect{h.x1, my0, f.x1, my1});
    }
    frags.swap(next);
    if (frags.empty()) return;
  }
  out.insert(out.end(), frags.begin(), frags.end());
}

/// One directed boundary edge (interior on the left).
struct DirEdge {
  Point a, b;
};

struct PointLess {
  bool operator()(Point a, Point b) const noexcept {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  }
};

/// Axis direction of a boundary edge as a unit step.
[[nodiscard]] Point dirOf(const DirEdge& e) noexcept {
  const Coord dx = e.b.x - e.a.x;
  const Coord dy = e.b.y - e.a.y;
  return Point{dx > 0 ? 1 : (dx < 0 ? -1 : 0), dy > 0 ? 1 : (dy < 0 ? -1 : 0)};
}

/// Turn preference for the boundary walk: lower is taken first. With
/// interior on the left, preferring the leftmost turn keeps rings
/// simple — at a checkerboard crossing each loop stays on its own
/// component instead of stitching the two into a figure eight.
[[nodiscard]] int turnScore(Point din, Point dout) noexcept {
  const Coord cr = din.x * dout.y - din.y * dout.x;
  if (cr > 0) return 0;                              // left
  if (dout.x == din.x && dout.y == din.y) return 1;  // straight
  if (cr < 0) return 2;                              // right
  return 3;                                          // back (degenerate)
}

}  // namespace

Polygon cleanPolygon(const Polygon& p) {
  Polygon q;
  q.pts.reserve(p.pts.size());
  for (const Point& pt : p.pts) {
    if (q.pts.empty() || !(q.pts.back() == pt)) q.pts.push_back(pt);
  }
  while (q.pts.size() > 1 && q.pts.front() == q.pts.back()) q.pts.pop_back();
  // Drop collinear (and spike) vertices until stable; each pass can
  // expose new collinear triples at the seams of removed runs.
  bool changed = true;
  while (changed && q.pts.size() >= 3) {
    changed = false;
    std::vector<Point> kept;
    kept.reserve(q.pts.size());
    const std::size_t n = q.pts.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Point prev = q.pts[(i + n - 1) % n];
      const Point next = q.pts[(i + 1) % n];
      if (cross3(prev, q.pts[i], next) == 0) {
        changed = true;
        continue;
      }
      kept.push_back(q.pts[i]);
    }
    q.pts.swap(kept);
  }
  if (q.pts.size() < 3) q.pts.clear();
  return q;
}

bool selfIntersects(const Polygon& p) {
  const std::size_t n = p.pts.size();
  if (n < 3) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const Point a = p.pts[i];
    const Point b = p.pts[(i + 1) % n];
    for (std::size_t j = i + 1; j < n; ++j) {
      const Point c = p.pts[j];
      const Point d = p.pts[(j + 1) % n];
      const bool adjacent = (j == i + 1) || (i == 0 && j == n - 1);
      if (adjacent) {
        // Sharing the common endpoint is the ring structure; anything
        // more (collinear fold-back) makes the ring non-simple.
        const Point shared = (j == i + 1) ? b : a;
        const Point tipA = (j == i + 1) ? a : b;
        const Point tipB = (j == i + 1) ? d : c;
        if (cross3(shared, tipA, tipB) == 0 &&
            (tipA.x - shared.x) * (tipB.x - shared.x) +
                    (tipA.y - shared.y) * (tipB.y - shared.y) >
                0) {
          return true;
        }
        continue;
      }
      if (segmentsIntersect(a, b, c, d)) return true;
    }
  }
  return false;
}

bool isRectilinear(const Polygon& p) noexcept {
  const std::size_t n = p.pts.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point a = p.pts[i];
    const Point b = p.pts[(i + 1) % n];
    if (a.x != b.x && a.y != b.y) return false;
  }
  return true;
}

std::vector<Rect> rectDecompose(const Polygon& p) {
  if (p.pts.size() < 3 || !isRectilinear(p)) return {};
  struct HEdge {
    Coord y, x0, x1;
  };
  std::vector<HEdge> edges;
  const std::size_t n = p.pts.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point a = p.pts[i];
    const Point b = p.pts[(i + 1) % n];
    if (a.y == b.y && a.x != b.x) {
      edges.push_back({a.y, std::min(a.x, b.x), std::max(a.x, b.x)});
    }
  }
  if (edges.empty()) return {};
  std::sort(edges.begin(), edges.end(), [](const HEdge& l, const HEdge& r) {
    return l.y != r.y ? l.y < r.y : (l.x0 != r.x0 ? l.x0 < r.x0 : l.x1 < r.x1);
  });

  std::vector<Rect> out;
  std::vector<Coord> active;  // sorted x boundaries where parity flips
  std::vector<Coord> merged;
  Coord prevY = 0;
  std::size_t i = 0;
  while (i < edges.size()) {
    const Coord y = edges[i].y;
    if (!active.empty() && prevY < y) {
      for (std::size_t k = 0; k + 1 < active.size(); k += 2) {
        out.push_back(Rect{active[k], prevY, active[k + 1], y});
      }
    }
    // Toggle this scanline's intervals: the new boundary set is the
    // symmetric difference of the old boundaries with the edge
    // endpoints (pairs of equal values cancel).
    merged = active;
    while (i < edges.size() && edges[i].y == y) {
      merged.push_back(edges[i].x0);
      merged.push_back(edges[i].x1);
      ++i;
    }
    std::sort(merged.begin(), merged.end());
    active.clear();
    for (std::size_t k = 0; k < merged.size();) {
      if (k + 1 < merged.size() && merged[k] == merged[k + 1]) {
        k += 2;
      } else {
        active.push_back(merged[k]);
        ++k;
      }
    }
    prevY = y;
  }
  return sweep::unionRects(out);
}

std::vector<Rect> regionOf(const PolySet& ps) {
  std::vector<Rect> all;
  for (const Polygon& p : ps) {
    const std::vector<Rect> r = rectDecompose(p);
    all.insert(all.end(), r.begin(), r.end());
  }
  return sweep::unionRects(all);
}

PolySet regionToPolygons(const std::vector<Rect>& region) {
  std::vector<DirEdge> edges;
  {
    // Net vertical boundaries per x: +1 for a left edge (interior
    // east), -1 for a right edge. Runs are emitted between consecutive
    // breakpoints — never merged across a rect corner, so every
    // boundary vertex is an edge endpoint and the walk below sees
    // matched in/out degrees. (Collinear run joints merge when the
    // ring is built.)
    std::map<Coord, std::map<Coord, int>> vdiff;
    std::map<Coord, std::map<Coord, int>> hdiff;
    for (const Rect& r : region) {
      if (r.isEmpty()) continue;
      vdiff[r.x0][r.y0] += 1;
      vdiff[r.x0][r.y1] -= 1;
      vdiff[r.x1][r.y0] -= 1;
      vdiff[r.x1][r.y1] += 1;
      hdiff[r.y0][r.x0] += 1;
      hdiff[r.y0][r.x1] -= 1;
      hdiff[r.y1][r.x0] -= 1;
      hdiff[r.y1][r.x1] += 1;
    }
    for (const auto& [x, dm] : vdiff) {
      int s = 0;
      Coord prev = 0;
      bool have = false;
      for (const auto& [y, d] : dm) {
        if (have && s > 0) edges.push_back({Point{x, y}, Point{x, prev}});   // south
        if (have && s < 0) edges.push_back({Point{x, prev}, Point{x, y}});   // north
        s += d;
        prev = y;
        have = true;
      }
    }
    for (const auto& [y, dm] : hdiff) {
      int s = 0;
      Coord prev = 0;
      bool have = false;
      for (const auto& [x, d] : dm) {
        if (have && s > 0) edges.push_back({Point{prev, y}, Point{x, y}});   // east
        if (have && s < 0) edges.push_back({Point{x, y}, Point{prev, y}});   // west
        s += d;
        prev = x;
        have = true;
      }
    }
  }

  std::map<Point, std::vector<std::size_t>, PointLess> outAt;
  for (std::size_t i = 0; i < edges.size(); ++i) outAt[edges[i].a].push_back(i);

  PolySet rings;
  std::vector<char> used(edges.size(), 0);
  for (std::size_t start = 0; start < edges.size(); ++start) {
    if (used[start]) continue;
    Polygon ring;
    std::size_t cur = start;
    const Point origin = edges[start].a;
    while (true) {
      used[cur] = 1;
      ring.pts.push_back(edges[cur].a);
      const Point at = edges[cur].b;
      if (at == origin) break;
      const Point din = dirOf(edges[cur]);
      const auto it = outAt.find(at);
      std::size_t best = edges.size();
      int bestScore = 4;
      if (it != outAt.end()) {
        for (const std::size_t cand : it->second) {
          if (used[cand]) continue;
          const int score = turnScore(din, dirOf(edges[cand]));
          if (score < bestScore) {
            bestScore = score;
            best = cand;
          }
        }
      }
      if (best == edges.size()) break;  // defensive: open chain, drop ring
      cur = best;
    }
    Polygon cleaned = cleanPolygon(ring);
    if (cleaned.pts.size() >= 3) rings.push_back(std::move(cleaned));
  }
  return rings;
}

std::vector<Rect> unionRegions(const std::vector<Rect>& a, const std::vector<Rect>& b) {
  std::vector<Rect> all;
  all.reserve(a.size() + b.size());
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  return sweep::unionRects(all);
}

std::vector<Rect> intersectRegions(const std::vector<Rect>& a, const std::vector<Rect>& b) {
  std::vector<Rect> out;
  if (a.empty() || b.empty()) return out;
  if (b.size() >= 16) {
    const RectIndex idx(b);
    std::vector<int> cand;
    for (const Rect& ra : a) {
      idx.queryTouching(ra, cand);
      for (const int j : cand) {
        if (const auto r = ra.intersectWith(b[static_cast<std::size_t>(j)])) {
          if (!r->isEmpty()) out.push_back(*r);
        }
      }
    }
  } else {
    for (const Rect& ra : a) {
      for (const Rect& rb : b) {
        if (const auto r = ra.intersectWith(rb)) {
          if (!r->isEmpty()) out.push_back(*r);
        }
      }
    }
  }
  return sweep::unionRects(out);
}

std::vector<Rect> subtractRegions(const std::vector<Rect>& a, const std::vector<Rect>& b) {
  std::vector<Rect> out;
  if (a.empty()) return out;
  if (b.empty()) return sweep::unionRects(a);
  std::vector<Rect> holes;
  for (const Rect& ra : a) {
    holes.clear();
    for (const Rect& rb : b) {
      if (ra.overlaps(rb)) holes.push_back(rb);
    }
    if (holes.empty()) {
      out.push_back(ra);
    } else {
      cutOut(ra, holes, out);
    }
  }
  return sweep::unionRects(out);
}

PolySet unite(const PolySet& a, const PolySet& b) {
  return regionToPolygons(unionRegions(regionOf(a), regionOf(b)));
}

PolySet intersect(const PolySet& a, const PolySet& b) {
  return regionToPolygons(intersectRegions(regionOf(a), regionOf(b)));
}

PolySet subtract(const PolySet& a, const PolySet& b) {
  return regionToPolygons(subtractRegions(regionOf(a), regionOf(b)));
}

PolySet clipToRect(const Polygon& p, const Rect& window) {
  if (p.pts.size() < 3 || window.isEmpty()) return {};
  const Rect bb = p.bbox();
  if (!bb.overlaps(window)) return {};   // edge/corner grazing has no area
  if (window.contains(bb)) return {p};   // verbatim fast path
  if (isRectilinear(p)) {
    std::vector<Rect> clipped;
    for (const Rect& r : rectDecompose(p)) {
      if (const auto ri = r.intersectWith(window)) {
        if (!ri->isEmpty()) clipped.push_back(*ri);
      }
    }
    return regionToPolygons(sweep::unionRects(clipped));
  }
  // Non-rectilinear fallback: Sutherland–Hodgman against the four
  // half-planes, intersections floor-rounded onto the grid —
  // deterministic, but no longer exact on the diagonal edges.
  std::vector<Point> ring = p.pts;
  std::vector<Point> next;
  // axis: 0 = x, 1 = y; keep points with coord*sign >= bound*sign.
  const auto clipHalfPlane = [&](int axis, Coord bound, Coord sign) {
    next.clear();
    const std::size_t n = ring.size();
    const auto coordOf = [axis](Point q) { return axis == 0 ? q.x : q.y; };
    const auto inside = [&](Point q) { return sign * coordOf(q) >= sign * bound; };
    const auto cut = [&](Point a, Point b) -> Point {
      // Intersection of segment a->b with the line coord == bound.
      const Coord da = coordOf(b) - coordOf(a);
      if (axis == 0) {
        const Coord y = a.y + floorDiv((b.y - a.y) * (bound - a.x), da);
        return Point{bound, y};
      }
      const Coord x = a.x + floorDiv((b.x - a.x) * (bound - a.y), da);
      return Point{x, bound};
    };
    for (std::size_t i = 0; i < n; ++i) {
      const Point a = ring[i];
      const Point b = ring[(i + 1) % n];
      if (inside(b)) {
        if (!inside(a)) next.push_back(cut(a, b));
        next.push_back(b);
      } else if (inside(a)) {
        next.push_back(cut(a, b));
      }
    }
    ring.swap(next);
  };
  clipHalfPlane(0, window.x0, 1);
  clipHalfPlane(0, window.x1, -1);
  clipHalfPlane(1, window.y0, 1);
  clipHalfPlane(1, window.y1, -1);
  Polygon out;
  out.pts = std::move(ring);
  Polygon cleaned = cleanPolygon(out);
  if (cleaned.pts.size() < 3 || cleaned.signedDoubleArea() == 0) return {};
  return {std::move(cleaned)};
}

std::vector<Rect> dilateRegion(const std::vector<Rect>& region, Coord d) {
  if (d <= 0) return sweep::unionRects(region);
  std::vector<Rect> grown;
  grown.reserve(region.size());
  for (const Rect& r : region) {
    if (!r.isEmpty()) grown.push_back(r.expandedXY(d, d));
  }
  return sweep::unionRects(grown);
}

std::vector<Rect> erodeRegion(const std::vector<Rect>& region, Coord d) {
  if (region.empty()) return {};
  if (d <= 0) return sweep::unionRects(region);
  const Rect frame = bboxOf(region).expanded(d + 1);
  std::vector<Rect> comp;
  cutOut(frame, region, comp);
  return subtractRegions(region, dilateRegion(comp, d));
}

PolySet offsetOutward(const PolySet& ps, Coord d) {
  return regionToPolygons(dilateRegion(regionOf(ps), d));
}

PolySet offsetInward(const PolySet& ps, Coord d) {
  return regionToPolygons(erodeRegion(regionOf(ps), d));
}

Polygon simplify(const Polygon& p, Coord maxDoubleAreaError) {
  Polygon q = cleanPolygon(p);
  if (q.pts.size() <= 3 || maxDoubleAreaError <= 0) return q;
  const std::size_t n = q.pts.size();
  std::vector<std::size_t> prev(n), next(n);
  std::vector<char> alive(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    prev[i] = (i + n - 1) % n;
    next[i] = (i + 1) % n;
  }
  const auto costOf = [&](std::size_t i) {
    return std::abs(cross3(q.pts[prev[i]], q.pts[i], q.pts[next[i]]));
  };
  std::size_t live = n;
  Coord budget = maxDoubleAreaError;
  while (live > 3) {
    std::size_t best = n;
    Coord bestCost = std::numeric_limits<Coord>::max();
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      const Coord c = costOf(i);
      if (c < bestCost) {
        bestCost = c;
        best = i;
      }
    }
    if (best == n || bestCost > budget) break;
    budget -= bestCost;
    alive[best] = 0;
    next[prev[best]] = next[best];
    prev[next[best]] = prev[best];
    --live;
  }
  Polygon out;
  out.pts.reserve(live);
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i]) out.pts.push_back(q.pts[i]);
  }
  return cleanPolygon(out);
}

}  // namespace poly
}  // namespace bb::geom
