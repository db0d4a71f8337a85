#include "drc/drc.hpp"

#include "core/pool.hpp"
#include "geom/poly.hpp"
#include "geom/segment_index.hpp"
#include "geom/sweep.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <sstream>

namespace bb::drc {

namespace {

using geom::Coord;
using geom::Rect;
using geom::RectIndex;
using tech::Layer;

/// Gap between two disjoint rectangles (Chebyshev-style: the larger of the
/// axis separations; 0 if they touch or overlap).
Coord gapBetween(const Rect& a, const Rect& b) noexcept {
  const Coord dx = std::max({a.x0 - b.x1, b.x0 - a.x1, Coord{0}});
  const Coord dy = std::max({a.y0 - b.y1, b.y0 - a.y1, Coord{0}});
  // Disjoint diagonally: Euclidean would be sqrt(dx^2+dy^2); the lambda
  // rules treat diagonal separation with the max metric, which is the
  // conservative Manhattan-grid convention.
  return std::max(dx, dy);
}

bool touchesBoundary(const Rect& r, const Rect& boundary) noexcept {
  return r.x0 <= boundary.x0 || r.x1 >= boundary.x1 || r.y0 <= boundary.y0 ||
         r.y1 >= boundary.y1;
}

/// Reusable per-unit scratch so the hot loops never reallocate.
struct Scratch {
  std::vector<int> cand;
  std::vector<int> bridge;
  std::vector<Rect> clip;
  geom::sweep::CoverageQuery cq;
};

/// True if `r` is fully covered by the union of layer `l`. Indexed mode
/// asks the sweep's coverage query against the per-layer index — one
/// incremental O(k log k) gap probe over the k touching rects instead
/// of a clip + full union-area pass per feature. Non-touching rects
/// contribute no coverage, so the answer is exactly the brute scan's
/// (both are exact integer predicates).
bool coveredByLayer(const Rect& r, const cell::FlatLayout& flat, Layer l, bool useIndex,
                    Scratch& s) {
  if (r.isEmpty()) return true;
  if (useIndex) return s.cq.covers(r, flat.indexOn(l));
  s.clip.clear();
  for (const Rect& c : flat.on(l)) {
    if (auto i = c.intersectWith(r)) s.clip.push_back(*i);
  }
  return geom::unionAreaBrute(s.clip) == r.area();
}

/// True if any rect on layer `l` touches `q`.
bool anyTouching(const Rect& q, const cell::FlatLayout& flat, Layer l, bool useIndex,
                 Scratch& s) {
  if (useIndex) {
    flat.indexOn(l).queryTouching(q, s.cand);
    return !s.cand.empty();
  }
  for (const Rect& b : flat.on(l)) {
    if (b.touches(q)) return true;
  }
  return false;
}

/// True if the thin rect `r` (== layer[self]) is fully covered by the
/// rest of its layer — a sliver inside a larger same-layer region is one
/// feature, not a violation. The self rect is skipped by index and exact
/// geometric duplicates by value (a duplicate is the same feature and
/// must not count as covering itself).
bool thinRectCovered(std::size_t self, const Rect& r, const cell::FlatLayout& flat, Layer l,
                     bool useIndex, Scratch& s) {
  const auto& layer = flat.on(l);
  if (useIndex) {
    // Incremental coverage probe: candidates from the index, self and
    // exact duplicates filtered, gap query clips internally.
    flat.indexOn(l).queryTouching(r, s.cand);
    s.clip.clear();
    for (const int j : s.cand) {
      const auto js = static_cast<std::size_t>(j);
      if (js == self || layer[js] == r) continue;
      s.clip.push_back(layer[js]);
    }
    return s.cq.covers(r, s.clip);
  }
  s.clip.clear();
  s.clip.reserve(layer.size());
  for (std::size_t j = 0; j < layer.size(); ++j) {
    if (j == self || layer[j] == r) continue;
    if (auto i = layer[j].intersectWith(r)) s.clip.push_back(*i);
  }
  return geom::unionAreaBrute(s.clip) == r.area();
}

void runWidthRule(const tech::WidthRule& wr, const cell::FlatLayout& flat,
                  const DrcOptions& opts, std::vector<Violation>& out) {
  const auto& layer = flat.on(wr.layer);
  Scratch s;
  for (std::size_t i = 0; i < layer.size(); ++i) {
    const Rect& r = layer[i];
    const Coord w = std::min(r.width(), r.height());
    if (w >= wr.min) continue;
    if (!thinRectCovered(i, r, flat, wr.layer, opts.useSpatialIndex, s)) {
      out.push_back({wr.name, wr.layer, wr.layer, r,
                     "feature " + std::to_string(w) + " < min width " +
                         std::to_string(wr.min)});
    }
  }
}

void runSpacingRule(const tech::SpacingRule& sr, const cell::FlatLayout& flat,
                    const geom::Rect& boundary, const DrcOptions& opts,
                    std::vector<Violation>& out) {
  if (sr.min <= 0) return;  // gap >= 0 can never violate
  const auto& as = flat.on(sr.a);
  const auto& bs = flat.on(sr.b);
  const bool same = sr.a == sr.b;
  const RectIndex* idxB = opts.useSpatialIndex ? &flat.indexOn(sr.b) : nullptr;
  Scratch s;

  for (std::size_t i = 0; i < as.size(); ++i) {
    const Rect& ra = as[i];

    auto checkPair = [&](std::size_t j) {
      const Rect& rb = bs[j];
      if (ra.touches(rb)) return;  // same feature / intentional crossing
      const Coord gap = gapBetween(ra, rb);
      if (gap >= sr.min) return;
      if (same) {
        // Two disjoint pieces bridged by other material on the layer are
        // one feature: skip if some rect touches both.
        bool bridged = false;
        if (idxB) {
          idxB->queryTouching(ra, s.bridge);
          for (const int k : s.bridge) {
            const Rect& o = as[static_cast<std::size_t>(k)];
            if (o == ra || o == rb) continue;
            if (o.touches(rb)) {  // o.touches(ra) held by the query
              bridged = true;
              break;
            }
          }
        } else {
          for (const Rect& o : as) {
            if (o == ra || o == rb) continue;
            if (o.touches(ra) && o.touches(rb)) {
              bridged = true;
              break;
            }
          }
        }
        if (bridged) return;
      }
      if (opts.boundaryConditions && touchesBoundary(ra, boundary) &&
          touchesBoundary(rb, boundary)) {
        return;  // interface wiring; contract guarantees the far side
      }
      out.push_back({sr.name, sr.a, sr.b, ra.unionWith(rb),
                     "gap " + std::to_string(gap) + " < " + std::to_string(sr.min)});
    };

    if (idxB) {
      // Everything violating has gap <= min-1 — exactly the index's
      // Chebyshev margin query. Candidates come back ascending, so the
      // violation order matches the reference j-loop.
      idxB->queryWithin(ra, sr.min - 1, s.cand);
      for (const int j : s.cand) {
        if (same && j <= static_cast<int>(i)) continue;
        checkPair(static_cast<std::size_t>(j));
      }
    } else {
      for (std::size_t j = same ? i + 1 : 0; j < bs.size(); ++j) checkPair(j);
    }
  }
}

/// All poly-over-diffusion intersection regions (candidate gates).
std::vector<Rect> gateRegions(const cell::FlatLayout& flat, bool useIndex) {
  std::vector<Rect> gates;
  const auto& diffs = flat.on(Layer::Diffusion);
  const RectIndex* idx = useIndex ? &flat.indexOn(Layer::Diffusion) : nullptr;
  std::vector<int> cand;
  for (const Rect& p : flat.on(Layer::Poly)) {
    auto consider = [&](const Rect& d) {
      if (auto g = p.intersectWith(d)) gates.push_back(*g);
    };
    if (idx) {
      idx->queryTouching(p, cand);
      for (const int di : cand) consider(diffs[static_cast<std::size_t>(di)]);
    } else {
      for (const Rect& d : diffs) consider(d);
    }
  }
  // Merge duplicates (several poly rects over one diff produce overlaps).
  std::sort(gates.begin(), gates.end(), [](const Rect& a, const Rect& b) {
    return std::tie(a.x0, a.y0, a.x1, a.y1) < std::tie(b.x0, b.y0, b.x1, b.y1);
  });
  gates.erase(std::unique(gates.begin(), gates.end()), gates.end());
  return gates;
}

void runTransistorChecks(const cell::FlatLayout& flat, const tech::RuleDeck& deck,
                         const DrcOptions& opts, std::vector<Violation>& out) {
  const auto& comp = deck.composite;
  const bool useIdx = opts.useSpatialIndex;
  Scratch s;
  // Pure probes, evaluated only until the verdict is decided.
  const auto covered = [&](const Rect& r, Layer l) {
    return coveredByLayer(r, flat, l, useIdx, s);
  };
  for (const Rect& g : gateRegions(flat, useIdx)) {
    // Poly must extend past the gate in its run direction, diffusion in
    // the orthogonal one; accept either orientation.
    const Rect extX{g.x0 - comp.polyGateExtension, g.y0, g.x1 + comp.polyGateExtension, g.y1};
    const Rect extY{g.x0, g.y0 - comp.polyGateExtension, g.x1, g.y1 + comp.polyGateExtension};
    const Rect dExtX{g.x0 - comp.diffGateExtension, g.y0, g.x1 + comp.diffGateExtension, g.y1};
    const Rect dExtY{g.x0, g.y0 - comp.diffGateExtension, g.x1, g.y1 + comp.diffGateExtension};
    const bool ok = (covered(extX, Layer::Poly) && covered(dExtY, Layer::Diffusion)) ||
                    (covered(extY, Layer::Poly) && covered(dExtX, Layer::Diffusion));
    if (!ok) {
      // Buried contacts intentionally join poly and diffusion; their
      // overlap is not a transistor.
      if (!anyTouching(g, flat, Layer::Buried, useIdx, s)) {
        out.push_back({"T.gate.ext", Layer::Poly, Layer::Diffusion, g,
                       "gate lacks 2-lambda poly/diff extensions"});
      }
    }
  }
}

void runContactChecks(const cell::FlatLayout& flat, const tech::RuleDeck& deck,
                      const DrcOptions& opts, std::vector<Violation>& out) {
  const auto& comp = deck.composite;
  const bool useIdx = opts.useSpatialIndex;
  Scratch s;
  // Pure probes, evaluated only until the verdict is decided.
  const auto covered = [&](const Rect& r, Layer l) {
    return coveredByLayer(r, flat, l, useIdx, s);
  };
  for (const Rect& cut : flat.on(Layer::Contact)) {
    const Rect need = cut.expanded(comp.contactSurround);
    if (!(covered(need, Layer::Metal) &&
          (covered(need, Layer::Poly) || covered(need, Layer::Diffusion)))) {
      out.push_back({"C.surround.1", Layer::Contact, Layer::Metal, cut,
                     "cut not surrounded by metal and poly-or-diff"});
    }
  }
  for (const Rect& b : flat.on(Layer::Buried)) {
    if (!(covered(b, Layer::Poly) && covered(b, Layer::Diffusion))) {
      out.push_back({"C.buried", Layer::Buried, Layer::Poly, b,
                     "buried contact not covered by poly and diffusion"});
    }
  }
}

// ---------------------------------------------------------------------------
// Polygon rule units.
//
// Polygon geometry enters DRC as *regions*: each polygon becomes its
// exact normal-form rect decomposition when rectilinear, or its bbox as
// a documented conservative stand-in otherwise (extraction uses the
// same convention). Every predicate below is exact integer arithmetic
// over those pieces, and the indexed candidate discovery feeds the SAME
// exact pair test as the brute scan, so both modes produce identical
// violations in identical order.

/// The region a polygon occupies for DRC/extraction purposes.
std::vector<Rect> polygonRegion(const geom::Polygon& p) {
  if (geom::poly::isRectilinear(p)) return geom::poly::rectDecompose(p);
  return {p.bbox()};
}

/// One polygon feature on a layer: its region pieces and bbox, in
/// `FlatLayout::polygons` order.
struct PolyFeature {
  std::vector<Rect> region;
  Rect bbox;
};

std::vector<PolyFeature> polyFeaturesOn(const cell::FlatLayout& flat, Layer l) {
  std::vector<PolyFeature> out;
  for (const auto& [pl, p] : flat.polygons) {
    if (pl != l) continue;
    out.push_back({polygonRegion(p), p.bbox()});
  }
  return out;
}

/// Edge index over the layer's polygon features for spacing candidate
/// discovery. Rectilinear features contribute their real edges;
/// bbox-approximated features contribute their bbox's four sides (the
/// probe must see the same outline the exact test uses, or the indexed
/// mode could miss a pair the brute mode reports). `owner[s]` maps
/// segment `s` back to its feature index.
geom::SegmentIndex buildEdgeIndex(const cell::FlatLayout& flat, Layer l,
                                  std::vector<int>& owner) {
  std::vector<geom::Segment> segs;
  int fi = 0;
  for (const auto& [pl, p] : flat.polygons) {
    if (pl != l) continue;
    if (geom::poly::isRectilinear(p)) {
      for (const geom::Segment& s : geom::edgesOf(p)) {
        segs.push_back(s);
        owner.push_back(fi);
      }
    } else {
      const Rect b = p.bbox();
      const geom::Point c00{b.x0, b.y0}, c10{b.x1, b.y0}, c11{b.x1, b.y1}, c01{b.x0, b.y1};
      for (const geom::Segment& s :
           {geom::Segment{c00, c10}, geom::Segment{c10, c11}, geom::Segment{c11, c01},
            geom::Segment{c01, c00}}) {
        segs.push_back(s);
        owner.push_back(fi);
      }
    }
    ++fi;
  }
  return geom::SegmentIndex(std::move(segs));
}

/// Width check over polygon material: morphological opening in doubled
/// coordinates. Scaling by 2 makes the radius `min - 1` representable
/// for every parity, and then an opening with that radius removes
/// exactly the material thinner than `min` (a strip of doubled width 2w
/// dies under erosion by d iff 2w <= 2d, i.e. w <= min-1) while
/// material at least `min` wide survives untouched. The residue
/// `region \ opening` IS the violation geometry; pieces not touching
/// any polygon material are dropped (slivers between plain rects are
/// the classic width rule's jurisdiction). No spatial-index branch:
/// the unit is exact and identical in both modes by construction.
void runPolyWidthRule(const tech::WidthRule& wr, const cell::FlatLayout& flat,
                      const DrcOptions& opts, std::vector<Violation>& out) {
  (void)opts;
  if (wr.min <= 1) return;  // every positive-area piece is >= 1 wide
  const auto x2 = [](const Rect& r) {
    return Rect{2 * r.x0, 2 * r.y0, 2 * r.x1, 2 * r.y1};
  };
  std::vector<Rect> polyMat;  // doubled polygon pieces on the layer
  for (const auto& [pl, p] : flat.polygons) {
    if (pl != wr.layer) continue;
    for (const Rect& r : polygonRegion(p)) polyMat.push_back(x2(r));
  }
  if (polyMat.empty()) return;  // polygon-free layer: classic rule covers it

  std::vector<Rect> mat = polyMat;
  for (const Rect& r : flat.on(wr.layer)) mat.push_back(x2(r));
  const std::vector<Rect> region = geom::sweep::unionRects(std::move(mat));
  const Coord d = wr.min - 1;  // doubled-coordinate opening radius
  const std::vector<Rect> opened =
      geom::poly::dilateRegion(geom::poly::erodeRegion(region, d), d);
  for (const Rect& t : geom::poly::subtractRegions(region, opened)) {
    bool nearPoly = false;
    for (const Rect& pm : polyMat) {
      if (t.touches(pm)) {
        nearPoly = true;
        break;
      }
    }
    if (!nearPoly) continue;
    // Region and opening boundaries both live on even coordinates, so
    // halving is exact (floorHalf only guards the impossible odd case).
    const Rect where{geom::floorHalf(t.x0), geom::floorHalf(t.y0), geom::floorHalf(t.x1),
                     geom::floorHalf(t.y1)};
    const Coord w = std::min(where.width(), where.height());
    out.push_back({wr.name, wr.layer, wr.layer, where,
                   "polygon material " + std::to_string(w) + " < min width " +
                       std::to_string(wr.min)});
  }
}

/// Spacing check involving polygon features: polygon-vs-polygon,
/// polygon-vs-rect, and (for cross-layer rules) rect-vs-polygon pairs.
/// The exact pair test is an offset-and-intersect probe: a violation
/// exists iff some piece of A, dilated by `min - 1`, touches a piece of
/// B — exactly Chebyshev gap <= min-1 < min, the metric the rect rule
/// uses. Candidates come from the `SegmentIndex` over B's edges (or the
/// per-layer `RectIndex` for rect partners); the brute path scans all
/// partners. Both paths run the identical exact test over ascending
/// partner order, so the violations are bit-identical.
void runPolySpacingRule(const tech::SpacingRule& sr, const cell::FlatLayout& flat,
                        const geom::Rect& boundary, const DrcOptions& opts,
                        std::vector<Violation>& out) {
  if (sr.min <= 0) return;
  const Coord m = sr.min - 1;
  const bool same = sr.a == sr.b;
  const std::vector<PolyFeature> fa = polyFeaturesOn(flat, sr.a);
  const std::vector<PolyFeature> fbStore =
      same ? std::vector<PolyFeature>{} : polyFeaturesOn(flat, sr.b);
  const std::vector<PolyFeature>& fb = same ? fa : fbStore;
  if (fa.empty() && fb.empty()) return;  // polygon-free: classic rule covers it

  const auto regionsTouch = [](const std::vector<Rect>& x, const std::vector<Rect>& y) {
    for (const Rect& rx : x) {
      for (const Rect& ry : y) {
        if (rx.touches(ry)) return true;
      }
    }
    return false;
  };
  const auto dilatedTouches = [m](const std::vector<Rect>& x, const std::vector<Rect>& y) {
    for (const Rect& rx : x) {
      const Rect e = rx.expandedXY(m, m);
      for (const Rect& ry : y) {
        if (e.touches(ry)) return true;
      }
    }
    return false;
  };
  const auto anyTouchesBoundary = [&boundary](const std::vector<Rect>& x) {
    for (const Rect& r : x) {
      if (touchesBoundary(r, boundary)) return true;
    }
    return false;
  };
  // Same-layer bridging: a third piece of material on the layer touching
  // both features makes them one feature. Resolved by the same brute
  // scan in both modes (bridge resolution is not candidate discovery —
  // it must see ALL material, and it only runs on near-violations).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const auto bridged = [&](const std::vector<Rect>& ra, const std::vector<Rect>& rb,
                           std::size_t skipA, std::size_t skipB, const Rect* skipRect) {
    for (const Rect& o : flat.on(sr.a)) {
      if (skipRect != nullptr && o == *skipRect) continue;
      bool ta = false, tb = false;
      for (const Rect& rx : ra) {
        if (o.touches(rx)) {
          ta = true;
          break;
        }
      }
      if (!ta) continue;
      for (const Rect& ry : rb) {
        if (o.touches(ry)) {
          tb = true;
          break;
        }
      }
      if (tb) return true;
    }
    for (std::size_t k = 0; k < fa.size(); ++k) {
      if (k == skipA || k == skipB) continue;
      if (regionsTouch(fa[k].region, ra) && regionsTouch(fa[k].region, rb)) return true;
    }
    return false;
  };
  const auto checkPair = [&](const std::vector<Rect>& ra, const std::vector<Rect>& rb,
                             std::size_t skipA, std::size_t skipB, const Rect* skipRect) {
    if (regionsTouch(ra, rb)) return;  // same feature / intentional crossing
    if (!dilatedTouches(ra, rb)) return;  // gap >= sr.min
    if (same && bridged(ra, rb, skipA, skipB, skipRect)) return;
    if (opts.boundaryConditions && anyTouchesBoundary(ra) && anyTouchesBoundary(rb)) {
      return;  // interface wiring; contract guarantees the far side
    }
    // Report the closest piece pair (first minimum wins: deterministic).
    Coord gap = -1;
    Rect where{};
    for (const Rect& rx : ra) {
      for (const Rect& ry : rb) {
        const Coord g = gapBetween(rx, ry);
        if (gap < 0 || g < gap) {
          gap = g;
          where = rx.unionWith(ry);
        }
      }
    }
    out.push_back({sr.name, sr.a, sr.b, where,
                   "polygon gap " + std::to_string(gap) + " < " + std::to_string(sr.min)});
  };

  std::vector<int> edgeOwner;
  std::optional<geom::SegmentIndex> idxB;
  if (opts.useSpatialIndex && !fb.empty()) idxB.emplace(buildEdgeIndex(flat, sr.b, edgeOwner));
  std::vector<int> segCand;
  std::vector<std::size_t> cand;
  const auto polyCandidates = [&](const Rect& q) -> const std::vector<std::size_t>& {
    cand.clear();
    if (idxB) {
      idxB->queryWithin(q, m, segCand);
      for (const int s : segCand) {
        cand.push_back(static_cast<std::size_t>(edgeOwner[static_cast<std::size_t>(s)]));
      }
      std::sort(cand.begin(), cand.end());
      cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    } else {
      for (std::size_t j = 0; j < fb.size(); ++j) cand.push_back(j);
    }
    return cand;
  };

  // 1. polygon(a) vs polygon(b), ascending (i, j); same-layer pairs once.
  for (std::size_t i = 0; i < fa.size(); ++i) {
    for (const std::size_t j : polyCandidates(fa[i].bbox)) {
      if (same && j <= i) continue;
      checkPair(fa[i].region, fb[j].region, i, j, nullptr);
    }
  }

  // 2. polygon(a) vs plain rect(b), ascending (i, rect j).
  const auto& rbs = flat.on(sr.b);
  const RectIndex* ridxB = opts.useSpatialIndex ? &flat.indexOn(sr.b) : nullptr;
  std::vector<int> rcand;
  std::vector<Rect> one(1);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const auto checkRect = [&](std::size_t j) {
      one[0] = rbs[j];
      checkPair(fa[i].region, one, i, kNone, &rbs[j]);
    };
    if (ridxB != nullptr) {
      ridxB->queryWithin(fa[i].bbox, m, rcand);
      for (const int j : rcand) checkRect(static_cast<std::size_t>(j));
    } else {
      for (std::size_t j = 0; j < rbs.size(); ++j) checkRect(j);
    }
  }

  // 3. plain rect(a) vs polygon(b), cross-layer only (the same-layer
  // case is pass 2 with roles swapped — pairing it again would dup).
  if (!same) {
    const auto& ras = flat.on(sr.a);
    for (std::size_t i = 0; i < ras.size(); ++i) {
      one[0] = ras[i];
      for (const std::size_t j : polyCandidates(ras[i])) {
        checkPair(one, fb[j].region, kNone, j, nullptr);
      }
    }
  }
}

/// World-space rects of one hier source (a placement, or the residual
/// when `src == placements().size()`) on layer `l` touching `win`, in
/// ascending local-index order (deterministic).
std::vector<Rect> sourceRectsNear(const cell::HierIndex& hier, std::size_t src, Layer l,
                                  const Rect& win) {
  std::vector<Rect> out;
  std::vector<int> cand;
  const auto& ps = hier.placements();
  if (src < ps.size()) {
    const cell::HierPlacement& p = ps[src];
    const geom::RectIndex& idx = hier.units()[p.unit].flat.indexOn(l);
    idx.queryTouching(p.t.inverted()(win), cand);
    out.reserve(cand.size());
    for (const int i : cand) out.push_back(p.t(idx.rect(static_cast<std::size_t>(i))));
  } else {
    const geom::RectIndex& idx = hier.residual().indexOn(l);
    idx.queryTouching(win, cand);
    out.reserve(cand.size());
    for (const int i : cand) out.push_back(idx.rect(static_cast<std::size_t>(i)));
  }
  return out;
}

Rect sourceBBox(const cell::HierIndex& hier, std::size_t src) {
  const auto& ps = hier.placements();
  return src < ps.size() ? ps[src].worldBBox : hier.residual().bbox();
}

/// One spacing rule across a pair of hier sources: only the rects near
/// the other source's bbox are paired, with the flat checker's exact
/// pair semantics (touch = one feature, same-layer bridging resolved
/// against the WHOLE hierarchy, boundary exemption vs the top boundary).
void runSpacingAcross(const tech::SpacingRule& sr, const cell::HierIndex& hier,
                      std::size_t srcI, std::size_t srcJ, const Rect& boundary,
                      const DrcOptions& opts, std::vector<Violation>& out) {
  if (sr.min <= 0) return;
  const Coord m = sr.min - 1;

  const auto pass = [&](std::size_t sa, std::size_t sb) {
    const Rect nearB = sourceBBox(hier, sb).expandedXY(m, m);
    const std::vector<Rect> A = sourceRectsNear(hier, sa, sr.a, nearB);
    if (A.empty()) return;
    const Rect nearA = sourceBBox(hier, sa).expandedXY(m, m);
    const std::vector<Rect> B = sourceRectsNear(hier, sb, sr.b, nearA);
    for (const Rect& ra : A) {
      for (const Rect& rb : B) {
        if (ra.touches(rb)) continue;
        const Coord gap = gapBetween(ra, rb);
        if (gap >= sr.min) continue;
        if (sr.a == sr.b) {
          bool bridged = false;
          hier.forEachRectTouching(sr.a, ra, [&](const Rect& o) {
            if (bridged || o == ra || o == rb) return;
            if (o.touches(rb)) bridged = true;
          });
          if (bridged) continue;
        }
        if (opts.boundaryConditions && touchesBoundary(ra, boundary) &&
            touchesBoundary(rb, boundary)) {
          continue;
        }
        out.push_back({sr.name, sr.a, sr.b, ra.unionWith(rb),
                       "gap " + std::to_string(gap) + " < " + std::to_string(sr.min)});
      }
    }
  };
  pass(srcI, srcJ);
  if (sr.a != sr.b) pass(srcJ, srcI);  // flat pairs a-rects with b-rects both ways
}

}  // namespace

std::string DrcReport::summary() const {
  std::ostringstream os;
  os << violations.size() << " violation(s) over " << shapesChecked << " shapes";
  for (std::size_t i = 0; i < violations.size() && i < 10; ++i) {
    os << "\n  " << violations[i].rule << " at " << geom::toString(violations[i].where) << ": "
       << violations[i].message;
  }
  if (violations.size() > 10) os << "\n  ...";
  return os.str();
}

DeckChecker::DeckChecker(const tech::RuleDeck& deck, DrcOptions opts)
    : deck_(&deck), opts_(opts) {
  // Resolve the rule-unit plan once per (deck, options) pair: one
  // independent unit per width rule and per spacing rule, plus the
  // transistor and contact groups. A batch of jobs compiling under the
  // same deck pays this setup once instead of per chip.
  units_.reserve(2 * (deck.widths.size() + deck.spacings.size()) + 2);
  for (std::size_t i = 0; i < deck.widths.size(); ++i) {
    units_.push_back({Unit::Kind::Width, i});
  }
  for (std::size_t i = 0; i < deck.spacings.size(); ++i) {
    units_.push_back({Unit::Kind::Spacing, i});
  }
  if (opts_.checkTransistors) units_.push_back({Unit::Kind::Transistors, 0});
  if (opts_.checkContacts) units_.push_back({Unit::Kind::Contacts, 0});
  // Polygon extensions ride AFTER the classic plan: chips without
  // polygon geometry keep their violation order byte-for-byte (each
  // polygon unit early-returns on a polygon-free layer).
  for (std::size_t i = 0; i < deck.widths.size(); ++i) {
    units_.push_back({Unit::Kind::PolyWidth, i});
  }
  for (std::size_t i = 0; i < deck.spacings.size(); ++i) {
    units_.push_back({Unit::Kind::PolySpacing, i});
  }
}

DrcReport DeckChecker::check(const cell::FlatLayout& flat, const geom::Rect& boundary) const {
  return check(flat, boundary, opts_.threads);
}

DrcReport DeckChecker::check(const cell::FlatLayout& flat, const geom::Rect& boundary,
                             unsigned threads) const {
  DrcReport rep;
  rep.shapesChecked = flat.totalCount();

  // Units share only the (const) flat layout and its prebuilt indexes,
  // so they parallelize freely; results are concatenated in unit order,
  // keeping violations in deck order no matter how many workers run.
  const auto runUnit = [&](const Unit& u, std::vector<Violation>& out) {
    switch (u.kind) {
      case Unit::Kind::Width:
        runWidthRule(deck_->widths[u.index], flat, opts_, out);
        break;
      case Unit::Kind::Spacing:
        runSpacingRule(deck_->spacings[u.index], flat, boundary, opts_, out);
        break;
      case Unit::Kind::Transistors:
        runTransistorChecks(flat, *deck_, opts_, out);
        break;
      case Unit::Kind::Contacts:
        runContactChecks(flat, *deck_, opts_, out);
        break;
      case Unit::Kind::PolyWidth:
        runPolyWidthRule(deck_->widths[u.index], flat, opts_, out);
        break;
      case Unit::Kind::PolySpacing:
        runPolySpacingRule(deck_->spacings[u.index], flat, boundary, opts_, out);
        break;
    }
  };

  std::vector<std::vector<Violation>> found(units_.size());
  if (threads != 1 && units_.size() > 1) {
    core::ThreadPool::global().parallelFor(
        units_.size(), 1, [&](std::size_t i) { runUnit(units_[i], found[i]); }, threads);
  } else {
    for (std::size_t i = 0; i < units_.size(); ++i) runUnit(units_[i], found[i]);
  }
  for (std::vector<Violation>& v : found) {
    rep.violations.insert(rep.violations.end(), std::make_move_iterator(v.begin()),
                          std::make_move_iterator(v.end()));
  }
  return rep;
}

DrcReport DeckChecker::checkHier(const cell::HierIndex& hier) const {
  DrcReport rep;
  rep.shapesChecked = hier.flatCount();
  const geom::Rect boundary = hier.top().boundary();
  const auto& us = hier.units();
  const auto& ps = hier.placements();
  const std::size_t P = ps.size();
  const bool residualUsed = hier.residual().totalCount() > 0;

  // Interacting source pairs: any two sources whose bboxes come within
  // the widest spacing margin can hold a cross-source violation; nothing
  // farther apart can. Sources are the placements plus the residual
  // (index P). Sorted for a deterministic violation order.
  geom::Coord maxMargin = 0;
  for (const auto& sr : deck_->spacings) maxMargin = std::max(maxMargin, sr.min - 1);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < P; ++i) {
    hier.forEachPlacementNear(ps[i].worldBBox, maxMargin, [&](std::size_t j) {
      if (j > i) pairs.emplace_back(i, j);
    });
  }
  if (residualUsed) {
    const geom::Rect rb = hier.residual().bbox();
    for (std::size_t i = 0; i < P; ++i) {
      if (gapBetween(rb, ps[i].worldBBox) <= maxMargin) pairs.emplace_back(i, P);
    }
  }
  std::sort(pairs.begin(), pairs.end());

  // Independent jobs: one per unique-cell interior (checked ONCE against
  // its own boundary), one for the residual, one per interaction pair.
  const std::size_t NU = us.size();
  std::vector<std::vector<Violation>> unitViol(NU);
  std::vector<Violation> residViol;
  std::vector<std::vector<Violation>> pairViol(pairs.size());
  const auto runJob = [&](std::size_t k) {
    if (k < NU) {
      unitViol[k] = check(us[k].flat, us[k].cell->boundary(), 1).violations;
    } else if (k == NU) {
      if (residualUsed) residViol = check(hier.residual(), boundary, 1).violations;
    } else {
      const auto [i, j] = pairs[k - NU - 1];
      for (const Unit& u : units_) {
        if (u.kind != Unit::Kind::Spacing) continue;
        runSpacingAcross(deck_->spacings[u.index], hier, i, j, boundary, opts_,
                         pairViol[k - NU - 1]);
      }
    }
  };
  const std::size_t total = NU + 1 + pairs.size();
  if (opts_.threads != 1 && total > 1) {
    core::ThreadPool::global().parallelFor(total, 1, runJob, opts_.threads);
  } else {
    for (std::size_t k = 0; k < total; ++k) runJob(k);
  }

  // Assemble: placements in order (interior violations replicated with
  // coordinates mapped through the placement), residual, then pairs.
  for (const cell::HierPlacement& p : ps) {
    for (const Violation& v : unitViol[p.unit]) {
      Violation w = v;
      w.where = p.t(v.where);
      rep.violations.push_back(std::move(w));
    }
  }
  rep.violations.insert(rep.violations.end(), std::make_move_iterator(residViol.begin()),
                        std::make_move_iterator(residViol.end()));
  for (std::vector<Violation>& pv : pairViol) {
    rep.violations.insert(rep.violations.end(), std::make_move_iterator(pv.begin()),
                          std::make_move_iterator(pv.end()));
  }
  return rep;
}

DrcReport checkFlat(const cell::FlatLayout& flat, const geom::Rect& boundary,
                    const tech::RuleDeck& deck, const DrcOptions& opts) {
  return DeckChecker(deck, opts).check(flat, boundary);
}

DrcReport checkCell(const cell::Cell& c, const tech::RuleDeck& deck, const DrcOptions& opts) {
  return checkFlat(cell::flatten(c), c.boundary(), deck, opts);
}

}  // namespace bb::drc
