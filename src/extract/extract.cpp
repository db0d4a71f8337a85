#include "extract/extract.hpp"

#include "geom/poly.hpp"
#include "geom/rect_index.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <tuple>

namespace bb::extract {

namespace {

using geom::Coord;
using geom::Rect;
using geom::RectIndex;
using tech::Layer;

/// Disjoint-set over an arbitrary number of conductor pieces.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int a) {
    while (parent_[static_cast<std::size_t>(a)] != a) {
      parent_[static_cast<std::size_t>(a)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(a)])];
      a = parent_[static_cast<std::size_t>(a)];
    }
    return a;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(a)] = b;
  }

 private:
  std::vector<int> parent_;
};

/// A conductor piece: a rect on a conducting layer.
struct Piece {
  Layer layer;
  Rect r;
};

/// Conductor-layer slot (Diffusion/Poly/Metal -> 0/1/2), -1 otherwise.
int condSlot(Layer l) noexcept {
  switch (l) {
    case Layer::Diffusion: return 0;
    case Layer::Poly: return 1;
    case Layer::Metal: return 2;
    default: return -1;
  }
}

/// The region a polygon occupies for connectivity: its exact rect
/// decomposition when rectilinear, its bbox as a documented conservative
/// stand-in otherwise (the DRC polygon units use the same convention).
std::vector<Rect> polygonRegion(const geom::Polygon& p) {
  if (geom::poly::isRectilinear(p)) return geom::poly::rectDecompose(p);
  return {p.bbox()};
}

/// Candidate source abstracting indexed vs reference iteration: visits
/// the indices of every rect in `rects` touching `q`, ascending — the
/// same order either way, which keeps extraction (source/drain pick
/// order, first-piece-wins label resolution) bit-identical across modes.
///
/// Neither copyable nor movable: an owning source points into its own
/// index, so a copy would query the original's. Construct in place.
class TouchSource {
 public:
  /// Own an index over a derived rect set (gate regions, net pieces).
  TouchSource(const std::vector<Rect>& rects, bool useIndex) : rects_(rects) {
    if (useIndex) {
      owned_.emplace(rects);
      index_ = &*owned_;
    }
  }
  /// Borrow a prebuilt index (a FlatLayout's cached per-layer index);
  /// null runs the reference scan.
  TouchSource(const std::vector<Rect>& rects, const RectIndex* borrowed)
      : rects_(rects), index_(borrowed) {}

  TouchSource(const TouchSource&) = delete;
  TouchSource(TouchSource&&) = delete;
  TouchSource& operator=(const TouchSource&) = delete;
  TouchSource& operator=(TouchSource&&) = delete;

  [[nodiscard]] const Rect& rect(std::size_t i) const noexcept { return rects_[i]; }

  template <typename F>
  void forTouching(const Rect& q, F&& f) const {
    if (index_) {
      index_->queryTouching(q, scratch_);
      for (const int i : scratch_) f(i);
    } else {
      for (std::size_t i = 0; i < rects_.size(); ++i) {
        if (rects_[i].touches(q)) f(static_cast<int>(i));
      }
    }
  }

 private:
  const std::vector<Rect>& rects_;
  std::optional<RectIndex> owned_;
  const RectIndex* index_ = nullptr;
  mutable std::vector<int> scratch_;
};

/// Source over a layout layer, reusing the FlatLayout's cached index.
TouchSource layerSource(const cell::FlatLayout& flat, Layer l, bool useIndex) {
  return {flat.on(l), useIndex ? &flat.indexOn(l) : nullptr};
}

}  // namespace

namespace {

/// Split `r` around `cut` (their overlap region) into up to four rects,
/// in [above, below, left, right] order. Degenerate slices — a hole edge
/// flush with the fragment edge yields a zero-extent band — are skipped
/// at emit time rather than filtered afterwards, so the live set never
/// carries zero-area fragments through later holes (they used to inflate
/// `next.reserve` churn before the final erase_if dropped them).
template <typename Emit>
void splitAround(const Rect& r, const Rect& cut, Emit&& emit) {
  const auto piece = [&emit](Coord x0, Coord y0, Coord x1, Coord y1) {
    if (x0 < x1 && y0 < y1) emit(Rect{x0, y0, x1, y1});
  };
  piece(r.x0, cut.y1, r.x1, r.y1);        // above
  piece(r.x0, r.y0, r.x1, cut.y0);        // below
  piece(r.x0, cut.y0, cut.x0, cut.y1);    // left
  piece(cut.x1, cut.y0, r.x1, cut.y1);    // right
}

/// Below this many holes a RectIndex costs more to build than the scans
/// it saves; the sequential reference is used verbatim.
constexpr std::size_t kSubtractIndexThreshold = 16;

}  // namespace

std::vector<Rect> subtractRectsBrute(const Rect& base, const std::vector<Rect>& holes) {
  std::vector<Rect> live;
  if (!base.isEmpty()) live.push_back(base);
  for (const Rect& h : holes) {
    std::vector<Rect> next;
    next.reserve(live.size());
    for (const Rect& r : live) {
      auto cut = r.intersectWith(h);
      if (!cut) {
        next.push_back(r);
        continue;
      }
      splitAround(r, *cut, [&next](const Rect& p) { next.push_back(p); });
    }
    live = std::move(next);
  }
  // Safety net: emit-time skipping means no empties should survive.
  std::erase_if(live, [](const Rect& r) { return r.isEmpty(); });
  return live;
}

std::vector<Rect> subtractRects(const Rect& base, const std::vector<Rect>& holes) {
  if (base.isEmpty()) return {};
  if (holes.size() < kSubtractIndexThreshold) return subtractRectsBrute(base, holes);

  // Index the holes once, then split each fragment only against the
  // holes touching it, lowest hole index first. Applying the lowest
  // overlapping hole to a fragment and recursing on its pieces with the
  // remaining holes builds exactly the same fragment tree as the
  // sequential reference (splitting preserves relative order and a
  // non-overlapping hole is a no-op there), so values AND order match
  // subtractRectsBrute bit-for-bit — the tests and bench assert it.
  const geom::RectIndex idx(holes);
  std::vector<Rect> out;
  struct Frame {
    Rect r;
    int fromHole;  ///< holes below this index were already applied
  };
  std::vector<Frame> stack{{base, 0}};
  std::vector<int> cand;
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    idx.queryTouching(f.r, cand);  // ascending hole indices
    int h = -1;
    std::optional<Rect> cut;
    for (const int j : cand) {
      if (j < f.fromHole) continue;
      if ((cut = holes[static_cast<std::size_t>(j)].intersectWith(f.r))) {
        h = j;
        break;
      }
    }
    if (h < 0) {
      out.push_back(f.r);
      continue;
    }
    // DFS emission order == reference order: push pieces reversed.
    Rect pieces[4];
    int n = 0;
    splitAround(f.r, *cut, [&pieces, &n](const Rect& p) { pieces[n++] = p; });
    for (int k = n - 1; k >= 0; --k) stack.push_back({pieces[k], h + 1});
  }
  // Safety net, mirroring the reference path.
  std::erase_if(out, [](const Rect& r) { return r.isEmpty(); });
  return out;
}

ExtractResult extractFlat(const cell::FlatLayout& flat, const std::vector<NetLabel>& labels,
                          const ExtractOptions& opts) {
  ExtractResult res;
  const bool useIdx = opts.useSpatialIndex;

  // --- 1. gates: poly over diffusion, not under a buried contact --------
  struct GateRegion {
    Rect r;
    bool depletion = false;
  };
  std::vector<GateRegion> gates;
  const TouchSource diffSource = layerSource(flat, Layer::Diffusion, useIdx);
  const TouchSource buriedSource = layerSource(flat, Layer::Buried, useIdx);
  const TouchSource implantSource = layerSource(flat, Layer::Implant, useIdx);
  for (const Rect& p : flat.on(Layer::Poly)) {
    diffSource.forTouching(p, [&](int di) {
      const Rect& d = flat.on(Layer::Diffusion)[static_cast<std::size_t>(di)];
      auto g = p.intersectWith(d);
      if (!g) return;
      bool buried = false;
      buriedSource.forTouching(*g, [&](int) { buried = true; });
      if (buried) return;
      GateRegion gr{*g, false};
      implantSource.forTouching(gr.r, [&](int ii) {
        if (flat.on(Layer::Implant)[static_cast<std::size_t>(ii)].contains(gr.r)) {
          gr.depletion = true;
        }
      });
      gates.push_back(gr);
    });
  }
  // Dedup identical gate regions (overlapping source rects).
  std::sort(gates.begin(), gates.end(), [](const GateRegion& a, const GateRegion& b) {
    return std::tie(a.r.x0, a.r.y0, a.r.x1, a.r.y1) < std::tie(b.r.x0, b.r.y0, b.r.x1, b.r.y1);
  });
  gates.erase(std::unique(gates.begin(), gates.end(),
                          [](const GateRegion& a, const GateRegion& b) { return a.r == b.r; }),
              gates.end());

  // --- 2. pieces: diffusion fractured at gates, then poly, metal and
  // polygon regions. Global piece ids follow that order; each conductor
  // layer also lists its own pieces (rects and global ids, ascending), so
  // every connectivity query below scans only the layer it asks about.
  constexpr std::size_t kDiff = 0, kPoly = 1, kMetal = 2;  // condSlot order
  std::vector<Piece> pieces;
  std::array<std::vector<int>, 3> ids;
  // Each layer's piece rects. Poly and metal leave theirs empty while
  // their pieces are exactly flat.on(l), borrowing its rects and cached
  // index; a polygon region joining the layer ends that.
  std::array<std::vector<Rect>, 3> own;
  const auto borrows = [&](std::size_t k) { return own[k].size() < ids[k].size(); };
  const auto addPiece = [&](std::size_t k, Layer l, const Rect& r) {
    ids[k].push_back(static_cast<int>(pieces.size()));
    pieces.push_back({l, r});
  };
  std::vector<Rect> gateRects;
  gateRects.reserve(gates.size());
  for (const GateRegion& g : gates) gateRects.push_back(g.r);
  const TouchSource gateSource(gateRects, useIdx);
  std::vector<Rect> holes;
  for (const Rect& d : flat.on(Layer::Diffusion)) {
    holes.clear();
    gateSource.forTouching(d, [&](int i) {
      const Rect& g = gateRects[static_cast<std::size_t>(i)];
      if (g.overlaps(d)) holes.push_back(g);
    });
    std::sort(holes.begin(), holes.end(), [](const Rect& a, const Rect& b) {
      return std::tie(a.x0, a.y0, a.x1, a.y1) < std::tie(b.x0, b.y0, b.x1, b.y1);
    });
    holes.erase(std::unique(holes.begin(), holes.end()), holes.end());
    for (const Rect& frag : subtractRects(d, holes)) {
      addPiece(kDiff, Layer::Diffusion, frag);
      own[kDiff].push_back(frag);
    }
  }
  for (const Rect& p : flat.on(Layer::Poly)) addPiece(kPoly, Layer::Poly, p);
  for (const Rect& m : flat.on(Layer::Metal)) addPiece(kMetal, Layer::Metal, m);
  // Polygon geometry on conductor layers joins connectivity as region
  // pieces appended after the rects (stable piece order keeps net ids
  // deterministic). Polygons are pure interconnect here: a polygon-drawn
  // poly shape over diffusion does NOT form a gate, and polygon-drawn
  // diffusion is not fractured at gates — drawing transistors with P
  // commands is out of this extractor's scope.
  for (const auto& [pl, poly] : flat.polygons) {
    const int slot = condSlot(pl);
    if (slot < 0) continue;
    const auto k = static_cast<std::size_t>(slot);
    for (const Rect& frag : polygonRegion(poly)) {
      if (borrows(k)) own[k] = flat.on(pl);
      addPiece(k, pl, frag);
      own[k].push_back(frag);
    }
  }

  // --- 3. connectivity ----------------------------------------------------
  const auto sourceOf = [&](std::size_t k, Layer l) {
    if (borrows(k)) return layerSource(flat, l, useIdx);
    return TouchSource(own[k], useIdx);
  };
  const TouchSource src[3] = {sourceOf(kDiff, Layer::Diffusion), sourceOf(kPoly, Layer::Poly),
                              sourceOf(kMetal, Layer::Metal)};

  UnionFind uf(pieces.size());
  for (std::size_t k = 0; k < 3; ++k) {
    const std::vector<int>& id = ids[k];
    for (std::size_t i = 0; i < id.size(); ++i) {
      src[k].forTouching(src[k].rect(i), [&](int j) {
        if (j > static_cast<int>(i)) uf.unite(id[i], id[static_cast<std::size_t>(j)]);
      });
    }
  }
  const auto anyTouching = [&](std::size_t k, const Rect& q) {
    bool hit = false;
    src[k].forTouching(q, [&](int) { hit = true; });
    return hit;
  };
  const auto connectAcross = [&](const Rect& via, std::size_t a, std::size_t b) {
    const auto join = [&](std::size_t k) {
      int first = -1;
      src[k].forTouching(via, [&](int i) {
        const int g = ids[k][static_cast<std::size_t>(i)];
        if (first < 0) first = g;
        else uf.unite(g, first);
      });
      return first;
    };
    const int firstA = join(a);
    const int firstB = join(b);
    if (firstA >= 0 && firstB >= 0) uf.unite(firstA, firstB);
  };
  for (const Rect& cut : flat.on(Layer::Contact)) {
    // A cut connects metal to whichever of poly/diff lies under it.
    if (anyTouching(kPoly, cut)) connectAcross(cut, kMetal, kPoly);
    else if (anyTouching(kDiff, cut)) connectAcross(cut, kMetal, kDiff);
  }
  for (const Rect& b : flat.on(Layer::Buried)) connectAcross(b, kPoly, kDiff);

  // --- 4. net ids ----------------------------------------------------------
  std::vector<int> netOfRoot(pieces.size(), -1);
  const auto netOfPiece = [&](int g) -> int {
    int& net = netOfRoot[static_cast<std::size_t>(uf.find(g))];
    if (net < 0) {
      net = res.netlist.anonNet();
      ++res.netCount;
    }
    return net;
  };

  // Labels first, so named nets get their bristle names. Every label's
  // resolution (or failure to resolve: net -1, an unconnected port) is
  // recorded for the ERC rules.
  res.labelBindings.reserve(labels.size());
  for (const NetLabel& lbl : labels) {
    int bound = -1;
    if (const int slot = condSlot(lbl.layer); slot >= 0) {
      const auto k = static_cast<std::size_t>(slot);
      src[k].forTouching(Rect{lbl.at.x, lbl.at.y, lbl.at.x, lbl.at.y}, [&](int i) {
        if (bound >= 0 || !src[k].rect(static_cast<std::size_t>(i)).contains(lbl.at)) return;
        bound = netOfPiece(ids[k][static_cast<std::size_t>(i)]);
        res.netlist.rename(bound, lbl.name);
      });
    }
    res.labelBindings.push_back({lbl.name, lbl.layer, lbl.at, bound});
  }

  // --- 5. transistors --------------------------------------------------------
  std::vector<int> sd;
  for (const GateRegion& g : gates) {
    // Gate net: poly piece overlapping the gate region.
    int gateNet = -1;
    src[kPoly].forTouching(g.r, [&](int i) {
      if (gateNet < 0 && src[kPoly].rect(static_cast<std::size_t>(i)).overlaps(g.r)) {
        gateNet = netOfPiece(ids[kPoly][static_cast<std::size_t>(i)]);
      }
    });
    // Source/drain: diffusion fragments touching the gate region. Channel
    // length runs along the poly direction (gate dimension between the
    // two diffusion fragments); infer it from fragment adjacency:
    // fragments to the left/right -> length = g width in x, width = y.
    sd.clear();
    bool horizontalFlow = false;
    src[kDiff].forTouching(g.r, [&](int i) {
      const Rect& p = src[kDiff].rect(static_cast<std::size_t>(i));
      if (p.x1 <= g.r.x0 || p.x0 >= g.r.x1) horizontalFlow = true;
      const int net = netOfPiece(ids[kDiff][static_cast<std::size_t>(i)]);
      if (std::find(sd.begin(), sd.end(), net) == sd.end()) sd.push_back(net);
    });
    netlist::Transistor t;
    t.kind = g.depletion ? netlist::TransKind::Depletion : netlist::TransKind::Enhancement;
    t.gate = gateNet;
    t.at = g.r.center();
    if (horizontalFlow) {
      t.length = g.r.width();
      t.width = g.r.height();
    } else {
      t.length = g.r.height();
      t.width = g.r.width();
    }
    if (sd.size() >= 2) {
      t.source = sd[0];
      t.drain = sd[1];
    } else if (sd.size() == 1) {
      t.source = t.drain = sd[0];
      ++res.unresolvedGates;
    } else {
      ++res.unresolvedGates;
    }
    res.netlist.add(t);
  }

  // Every conductor piece is an electrical node even if no device or label
  // touched it; materialize those nets so netCount reports true node count.
  std::vector<int> netOf(pieces.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) netOf[i] = netOfPiece(static_cast<int>(i));

  // --- 6. per-net ERC classification ---------------------------------------
  res.netInfo.resize(res.netlist.nets().size());
  const auto reachesBoundary = [&opts](const Rect& r) {
    if (!opts.boundary) return false;
    const Rect& b = *opts.boundary;
    return r.x0 <= b.x0 || r.x1 >= b.x1 || r.y0 <= b.y0 || r.y1 >= b.y1;
  };
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Piece& p = pieces[i];
    NetInfo& info = res.netInfo[static_cast<std::size_t>(netOf[i])];
    if (info.pieces == 0) info.at = p.r.center();
    ++info.pieces;
    info.layerMask |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(p.layer));
    info.touchesBoundary = info.touchesBoundary || reachesBoundary(p.r);
  }
  for (const netlist::Transistor& t : res.netlist.transistors()) {
    if (t.gate >= 0) ++res.netInfo[static_cast<std::size_t>(t.gate)].gates;
    if (t.source >= 0) ++res.netInfo[static_cast<std::size_t>(t.source)].terminals;
    if (t.drain >= 0) ++res.netInfo[static_cast<std::size_t>(t.drain)].terminals;
  }
  for (std::size_t i = 0; i < res.netInfo.size(); ++i) {
    res.netInfo[i].named = res.netlist.nets()[i].isNamed;
  }

  if (opts.keepPieces) {
    res.pieces.reserve(pieces.size());
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      res.pieces.push_back({pieces[i].layer, pieces[i].r, netOf[i]});
    }
  }
  return res;
}

namespace {

/// One stitching source: a unique cell's (or the residual's) local
/// extraction plus per-conductor-layer piece indexes and a local-net ->
/// representative-piece table. Shared by every placement of the unit.
struct StitchSrc {
  StitchSrc() = default;
  StitchSrc(StitchSrc&&) = default;  // the rect buffers move with it
  StitchSrc(const StitchSrc&) = delete;  // a copy's indexes would read the original's rects

  ExtractResult res;
  std::array<std::vector<int>, 3> layerPieces;  ///< slot -> local piece ids
  std::array<std::vector<Rect>, 3> layerRects;  ///< those pieces' rects
  std::array<RectIndex, 3> layerIdx;            ///< over `layerRects`
  std::vector<int> netRep;                      ///< local net -> first piece
};

StitchSrc buildStitchSrc(const cell::FlatLayout& flat, const ExtractOptions& base) {
  StitchSrc x;
  ExtractOptions uo = base;
  uo.boundary.reset();
  uo.hierarchical = false;
  uo.keepPieces = true;
  x.res = extractFlat(flat, {}, uo);
  x.netRep.assign(x.res.netlist.nets().size(), -1);
  for (std::size_t i = 0; i < x.res.pieces.size(); ++i) {
    const auto& p = x.res.pieces[i];
    const int k = condSlot(p.layer);
    x.layerPieces[static_cast<std::size_t>(k)].push_back(static_cast<int>(i));
    x.layerRects[static_cast<std::size_t>(k)].push_back(p.r);
    if (x.netRep[static_cast<std::size_t>(p.net)] < 0) {
      x.netRep[static_cast<std::size_t>(p.net)] = static_cast<int>(i);
    }
  }
  for (std::size_t k = 0; k < 3; ++k) x.layerIdx[k] = RectIndex(x.layerRects[k]);
  return x;
}

/// Closed-box intersection: non-null whenever the boxes touch (a shared
/// edge yields a degenerate strip — exactly the abutment window).
std::optional<Rect> closedIntersect(const Rect& a, const Rect& b) noexcept {
  Rect r;
  r.x0 = std::max(a.x0, b.x0);
  r.y0 = std::max(a.y0, b.y0);
  r.x1 = std::min(a.x1, b.x1);
  r.y1 = std::min(a.y1, b.y1);
  if (r.x0 > r.x1 || r.y0 > r.y1) return std::nullopt;
  return r;
}

}  // namespace

ExtractResult extractHier(const cell::HierIndex& hier, const std::vector<NetLabel>& labels,
                          const ExtractOptions& opts) {
  ExtractResult res;
  const auto& us = hier.units();
  const auto& ps = hier.placements();
  const std::size_t P = ps.size();

  // --- 1. each unique cell extracted ONCE; the residual is one more source.
  std::vector<StitchSrc> unitX;
  unitX.reserve(us.size());
  for (const cell::HierUnit& u : us) unitX.push_back(buildStitchSrc(u.flat, opts));
  const StitchSrc residX = buildStitchSrc(hier.residual(), opts);

  // Global piece slots: every placement replicates its unit's pieces;
  // source P is the residual.
  const auto srcX = [&](std::size_t s) -> const StitchSrc& {
    return s < P ? unitX[ps[s].unit] : residX;
  };
  const auto srcT = [&](std::size_t s) -> geom::Transform {
    return s < P ? ps[s].t : geom::Transform{};
  };
  std::vector<std::size_t> off(P + 2, 0);
  for (std::size_t s = 0; s <= P; ++s) off[s + 1] = off[s] + srcX(s).res.pieces.size();

  UnionFind uf(off[P + 1]);
  // Within-source connectivity, replicated from the local extraction.
  for (std::size_t s = 0; s <= P; ++s) {
    const StitchSrc& x = srcX(s);
    for (std::size_t i = 0; i < x.res.pieces.size(); ++i) {
      const int rep = x.netRep[static_cast<std::size_t>(x.res.pieces[i].net)];
      uf.unite(static_cast<int>(off[s] + i), static_cast<int>(off[s]) + rep);
    }
  }

  /// Visit (global id, world rect) of source `s`'s pieces on slot `k`
  /// touching world rect `w` (local-index ascending).
  const auto forPieces = [&](std::size_t s, int k, const Rect& w, auto&& f) {
    const StitchSrc& x = srcX(s);
    const geom::Transform t = srcT(s);
    const Rect lw = s < P ? t.inverted()(w) : w;
    const auto ks = static_cast<std::size_t>(k);
    std::vector<int> cand;
    x.layerIdx[ks].queryTouching(lw, cand);
    for (const int qi : cand) {
      const int lp = x.layerPieces[ks][static_cast<std::size_t>(qi)];
      f(static_cast<int>(off[s]) + lp, t(x.res.pieces[static_cast<std::size_t>(lp)].r));
    }
  };

  // --- 2. boundary stitching over interacting source pairs ---------------
  const auto srcBBox = [&](std::size_t s) {
    return s < P ? ps[s].worldBBox : hier.residual().bbox();
  };
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < P; ++i) {
    hier.forEachPlacementNear(ps[i].worldBBox, 0, [&](std::size_t j) {
      if (j > i) pairs.emplace_back(i, j);
    });
  }
  if (hier.residual().totalCount() > 0) {
    const Rect rb = hier.residual().bbox();
    for (std::size_t i = 0; i < P; ++i) {
      if (rb.touches(ps[i].worldBBox)) pairs.emplace_back(i, P);
    }
  }
  std::sort(pairs.begin(), pairs.end());

  // Stitch pruning: every union the pair walk can perform needs geometry
  // in the shared window. An abutment join unites pieces that share a
  // point, and that point lies in both sources' bboxes — i.e. in the
  // window — so BOTH pieces touch it; a via join only fires for vias
  // touching the window. A pair with no conductor slot populated by
  // both sources inside the window and no via of either source reaching
  // it is therefore provably a no-op and skipped outright (the common
  // case in dense tilings where cells abut along blank seams).
  const auto anyPieceTouching = [&](std::size_t s, int k, const Rect& wr) {
    const StitchSrc& x = srcX(s);
    const Rect lw = s < P ? srcT(s).inverted()(wr) : wr;
    std::vector<int> cand;
    x.layerIdx[static_cast<std::size_t>(k)].queryTouching(lw, cand);
    return !cand.empty();
  };
  const auto anyViaTouching = [&](std::size_t s, Layer vl, const Rect& wr) {
    const cell::FlatLayout& fl = s < P ? us[ps[s].unit].flat : hier.residual();
    const Rect lw = s < P ? srcT(s).inverted()(wr) : wr;
    std::vector<int> cand;
    fl.indexOn(vl).queryTouching(lw, cand);
    return !cand.empty();
  };

  for (const auto& [a, b] : pairs) {
    const auto w = closedIntersect(srcBBox(a), srcBBox(b));
    if (!w) continue;
    bool seam = false;
    for (int k = 0; k < 3 && !seam; ++k) {
      seam = anyPieceTouching(a, k, *w) && anyPieceTouching(b, k, *w);
    }
    if (!seam) {
      seam = anyViaTouching(a, Layer::Contact, *w) || anyViaTouching(b, Layer::Contact, *w) ||
             anyViaTouching(a, Layer::Buried, *w) || anyViaTouching(b, Layer::Buried, *w);
    }
    if (!seam) continue;

    // Same-layer abutment: a's pieces in the window vs b's touching them.
    for (int k = 0; k < 3; ++k) {
      forPieces(a, k, *w, [&](int ga, const Rect& ra) {
        forPieces(b, k, ra, [&](int gb, const Rect&) { uf.unite(ga, gb); });
      });
    }

    // Boundary-straddling vias, with the flat checker's exact rules: a
    // contact joins metal to poly if any poly lies under it, else to
    // diffusion; a buried contact always joins poly to diffusion. All
    // same-layer pieces touching the via are united (flat does the same).
    const auto viaJoin = [&](const Rect& via, bool isCut) {
      bool hasPoly = false, hasDiff = false;
      for (const std::size_t s : {a, b}) {
        forPieces(s, 1, via, [&](int, const Rect&) { hasPoly = true; });
        forPieces(s, 0, via, [&](int, const Rect&) { hasDiff = true; });
      }
      const auto gather = [&](int k, int& first) {
        for (const std::size_t s : {a, b}) {
          forPieces(s, k, via, [&](int g, const Rect&) {
            if (first < 0) {
              first = g;
            } else {
              uf.unite(g, first);
            }
          });
        }
      };
      int firstMetal = -1, firstPoly = -1, firstDiff = -1;
      if (isCut) {
        if (hasPoly) {
          gather(2, firstMetal);
          gather(1, firstPoly);
          if (firstMetal >= 0 && firstPoly >= 0) uf.unite(firstMetal, firstPoly);
        } else if (hasDiff) {
          gather(2, firstMetal);
          gather(0, firstDiff);
          if (firstMetal >= 0 && firstDiff >= 0) uf.unite(firstMetal, firstDiff);
        }
      } else {
        gather(1, firstPoly);
        gather(0, firstDiff);
        if (firstPoly >= 0 && firstDiff >= 0) uf.unite(firstPoly, firstDiff);
      }
    };
    const auto viasOf = [&](std::size_t s, Layer vl, bool isCut) {
      const cell::FlatLayout& fl = s < P ? us[ps[s].unit].flat : hier.residual();
      const geom::Transform t = srcT(s);
      const Rect lw = s < P ? t.inverted()(*w) : *w;
      const RectIndex& idx = fl.indexOn(vl);
      for (const int qi : idx.queryTouching(lw)) {
        viaJoin(t(idx.rect(static_cast<std::size_t>(qi))), isCut);
      }
    };
    viasOf(a, Layer::Contact, true);
    viasOf(b, Layer::Contact, true);
    viasOf(a, Layer::Buried, false);
    viasOf(b, Layer::Buried, false);
  }

  // --- 3. net ids: labels (bound at world coordinates) first -------------
  std::vector<int> netOfRoot(off[P + 1], -1);
  const auto netOfGlobal = [&](int g) -> int {
    int& net = netOfRoot[static_cast<std::size_t>(uf.find(g))];
    if (net < 0) {
      net = res.netlist.anonNet();
      ++res.netCount;
    }
    return net;
  };
  res.labelBindings.reserve(labels.size());
  for (const NetLabel& lbl : labels) {
    int bound = -1;
    const int k = condSlot(lbl.layer);
    if (k >= 0) {
      const Rect pr{lbl.at.x, lbl.at.y, lbl.at.x, lbl.at.y};
      const auto tryBind = [&](std::size_t s) {
        if (bound >= 0) return;
        forPieces(s, k, pr, [&](int g, const Rect& wr) {
          if (bound >= 0 || !wr.contains(lbl.at)) return;
          bound = netOfGlobal(g);
          res.netlist.rename(bound, lbl.name);
        });
      };
      tryBind(P);  // top-level wiring owns most labels; placements next
      hier.forEachPlacementNear(pr, 0, [&](std::size_t s) { tryBind(s); });
    }
    res.labelBindings.push_back({lbl.name, lbl.layer, lbl.at, bound});
  }

  // --- 4. transistors: replicate each unit's devices per placement -------
  const auto emitDevices = [&](std::size_t s) {
    const StitchSrc& x = srcX(s);
    const geom::Transform t = srcT(s);
    const auto remap = [&](int localNet) -> int {
      if (localNet < 0) return -1;
      return netOfGlobal(static_cast<int>(off[s]) +
                         x.netRep[static_cast<std::size_t>(localNet)]);
    };
    for (const netlist::Transistor& lt : x.res.netlist.transistors()) {
      netlist::Transistor g = lt;  // kind and W/L are rigid-invariant
      g.at = t(lt.at);
      g.gate = remap(lt.gate);
      g.source = remap(lt.source);
      g.drain = remap(lt.drain);
      res.netlist.add(g);
    }
    res.unresolvedGates += x.res.unresolvedGates;
  };
  for (std::size_t s = 0; s < P; ++s) emitDevices(s);
  emitDevices(P);

  // Materialize every remaining node so netCount is the true node count.
  for (std::size_t s = 0; s <= P; ++s) {
    for (std::size_t i = 0; i < srcX(s).res.pieces.size(); ++i) {
      (void)netOfGlobal(static_cast<int>(off[s] + i));
    }
  }

  // --- 5. per-net ERC classification (world coordinates) -----------------
  res.netInfo.resize(res.netlist.nets().size());
  const auto reachesBoundary = [&opts](const Rect& r) {
    if (!opts.boundary) return false;
    const Rect& bd = *opts.boundary;
    return r.x0 <= bd.x0 || r.x1 >= bd.x1 || r.y0 <= bd.y0 || r.y1 >= bd.y1;
  };
  if (opts.keepPieces) res.pieces.reserve(off[P + 1]);
  for (std::size_t s = 0; s <= P; ++s) {
    const StitchSrc& x = srcX(s);
    const geom::Transform t = srcT(s);
    for (std::size_t i = 0; i < x.res.pieces.size(); ++i) {
      const auto& pc = x.res.pieces[i];
      const Rect wr = t(pc.r);
      const int net = netOfGlobal(static_cast<int>(off[s] + i));
      NetInfo& info = res.netInfo[static_cast<std::size_t>(net)];
      if (info.pieces == 0) info.at = wr.center();
      ++info.pieces;
      info.layerMask |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(pc.layer));
      info.touchesBoundary = info.touchesBoundary || reachesBoundary(wr);
      if (opts.keepPieces) res.pieces.push_back({pc.layer, wr, net});
    }
  }
  for (const netlist::Transistor& t : res.netlist.transistors()) {
    if (t.gate >= 0) ++res.netInfo[static_cast<std::size_t>(t.gate)].gates;
    if (t.source >= 0) ++res.netInfo[static_cast<std::size_t>(t.source)].terminals;
    if (t.drain >= 0) ++res.netInfo[static_cast<std::size_t>(t.drain)].terminals;
  }
  for (std::size_t i = 0; i < res.netInfo.size(); ++i) {
    res.netInfo[i].named = res.netlist.nets()[i].isNamed;
  }
  return res;
}

bool netlistsEquivalent(const ExtractResult& a, const ExtractResult& b, std::string* why) {
  const auto fail = [&](std::string msg) {
    if (why) *why = std::move(msg);
    return false;
  };
  if (a.netCount != b.netCount) {
    return fail("net count " + std::to_string(a.netCount) + " vs " +
                std::to_string(b.netCount));
  }
  const auto& ta = a.netlist.transistors();
  const auto& tb = b.netlist.transistors();
  if (ta.size() != tb.size()) {
    return fail("transistor count " + std::to_string(ta.size()) + " vs " +
                std::to_string(tb.size()));
  }

  // Intrinsic device keys (location, kind, W/L): rank both lists; the
  // sorted key sequences must match exactly.
  using Key = std::tuple<Coord, Coord, int, Coord, Coord>;
  const auto ranked = [](const std::vector<netlist::Transistor>& ts) {
    std::vector<std::pair<Key, int>> ks(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ks[i] = {Key{ts[i].at.x, ts[i].at.y, static_cast<int>(ts[i].kind), ts[i].length,
                   ts[i].width},
               static_cast<int>(i)};
    }
    std::sort(ks.begin(), ks.end());
    return ks;
  };
  const auto ka = ranked(ta);
  const auto kb = ranked(tb);
  for (std::size_t i = 0; i < ka.size(); ++i) {
    if (ka[i].first != kb[i].first) {
      return fail("transistor multisets differ at rank " + std::to_string(i));
    }
  }

  // Rename-independent connectivity: each net's signature is the sorted
  // set of (device rank, role) it touches, with source/drain folded to
  // one role (extraction picks them arbitrarily). The signature
  // multisets must match.
  const auto signatures = [](const ExtractResult& r,
                             const std::vector<std::pair<Key, int>>& ks) {
    const auto& ts = r.netlist.transistors();
    std::vector<int> rankOf(ts.size());
    for (std::size_t i = 0; i < ks.size(); ++i) {
      rankOf[static_cast<std::size_t>(ks[i].second)] = static_cast<int>(i);
    }
    std::vector<std::vector<std::pair<int, int>>> sig(r.netlist.nets().size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const int rk = rankOf[i];
      if (ts[i].gate >= 0) sig[static_cast<std::size_t>(ts[i].gate)].push_back({rk, 0});
      if (ts[i].source >= 0) sig[static_cast<std::size_t>(ts[i].source)].push_back({rk, 1});
      if (ts[i].drain >= 0) sig[static_cast<std::size_t>(ts[i].drain)].push_back({rk, 1});
    }
    for (auto& s : sig) std::sort(s.begin(), s.end());
    std::sort(sig.begin(), sig.end());
    return sig;
  };
  if (signatures(a, ka) != signatures(b, kb)) {
    return fail("net connection signatures differ");
  }
  if (why) why->clear();
  return true;
}

std::vector<NetLabel> labelsOf(const cell::Cell& c) {
  std::vector<NetLabel> labels;
  labels.reserve(c.bristles().size());
  for (const cell::Bristle& b : c.bristles()) {
    labels.push_back(NetLabel{b.net.empty() ? b.name : b.net, b.layer, b.pos});
  }
  return labels;
}

ExtractResult extractCell(const cell::Cell& c, const ExtractOptions& opts) {
  const std::vector<NetLabel> labels =
      opts.labelFromBristles ? labelsOf(c) : std::vector<NetLabel>{};
  if (opts.hierarchical) {
    const cell::HierIndex hier(c);
    return extractHier(hier, labels, opts);
  }
  return extractFlat(cell::flatten(c), labels, opts);
}

}  // namespace bb::extract
