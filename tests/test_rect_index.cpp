/// Spatial-index engine tests: RectIndex query correctness against brute
/// scans, and end-to-end equivalence — indexed DRC, extraction and
/// connectedComponents must produce bit-identical results to the
/// reference brute-force paths, on random rect soups and on the sample
/// chips' generated cells. Extraction is also held field for field to a
/// verbatim copy of the earlier single-list extractor.

#include "core/samples.hpp"
#include "core/session.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/poly.hpp"
#include "geom/rect_index.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <map>
#include <numeric>
#include <random>
#include <thread>

namespace bb {
namespace {

using geom::Coord;
using geom::Rect;
using geom::RectIndex;
using tech::Layer;

std::vector<Rect> randomRects(std::size_t n, Coord span, Coord maxSide, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Coord> pos(0, span);
  std::uniform_int_distribution<Coord> side(0, maxSide);
  std::vector<Rect> rs;
  rs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Coord x = pos(rng), y = pos(rng);
    rs.emplace_back(x, y, x + side(rng), y + side(rng));
  }
  return rs;
}

std::vector<int> bruteTouching(const std::vector<Rect>& rs, const Rect& q) {
  std::vector<int> out;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (rs[i].touches(q)) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> bruteWithin(const std::vector<Rect>& rs, const Rect& q, Coord margin) {
  // gap(q, r) <= margin, Chebyshev metric.
  std::vector<int> out;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const Coord dx = std::max({q.x0 - rs[i].x1, rs[i].x0 - q.x1, Coord{0}});
    const Coord dy = std::max({q.y0 - rs[i].y1, rs[i].y0 - q.y1, Coord{0}});
    if (std::max(dx, dy) <= margin) out.push_back(static_cast<int>(i));
  }
  return out;
}

TEST(RectIndex, EmptyIndexReturnsNothing) {
  const RectIndex idx;
  EXPECT_TRUE(idx.queryTouching(Rect{0, 0, 100, 100}).empty());
  EXPECT_TRUE(idx.queryWithin(Rect{0, 0, 100, 100}, 50).empty());
}

TEST(RectIndex, QueryTouchingMatchesBruteOnRandomSoup) {
  const auto rs = randomRects(800, 4000, 120, 1);
  const RectIndex idx(rs);
  std::mt19937 rng(2);
  std::uniform_int_distribution<Coord> pos(-100, 4200);
  std::uniform_int_distribution<Coord> side(0, 400);
  for (int k = 0; k < 300; ++k) {
    const Coord x = pos(rng), y = pos(rng);
    const Rect q{x, y, x + side(rng), y + side(rng)};
    EXPECT_EQ(idx.queryTouching(q), bruteTouching(rs, q)) << geom::toString(q);
  }
}

TEST(RectIndex, QueryWithinIsTheGapPredicate) {
  const auto rs = randomRects(400, 2000, 80, 3);
  const RectIndex idx(rs);
  const Rect q{500, 500, 700, 650};
  for (const Coord margin : {Coord{0}, Coord{7}, Coord{64}}) {
    EXPECT_EQ(idx.queryWithin(q, margin), bruteWithin(rs, q, margin)) << "margin " << margin;
  }
}

TEST(RectIndex, HugeRectAmongTinyOnes) {
  // A die-spanning rail among small features stresses the grid cap.
  auto rs = randomRects(500, 10000, 20, 4);
  rs.emplace_back(0, 4000, 10000, 4012);
  const RectIndex idx(rs);
  const Rect q{5000, 3990, 5040, 4030};
  EXPECT_EQ(idx.queryTouching(q), bruteTouching(rs, q));
}

TEST(RectIndex, MultiCellRectsReportedOnceAtExplicitPitches) {
  // Rects up to ten pitches wide span many grid cells, so every query
  // de-duplicates. Coordinates go negative, some rects have zero width or
  // height, and windows start inside a multi-cell rect, off the grid to
  // the lower left, or past its upper right. Pitches are powers of two;
  // a requested pitch rounds up to one.
  const auto few = randomRects(40, 20, 10, 5);
  EXPECT_EQ(RectIndex(few, 3).cellSize(), 4);
  for (const Coord cs : {Coord{1}, Coord{4}, Coord{16}}) {
    const Coord span = 10 * cs;
    std::mt19937 rng(static_cast<unsigned>(cs));
    std::uniform_int_distribution<Coord> pos(-span, span);
    std::uniform_int_distribution<Coord> side(0, span);
    std::vector<Rect> rs;
    for (int i = 0; i < 240; ++i) {
      const Coord x = pos(rng), y = pos(rng);
      rs.emplace_back(x, y, x + side(rng), y + side(rng));
    }
    rs.emplace_back(-span, 0, -span, span);      // zero width, whole column run
    rs.emplace_back(-span, -span, span, -span);  // zero height, whole row run
    rs.emplace_back(cs, cs, cs, cs);             // a point
    const RectIndex idx(rs, cs);
    ASSERT_EQ(idx.cellSize(), cs);  // the grid cap kept the requested pitch

    std::vector<Rect> windows;
    std::uniform_int_distribution<Coord> far(-3 * span, 3 * span);
    std::uniform_int_distribution<Coord> ext(0, 2 * span);
    for (int k = 0; k < 150; ++k) {
      const Coord x = far(rng), y = far(rng);
      windows.emplace_back(x, y, x + ext(rng), y + ext(rng));
    }
    for (const Rect& r : rs) {
      if (r.width() <= cs && r.height() <= cs) continue;
      // Lower-left corner strictly inside (or on the far edge of) r.
      const Coord x = r.x0 + (r.width() + 1) / 2, y = r.y0 + (r.height() + 1) / 2;
      windows.emplace_back(x, y, x + ext(rng), y + ext(rng));
      windows.emplace_back(x, y, x, y);
    }
    windows.emplace_back(-5 * span, -5 * span, -2 * span, -2 * span);  // below/left of grid
    windows.emplace_back(-5 * span, -5 * span, 5 * span, 5 * span);    // covers it all
    windows.emplace_back(3 * span, 3 * span, 4 * span, 4 * span);      // above/right of grid

    for (const Rect& q : windows) {
      EXPECT_EQ(idx.queryTouching(q), bruteTouching(rs, q))
          << "cellSize " << cs << " window " << geom::toString(q);
      for (const Coord m : {Coord{1}, cs, 3 * cs + 1}) {
        EXPECT_EQ(idx.queryWithin(q, m), bruteWithin(rs, q, m))
            << "cellSize " << cs << " margin " << m << " window " << geom::toString(q);
      }
    }
  }
}

TEST(Rect, ExpandedXY) {
  const Rect a{0, 0, 10, 4};
  EXPECT_EQ(a.expandedXY(3, 1), (Rect{-3, -1, 13, 5}));
  EXPECT_EQ(a.expandedXY(0, 0), a);
  // Over-shrinking an axis collapses it to the midline, like expanded().
  const Rect s = a.expandedXY(-1, -3);
  EXPECT_EQ(s, (Rect{1, 2, 9, 2}));
  EXPECT_TRUE(s.isEmpty());
}

TEST(ConnectedComponents, IndexedMatchesBruteBitIdentical) {
  for (const unsigned seed : {10u, 11u, 12u}) {
    // Clustered sizes around the 32-rect brute cutoff and well above it.
    for (const std::size_t n : {20u, 33u, 500u, 2000u}) {
      const auto rs = randomRects(n, static_cast<Coord>(n * 6), 30, seed);
      const auto fast = geom::connectedComponents(rs);
      const auto ref = geom::connectedComponentsBrute(rs);
      EXPECT_EQ(fast.count, ref.count) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(fast.componentOf, ref.componentOf) << "n=" << n << " seed=" << seed;
    }
  }
}

// --- DRC equivalence ----------------------------------------------------

bool sameViolations(const std::vector<drc::Violation>& a,
                    const std::vector<drc::Violation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].rule != b[i].rule || a[i].layerA != b[i].layerA || a[i].layerB != b[i].layerB ||
        a[i].where != b[i].where || a[i].message != b[i].message) {
      return false;
    }
  }
  return true;
}

/// Indexed, brute and parallel-indexed DRC over the same artwork must
/// agree violation-for-violation, in order.
void expectDrcEquivalent(const cell::FlatLayout& flat, const geom::Rect& boundary) {
  drc::DrcOptions brute;
  brute.useSpatialIndex = false;
  brute.boundaryConditions = false;
  drc::DrcOptions indexed = brute;
  indexed.useSpatialIndex = true;
  drc::DrcOptions parallel = indexed;
  parallel.threads = 4;

  const auto deck = tech::meadConwayRules();
  const auto repB = drc::checkFlat(flat, boundary, deck, brute);
  const auto repI = drc::checkFlat(flat, boundary, deck, indexed);
  const auto repP = drc::checkFlat(flat, boundary, deck, parallel);
  EXPECT_TRUE(sameViolations(repB.violations, repI.violations))
      << "brute " << repB.summary() << "\nindexed " << repI.summary();
  EXPECT_TRUE(sameViolations(repB.violations, repP.violations))
      << "brute " << repB.summary() << "\nparallel " << repP.summary();
}

TEST(DrcEquivalence, RandomLayerSoup) {
  // Dirty-by-construction artwork: random rects on the conducting layers
  // produce plenty of width, spacing, gate and contact violations.
  std::mt19937 rng(42);
  std::uniform_int_distribution<Coord> pos(0, geom::lambda(300));
  std::uniform_int_distribution<Coord> side(1, geom::lambda(6));
  cell::FlatLayout flat;
  const Layer layers[] = {Layer::Metal, Layer::Poly, Layer::Diffusion, Layer::Contact,
                          Layer::Buried};
  for (const Layer l : layers) {
    for (int i = 0; i < 220; ++i) {
      const Coord x = pos(rng), y = pos(rng);
      flat.on(l).emplace_back(x, y, x + side(rng), y + side(rng));
    }
  }
  expectDrcEquivalent(flat, flat.bbox());
}

TEST(DrcEquivalence, SampleChipCells) {
  for (const icl::ChipDesc& desc :
       {core::samples::smallChip(4), core::samples::segmentedChip(4),
        core::samples::prototypeChip()}) {
    auto compiled = core::compileChip(desc);
    ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
    for (const cell::Cell* c : (*compiled)->lib.all()) {
      expectDrcEquivalent(cell::flatten(*c), c->boundary());
    }
  }
}

// --- extraction equivalence ---------------------------------------------

/// The pre-per-layer `extractFlat` reference path (`useSpatialIndex =
/// false`) replicated verbatim: one mixed list of conductor pieces, every
/// candidate query an all-pairs scan over it, nets numbered through a
/// root -> net map. Production's brute path now shares the per-layer code
/// with the indexed one, so this copy is the independent oracle.
extract::ExtractResult refExtractFlat(const cell::FlatLayout& flat,
                                      const std::vector<extract::NetLabel>& labels,
                                      const extract::ExtractOptions& opts) {
  extract::ExtractResult res;
  struct Piece {
    Layer layer;
    Rect r;
  };
  const auto forTouching = [](const std::vector<Rect>& rects, const Rect& q, auto&& f) {
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (rects[i].touches(q)) f(static_cast<int>(i));
    }
  };
  std::vector<int> parent;
  const auto find = [&](int a) {
    while (parent[static_cast<std::size_t>(a)] != a) {
      parent[static_cast<std::size_t>(a)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(a)])];
      a = parent[static_cast<std::size_t>(a)];
    }
    return a;
  };
  const auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(a)] = b;
  };

  // --- 1. gates: poly over diffusion, not under a buried contact
  struct GateRegion {
    Rect r;
    bool depletion = false;
  };
  std::vector<GateRegion> gates;
  for (const Rect& p : flat.on(Layer::Poly)) {
    forTouching(flat.on(Layer::Diffusion), p, [&](int di) {
      const Rect& d = flat.on(Layer::Diffusion)[static_cast<std::size_t>(di)];
      auto g = p.intersectWith(d);
      if (!g) return;
      bool buried = false;
      forTouching(flat.on(Layer::Buried), *g, [&](int) { buried = true; });
      if (buried) return;
      GateRegion gr{*g, false};
      forTouching(flat.on(Layer::Implant), gr.r, [&](int ii) {
        if (flat.on(Layer::Implant)[static_cast<std::size_t>(ii)].contains(gr.r)) {
          gr.depletion = true;
        }
      });
      gates.push_back(gr);
    });
  }
  std::sort(gates.begin(), gates.end(), [](const GateRegion& a, const GateRegion& b) {
    return std::tie(a.r.x0, a.r.y0, a.r.x1, a.r.y1) < std::tie(b.r.x0, b.r.y0, b.r.x1, b.r.y1);
  });
  gates.erase(std::unique(gates.begin(), gates.end(),
                          [](const GateRegion& a, const GateRegion& b) { return a.r == b.r; }),
              gates.end());

  // --- 2. fracture diffusion at gates
  std::vector<Rect> gateRects;
  for (const GateRegion& g : gates) gateRects.push_back(g.r);
  std::vector<Piece> pieces;
  std::vector<Rect> holes;
  for (const Rect& d : flat.on(Layer::Diffusion)) {
    holes.clear();
    forTouching(gateRects, d, [&](int i) {
      const Rect& g = gateRects[static_cast<std::size_t>(i)];
      if (g.overlaps(d)) holes.push_back(g);
    });
    std::sort(holes.begin(), holes.end(), [](const Rect& a, const Rect& b) {
      return std::tie(a.x0, a.y0, a.x1, a.y1) < std::tie(b.x0, b.y0, b.x1, b.y1);
    });
    holes.erase(std::unique(holes.begin(), holes.end()), holes.end());
    for (const Rect& frag : extract::subtractRects(d, holes)) {
      pieces.push_back({Layer::Diffusion, frag});
    }
  }
  for (const Rect& p : flat.on(Layer::Poly)) pieces.push_back({Layer::Poly, p});
  for (const Rect& m : flat.on(Layer::Metal)) pieces.push_back({Layer::Metal, m});
  for (const auto& [pl, poly] : flat.polygons) {
    if (pl != Layer::Diffusion && pl != Layer::Poly && pl != Layer::Metal) continue;
    const std::vector<Rect> region = geom::poly::isRectilinear(poly)
                                         ? geom::poly::rectDecompose(poly)
                                         : std::vector<Rect>{poly.bbox()};
    for (const Rect& frag : region) pieces.push_back({pl, frag});
  }

  // --- 3. connectivity
  std::vector<Rect> pieceRects;
  for (const Piece& p : pieces) pieceRects.push_back(p.r);
  parent.resize(pieces.size());
  std::iota(parent.begin(), parent.end(), 0);
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    forTouching(pieceRects, pieces[i].r, [&](int j) {
      if (j <= static_cast<int>(i)) return;
      if (pieces[static_cast<std::size_t>(j)].layer != pieces[i].layer) return;
      unite(static_cast<int>(i), j);
    });
  }
  auto connectAcross = [&](const Rect& via, Layer a, Layer b) {
    int firstA = -1, firstB = -1;
    forTouching(pieceRects, via, [&](int i) {
      const Piece& p = pieces[static_cast<std::size_t>(i)];
      if (p.layer == a) {
        if (firstA < 0) firstA = i;
        else unite(i, firstA);
      }
      if (p.layer == b) {
        if (firstB < 0) firstB = i;
        else unite(i, firstB);
      }
    });
    if (firstA >= 0 && firstB >= 0) unite(firstA, firstB);
  };
  for (const Rect& cut : flat.on(Layer::Contact)) {
    bool hasPoly = false, hasDiff = false;
    forTouching(pieceRects, cut, [&](int i) {
      const Piece& p = pieces[static_cast<std::size_t>(i)];
      hasPoly |= p.layer == Layer::Poly;
      hasDiff |= p.layer == Layer::Diffusion;
    });
    if (hasPoly) connectAcross(cut, Layer::Metal, Layer::Poly);
    if (hasDiff && !hasPoly) connectAcross(cut, Layer::Metal, Layer::Diffusion);
  }
  for (const Rect& b : flat.on(Layer::Buried)) {
    connectAcross(b, Layer::Poly, Layer::Diffusion);
  }

  // --- 4. net ids, labels first
  std::map<int, int> rootToNet;
  auto netOfPiece = [&](int idx) -> int {
    const int root = find(idx);
    auto it = rootToNet.find(root);
    if (it != rootToNet.end()) return it->second;
    const int id = res.netlist.anonNet();
    rootToNet[root] = id;
    return id;
  };
  for (const extract::NetLabel& lbl : labels) {
    int bound = -1;
    forTouching(pieceRects, Rect{lbl.at.x, lbl.at.y, lbl.at.x, lbl.at.y}, [&](int i) {
      if (bound >= 0) return;
      if (pieces[static_cast<std::size_t>(i)].layer == lbl.layer &&
          pieces[static_cast<std::size_t>(i)].r.contains(lbl.at)) {
        bound = netOfPiece(i);
        res.netlist.rename(bound, lbl.name);
      }
    });
    res.labelBindings.push_back({lbl.name, lbl.layer, lbl.at, bound});
  }

  // --- 5. transistors
  for (const GateRegion& g : gates) {
    int gateNet = -1;
    forTouching(pieceRects, g.r, [&](int i) {
      if (gateNet >= 0) return;
      if (pieces[static_cast<std::size_t>(i)].layer == Layer::Poly &&
          pieces[static_cast<std::size_t>(i)].r.overlaps(g.r)) {
        gateNet = netOfPiece(i);
      }
    });
    std::vector<int> sd;
    forTouching(pieceRects, g.r, [&](int i) {
      const Piece& p = pieces[static_cast<std::size_t>(i)];
      if (p.layer != Layer::Diffusion) return;
      const int net = netOfPiece(i);
      if (std::find(sd.begin(), sd.end(), net) == sd.end()) sd.push_back(net);
    });
    netlist::Transistor t;
    t.kind = g.depletion ? netlist::TransKind::Depletion : netlist::TransKind::Enhancement;
    t.gate = gateNet;
    t.at = g.r.center();
    bool horizontalFlow = false;
    forTouching(pieceRects, g.r, [&](int i) {
      const Piece& p = pieces[static_cast<std::size_t>(i)];
      if (p.layer != Layer::Diffusion) return;
      if (p.r.x1 <= g.r.x0 || p.r.x0 >= g.r.x1) horizontalFlow = true;
    });
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
  for (std::size_t i = 0; i < pieces.size(); ++i) netOfPiece(static_cast<int>(i));
  res.netCount = rootToNet.size();

  // --- 6. per-net ERC classification
  res.netInfo.resize(res.netlist.nets().size());
  const auto reachesBoundary = [&opts](const Rect& r) {
    if (!opts.boundary) return false;
    const Rect& b = *opts.boundary;
    return r.x0 <= b.x0 || r.x1 >= b.x1 || r.y0 <= b.y0 || r.y1 >= b.y1;
  };
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Piece& p = pieces[i];
    extract::NetInfo& info =
        res.netInfo[static_cast<std::size_t>(netOfPiece(static_cast<int>(i)))];
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
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      res.pieces.push_back({pieces[i].layer, pieces[i].r, netOfPiece(static_cast<int>(i))});
    }
  }
  return res;
}

/// Every field of two extraction results must match: counts, nets,
/// devices, label bindings, per-net ERC classification and pieces.
void expectSameExtract(const extract::ExtractResult& want, const extract::ExtractResult& got,
                       const std::string& what) {
  EXPECT_EQ(want.netCount, got.netCount) << what;
  EXPECT_EQ(want.unresolvedGates, got.unresolvedGates) << what;
  // toText covers device kinds, W/L, positions and net naming.
  EXPECT_EQ(want.netlist.toText(), got.netlist.toText()) << what;
  const auto& nw = want.netlist.nets();
  const auto& ng = got.netlist.nets();
  ASSERT_EQ(nw.size(), ng.size()) << what;
  for (std::size_t i = 0; i < nw.size(); ++i) {
    EXPECT_EQ(nw[i].name, ng[i].name) << what << " net " << i;
    EXPECT_EQ(nw[i].isNamed, ng[i].isNamed) << what << " net " << i;
  }
  const auto& tw = want.netlist.transistors();
  const auto& tg = got.netlist.transistors();
  ASSERT_EQ(tw.size(), tg.size()) << what;
  for (std::size_t i = 0; i < tw.size(); ++i) {
    EXPECT_TRUE(tw[i].kind == tg[i].kind && tw[i].gate == tg[i].gate &&
                tw[i].source == tg[i].source && tw[i].drain == tg[i].drain &&
                tw[i].width == tg[i].width && tw[i].length == tg[i].length &&
                tw[i].at == tg[i].at)
        << what << " transistor " << i;
  }
  ASSERT_EQ(want.labelBindings.size(), got.labelBindings.size()) << what;
  for (std::size_t i = 0; i < want.labelBindings.size(); ++i) {
    const auto& a = want.labelBindings[i];
    const auto& b = got.labelBindings[i];
    EXPECT_TRUE(a.name == b.name && a.layer == b.layer && a.at == b.at && a.net == b.net)
        << what << " label " << i << " " << a.name;
  }
  ASSERT_EQ(want.netInfo.size(), got.netInfo.size()) << what;
  for (std::size_t i = 0; i < want.netInfo.size(); ++i) {
    const auto& a = want.netInfo[i];
    const auto& b = got.netInfo[i];
    EXPECT_TRUE(a.pieces == b.pieces && a.gates == b.gates && a.terminals == b.terminals &&
                a.named == b.named && a.touchesBoundary == b.touchesBoundary &&
                a.layerMask == b.layerMask && a.at == b.at)
        << what << " netInfo " << i;
  }
  ASSERT_EQ(want.pieces.size(), got.pieces.size()) << what;
  for (std::size_t i = 0; i < want.pieces.size(); ++i) {
    const auto& a = want.pieces[i];
    const auto& b = got.pieces[i];
    EXPECT_TRUE(a.layer == b.layer && a.r == b.r && a.net == b.net) << what << " piece " << i;
  }
}

/// Indexed and brute extraction of `flat` must both reproduce the
/// reference copy field for field, with and without a boundary and
/// piece records.
void expectExtractMatchesReference(const cell::FlatLayout& flat,
                                   const std::vector<extract::NetLabel>& labels,
                                   const std::string& what) {
  for (const bool keep : {false, true}) {
    for (const bool withBoundary : {false, true}) {
      extract::ExtractOptions opts;
      opts.keepPieces = keep;
      if (withBoundary) opts.boundary = flat.bbox().expanded(-geom::lambda(2));
      const auto ref = refExtractFlat(flat, labels, opts);
      for (const bool useIdx : {true, false}) {
        opts.useSpatialIndex = useIdx;
        expectSameExtract(ref, extract::extractFlat(flat, labels, opts),
                          what + (useIdx ? " indexed" : " brute") +
                              (keep ? " keepPieces" : "") + (withBoundary ? " boundary" : ""));
      }
    }
  }
}

void expectExtractEquivalent(const cell::Cell& c) {
  extract::ExtractOptions brute;
  brute.useSpatialIndex = false;
  extract::ExtractOptions indexed;
  indexed.useSpatialIndex = true;

  const auto exB = extract::extractCell(c, brute);
  const auto exI = extract::extractCell(c, indexed);
  expectSameExtract(exB, exI, c.name());
}

TEST(ExtractEquivalence, SampleChipCells) {
  for (const icl::ChipDesc& desc :
       {core::samples::smallChip(4), core::samples::segmentedChip(4)}) {
    auto compiled = core::compileChip(desc);
    ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
    for (const cell::Cell* c : (*compiled)->lib.all()) {
      expectExtractEquivalent(*c);
    }
  }
}

TEST(ExtractEquivalence, SampleChipCore) {
  auto compiled = core::compileChip(core::samples::smallChip(8));
  ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
  expectExtractEquivalent(*(*compiled)->core);
}

TEST(ExtractReference, SampleCoresMatchThePreviousExtractor) {
  for (const icl::ChipDesc& desc :
       {core::samples::smallChip(8), core::samples::segmentedChip(4),
        core::samples::prototypeChip()}) {
    auto compiled = core::compileChip(desc);
    ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
    const cell::Cell& core = *(*compiled)->core;
    expectExtractMatchesReference(cell::flatten(core), extract::labelsOf(core), desc.name);
  }
}

/// Random artwork on every layer extraction reads — gates, depletion
/// implants, contacts, buried contacts — plus labels at piece corners and
/// in empty space, on conductor and non-conductor layers alike.
cell::FlatLayout randomArtwork(unsigned seed, std::vector<extract::NetLabel>& labels) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Coord> pos(0, geom::lambda(120));
  std::uniform_int_distribution<Coord> side(1, geom::lambda(8));
  cell::FlatLayout flat;
  for (const Layer l : {Layer::Diffusion, Layer::Poly, Layer::Metal, Layer::Implant,
                        Layer::Contact, Layer::Buried}) {
    const int n = l == Layer::Implant || l == Layer::Buried ? 40 : 160;
    for (int i = 0; i < n; ++i) {
      const Coord x = pos(rng), y = pos(rng);
      flat.on(l).emplace_back(x, y, x + side(rng), y + side(rng));
    }
  }
  for (const Layer l : {Layer::Diffusion, Layer::Poly, Layer::Metal, Layer::Contact,
                        Layer::Implant}) {
    for (std::size_t i = 0; i < 12; ++i) {
      const Rect& r = flat.on(l)[(i * 7) % flat.on(l).size()];
      labels.push_back({std::to_string(labels.size()) + "corner", l, geom::Point{r.x0, r.y1}});
      labels.push_back({std::to_string(labels.size()) + "any", l, geom::Point{pos(rng), pos(rng)}});
    }
  }
  return flat;
}

TEST(ExtractReference, RandomArtworkWithBuriedContactsAndOffLayerLabels) {
  for (const unsigned seed : {3u, 4u}) {
    std::vector<extract::NetLabel> labels;
    const cell::FlatLayout flat = randomArtwork(seed, labels);
    expectExtractMatchesReference(flat, labels, "seed " + std::to_string(seed));
  }
}

TEST(ExtractReference, PolygonPiecesOnPolyAndMetalTakeTheOwnedIndex) {
  std::vector<extract::NetLabel> labels;
  cell::FlatLayout flat = randomArtwork(5, labels);
  // Rectilinear L- and U-shapes on every conductor layer (poly and metal
  // stop being exactly their rect lists), one non-rectilinear polygon
  // (bbox stand-in) and one on a non-conductor layer (ignored).
  std::mt19937 rng(6);
  std::uniform_int_distribution<Coord> pos(0, geom::lambda(110));
  const Coord a = geom::lambda(6), b = geom::lambda(2);
  for (const Layer l : {Layer::Poly, Layer::Metal, Layer::Diffusion, Layer::Poly, Layer::Metal}) {
    for (int i = 0; i < 6; ++i) {
      const Coord x = pos(rng), y = pos(rng);
      flat.polygons.push_back(
          {l, geom::Polygon{{{x, y}, {x + a, y}, {x + a, y + b}, {x + b, y + b}, {x + b, y + a},
                             {x, y + a}}}});
      flat.polygons.push_back(
          {l, geom::Polygon{{{x, y}, {x + a, y}, {x + a, y + a}, {x + a - b, y + a},
                             {x + a - b, y + b}, {x + b, y + b}, {x + b, y + a}, {x, y + a}}}});
    }
  }
  flat.polygons.push_back({Layer::Metal, geom::Polygon{{{0, 0}, {a, b}, {b, a}}}});
  flat.polygons.push_back({Layer::Contact, geom::Polygon{{{0, 0}, {a, 0}, {a, a}, {0, a}}}});
  const Rect& p0 = flat.on(Layer::Poly)[0];
  labels.push_back({"polyLabel", Layer::Poly, geom::Point{p0.x1, p0.y0}});
  expectExtractMatchesReference(flat, labels, "polygons");
}

// --- FlatLayout index cache ---------------------------------------------

TEST(FlatLayoutIndex, CachedAndInvalidatedOnMutation) {
  cell::FlatLayout flat;
  flat.on(Layer::Metal).emplace_back(0, 0, 10, 10);
  const RectIndex* first = &flat.indexOn(Layer::Metal);
  EXPECT_EQ(first, &flat.indexOn(Layer::Metal));  // cached
  EXPECT_EQ(first->size(), 1u);

  flat.on(Layer::Metal).emplace_back(100, 100, 120, 120);  // invalidates
  const RectIndex& rebuilt = flat.indexOn(Layer::Metal);
  EXPECT_EQ(rebuilt.size(), 2u);
  EXPECT_EQ(rebuilt.queryTouching(Rect{99, 99, 101, 101}), (std::vector<int>{1}));
}

TEST(FlatLayoutIndex, FlattenIntoDropsBuiltIndexes) {
  // flattenInto appends to the layer vectors directly; it must still drop
  // indexes built before it, or they would read a stale span.
  cell::Cell leaf("leaf");
  leaf.addRect(Layer::Metal, Rect{0, 0, 10, 10});
  leaf.addPath(Layer::Poly, geom::Path{{{0, 0}, {0, 40}, {40, 40}}, 4});
  cell::Cell top("top");
  top.addInstance(&leaf, geom::Transform::translate({500, 500}));

  cell::FlatLayout flat = cell::flatten(leaf);
  ASSERT_EQ(flat.indexOn(Layer::Metal).size(), 1u);
  ASSERT_EQ(flat.indexOn(Layer::Poly).size(), 2u);
  EXPECT_TRUE(flat.indexOn(Layer::Diffusion).queryTouching(Rect{0, 0, 1000, 1000}).empty());

  cell::flattenInto(flat, top);
  const RectIndex& metal = flat.indexOn(Layer::Metal);
  ASSERT_EQ(metal.size(), 2u);
  EXPECT_EQ(&metal.rect(0), flat.rects[static_cast<std::size_t>(Layer::Metal)].data());
  EXPECT_EQ(metal.queryTouching(Rect{505, 505, 506, 506}), (std::vector<int>{1}));
  EXPECT_EQ(flat.indexOn(Layer::Poly).size(), 4u);
  EXPECT_EQ(flat.indexOn(Layer::Poly).queryTouching(Rect{500, 520, 501, 521}),
            (std::vector<int>{2}));
}

TEST(FlatLayoutIndex, ConcurrentFirstQueriesShareOneIndexPerLayer) {
  // Several threads make the first indexOn call of every layer on one
  // fresh FlatLayout, each starting at a different layer so first calls
  // overlap: each layer is built once and every thread gets that object.
  cell::FlatLayout flat;
  std::mt19937 rng(7);
  std::uniform_int_distribution<Coord> pos(0, 5000), size(1, 60);
  for (const Layer l : tech::kAllLayers) {
    for (int i = 0; i < 2000; ++i) {
      const Coord x = pos(rng), y = pos(rng);
      flat.on(l).emplace_back(x, y, x + size(rng), y + size(rng));
    }
  }
  constexpr std::size_t kThreads = 4;
  std::array<std::array<const RectIndex*, tech::kLayerCount>, kThreads> seen{};
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      for (std::size_t k = 0; k < tech::kLayerCount; ++k) {
        const std::size_t li = (t + k) % tech::kLayerCount;
        seen[t][li] = &flat.indexOn(tech::kAllLayers[li]);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const cell::FlatLayout& built = flat;  // the const on(): no invalidation
  for (std::size_t li = 0; li < tech::kLayerCount; ++li) {
    const Layer l = tech::kAllLayers[li];
    for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t][li], seen[0][li]);
    EXPECT_EQ(seen[0][li], &built.indexOn(l));
    ASSERT_EQ(seen[0][li]->size(), built.on(l).size());
    EXPECT_EQ(&seen[0][li]->rect(0), built.on(l).data());  // reads the layer in place
  }
}

}  // namespace
}  // namespace bb
