/// The hierarchical-compile layer: cell::HierIndex decomposition,
/// checkHier/extractHier equivalence against the flat oracles (clean and
/// violation-seeded arrays), SREF/AREF mask emission with CIF/GDS
/// round-trips, and the lazy-resolution layout::View constructor with
/// its instance-materialization counter.

#include "cell/hier_index.hpp"
#include "cell/library.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/sweep.hpp"
#include "layout/cif.hpp"
#include "layout/cif_parser.hpp"
#include "layout/gds.hpp"
#include "layout/view.hpp"
#include "tech/rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace bb {
namespace {

using cell::CellLibrary;
using cell::FlatLayout;
using cell::HierIndex;
using geom::Coord;
using geom::lambda;
using geom::Rect;
using tech::Layer;

/// The bench leaf shrunk into a fixture: a 20L x 20L DRC-clean tile with
/// one enhancement transistor (poly strip over a diffusion strip), a
/// metal/poly contact, and a full-width metal strip so horizontally
/// abutted instances share a net.
cell::Cell* makeLeaf(CellLibrary& lib) {
  cell::Cell* leaf = lib.create("hier_leaf");
  leaf->setBoundary(Rect{0, 0, lambda(20), lambda(20)});
  leaf->addRect(Layer::Diffusion, Rect{lambda(8), lambda(2), lambda(10), lambda(18)});
  leaf->addRect(Layer::Poly, Rect{lambda(2), lambda(9), lambda(18), lambda(11)});
  leaf->addRect(Layer::Poly, Rect{lambda(3), lambda(8), lambda(7), lambda(12)});
  leaf->addRect(Layer::Metal, Rect{lambda(3), lambda(8), lambda(7), lambda(12)});
  leaf->addRect(Layer::Contact, Rect{lambda(4), lambda(9), lambda(6), lambda(11)});
  leaf->addRect(Layer::Metal, Rect{0, lambda(15), lambda(20), lambda(18)});
  return leaf;
}

/// n x n array of `leaf` at its own pitch (instances abut exactly).
cell::Cell* makeArray(CellLibrary& lib, cell::Cell* leaf, int n,
                      const char* name = "hier_array") {
  cell::Cell* top = lib.create(name);
  const Coord pitch = lambda(20);
  top->setBoundary(Rect{0, 0, pitch * n, pitch * n});
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      top->addInstance(leaf, geom::Transform::translate({pitch * i, pitch * j}));
    }
  }
  return top;
}

/// Order-insensitive violation fingerprint (checkHier documents a
/// different violation order than the flat scan).
std::multiset<std::string> violationSet(const drc::DrcReport& rep) {
  std::multiset<std::string> out;
  for (const drc::Violation& v : rep.violations) {
    out.insert(v.rule + " " + geom::toString(v.where));
  }
  return out;
}

std::vector<Rect> sortedRects(std::vector<Rect> rs) {
  std::sort(rs.begin(), rs.end(), [](const Rect& a, const Rect& b) {
    return std::tie(a.x0, a.y0, a.x1, a.y1) < std::tie(b.x0, b.y0, b.x1, b.y1);
  });
  return rs;
}

// -------------------------------------------------------- decomposition

TEST(HierIndex, ArrayDecomposesIntoOneUnitAndNPlacements) {
  CellLibrary lib;
  cell::Cell* leaf = makeLeaf(lib);
  cell::Cell* top = makeArray(lib, leaf, 3);
  const HierIndex hier{*top};

  ASSERT_EQ(hier.units().size(), 1u);
  EXPECT_EQ(hier.units()[0].cell, leaf);
  EXPECT_EQ(hier.units()[0].placementCount, 9u);
  EXPECT_EQ(hier.placements().size(), 9u);
  EXPECT_EQ(hier.residual().totalCount(), 0u);

  const std::size_t leafCount = hier.units()[0].flat.totalCount();
  EXPECT_EQ(leafCount, 6u);
  EXPECT_EQ(hier.flatCount(), 9u * leafCount);
  EXPECT_EQ(hier.uniqueCount(), leafCount);
  EXPECT_EQ(hier.flatCount(), cell::flatten(*top).totalCount());
  // Geometry bbox (union of placed unit bboxes), not the cell boundary.
  EXPECT_EQ(hier.bbox(), cell::flatten(*top).bbox());

  // Every placement maps the unit bbox onto its world bbox.
  for (const cell::HierPlacement& p : hier.placements()) {
    EXPECT_EQ(p.unit, 0u);
    EXPECT_EQ(p.worldBBox, p.t(hier.units()[0].bbox));
  }
}

TEST(HierIndex, TinyRepeatedCellsFallIntoTheResidual) {
  CellLibrary lib;
  cell::Cell* dot = lib.create("dot");
  dot->addRect(Layer::Metal, Rect{0, 0, lambda(4), lambda(4)});
  cell::Cell* top = lib.create("top");
  for (int i = 0; i < 4; ++i) {
    top->addInstance(dot, geom::Transform::translate({lambda(8) * i, 0}));
  }
  // One shape < minUnitShapes=2: cheaper re-flattened than indexed.
  const HierIndex hier{*top};
  EXPECT_TRUE(hier.units().empty());
  EXPECT_TRUE(hier.placements().empty());
  EXPECT_EQ(hier.residual().totalCount(), 4u);
  EXPECT_EQ(hier.flatCount(), 4u);
  EXPECT_EQ(hier.uniqueCount(), 4u);
}

TEST(HierIndex, SingleOccurrenceGeometryStaysResidual) {
  CellLibrary lib;
  cell::Cell* leaf = makeLeaf(lib);
  cell::Cell* top = makeArray(lib, leaf, 2);
  // Top-level wiring of its own: must land in the residual, not a unit.
  top->addRect(Layer::Metal, Rect{0, lambda(40), lambda(40), lambda(43)});
  const HierIndex hier{*top};
  ASSERT_EQ(hier.units().size(), 1u);
  EXPECT_EQ(hier.residual().totalCount(), 1u);
  EXPECT_EQ(hier.flatCount(), 4u * 6u + 1u);
}

TEST(HierIndex, ForEachPlacementNearSelectsByWorldBBox) {
  CellLibrary lib;
  cell::Cell* top = makeArray(lib, makeLeaf(lib), 4);
  const HierIndex hier{*top};
  // Strictly inside instance (0,0): exactly one placement is near.
  std::vector<std::size_t> hits;
  hier.forEachPlacementNear(Rect{lambda(2), lambda(2), lambda(18), lambda(18)}, 0,
                            [&](std::size_t pi) { hits.push_back(pi); });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hier.placements()[hits[0]].worldBBox.x0, 0);

  // Whole bbox: all 16, ascending.
  hits.clear();
  hier.forEachPlacementNear(hier.bbox(), 0, [&](std::size_t pi) { hits.push_back(pi); });
  EXPECT_EQ(hits.size(), 16u);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
}

// ------------------------------------------------- DRC equivalence

TEST(HierDrc, CleanArrayStaysCleanUnderBothCheckers) {
  CellLibrary lib;
  cell::Cell* top = makeArray(lib, makeLeaf(lib), 4);
  const tech::RuleDeck deck = tech::meadConwayRules();
  const drc::DeckChecker checker{deck};

  const drc::DrcReport flat = checker.check(cell::flatten(*top), top->boundary());
  const drc::DrcReport hier = checker.checkHier(HierIndex{*top});
  EXPECT_TRUE(flat.clean()) << flat.summary();
  EXPECT_TRUE(hier.clean()) << hier.summary();
}

TEST(HierDrc, SeededCrossInstanceViolationsMatchTheFlatOracle) {
  // Two full-width metal bars near the cell's bottom and top edge: each
  // cell is clean in isolation (12L internal gap), but vertically
  // stacked instances put bar B 2L away from the neighbour's bar A —
  // under the 3L metal spacing rule. Every violation is cross-instance,
  // so this exercises exactly the interaction-region machinery.
  CellLibrary lib;
  cell::Cell* leaf = lib.create("viol_leaf");
  leaf->setBoundary(Rect{0, 0, lambda(20), lambda(20)});
  leaf->addRect(Layer::Metal, Rect{lambda(2), 0, lambda(18), lambda(3)});
  leaf->addRect(Layer::Metal, Rect{lambda(2), lambda(15), lambda(18), lambda(18)});
  cell::Cell* top = makeArray(lib, leaf, 3, "viol_array");

  const tech::RuleDeck deck = tech::meadConwayRules();
  const drc::DeckChecker checker{deck};
  const drc::DrcReport flat = checker.check(cell::flatten(*top), top->boundary());
  const drc::DrcReport hier = checker.checkHier(HierIndex{*top});

  // 3 columns x 2 row-gaps, one spacing violation per gap.
  EXPECT_EQ(flat.violations.size(), 6u) << flat.summary();
  EXPECT_EQ(violationSet(hier), violationSet(flat));
}

// --------------------------------------------- extraction equivalence

TEST(HierExtract, ArrayNetlistMatchesFlatExtraction) {
  CellLibrary lib;
  cell::Cell* top = makeArray(lib, makeLeaf(lib), 3);
  extract::ExtractOptions opts;
  const std::vector<extract::NetLabel> labels = {
      {"row0", Layer::Metal, {lambda(10), lambda(16)}}};

  const extract::ExtractResult flat = extract::extractFlat(cell::flatten(*top), labels, opts);
  const extract::ExtractResult hier = extract::extractHier(HierIndex{*top}, labels, opts);

  std::string why;
  EXPECT_TRUE(extract::netlistsEquivalent(flat, hier, &why)) << why;
  // One transistor per instance; the label resolved onto a real net.
  EXPECT_EQ(hier.netlist.transistors().size(), 9u);
  ASSERT_EQ(hier.labelBindings.size(), 1u);
  EXPECT_NE(hier.labelBindings[0].net, -1);
  // Abutted metal strips merge across instances: the labelled row net
  // exists once, not three times (9 strips over 3 rows).
  EXPECT_EQ(flat.netCount, hier.netCount);
}

TEST(HierExtract, ExtractCellRoutesThroughHierWhenAsked) {
  // The ExtractOptions::hierarchical flag: same entry point, same
  // circuit, work done by the hier path.
  CellLibrary lib;
  cell::Cell* top = makeArray(lib, makeLeaf(lib), 3);
  extract::ExtractOptions flatOpts;
  extract::ExtractOptions hierOpts;
  hierOpts.hierarchical = true;
  const extract::ExtractResult flat = extract::extractCell(*top, flatOpts);
  const extract::ExtractResult hier = extract::extractCell(*top, hierOpts);
  std::string why;
  EXPECT_TRUE(extract::netlistsEquivalent(flat, hier, &why)) << why;
}

// ------------------------------------------------- hierarchical masks

TEST(HierMask, UniformArrayEmitsOneArefAndRoundTrips) {
  CellLibrary lib;
  cell::Cell* top = makeArray(lib, makeLeaf(lib), 3);

  const std::vector<std::uint8_t> gds = layout::writeGdsHier(*top);
  const layout::GdsStats st = layout::gdsStats(gds);
  EXPECT_TRUE(st.wellFormed);
  EXPECT_EQ(st.arefs, 1u);
  EXPECT_EQ(st.srefs, 0u);
  EXPECT_EQ(st.structures, 2u);  // leaf + top
  EXPECT_EQ(st.boundaries, 6u);  // leaf interior ONCE, not 9x

  // Hier file is a fraction of the flat one.
  const FlatLayout flat = cell::flatten(*top);
  const auto flatGds = layout::writeGds(layout::View{flat});
  EXPECT_LT(gds.size() * 2, flatGds.size());

  // CIF: symbol calls, parsed back and compared by per-layer mask area.
  const std::string cif = layout::writeCif(*top);
  CellLibrary parsed;
  const layout::CifParseResult res = layout::parseCif(cif, parsed);
  ASSERT_TRUE(res.ok) << res.error;
  const FlatLayout back = cell::flatten(*res.top);
  for (Layer l : tech::kAllLayers) {
    EXPECT_EQ(geom::sweep::unionArea(back.on(l)), geom::sweep::unionArea(flat.on(l)))
        << tech::layerName(l);
  }
}

TEST(HierMask, NonGridPlacementsFallBackToSrefs) {
  CellLibrary lib;
  cell::Cell* leaf = makeLeaf(lib);
  cell::Cell* top = lib.create("ragged");
  top->addInstance(leaf, geom::Transform::translate({0, 0}));
  top->addInstance(leaf, geom::Transform::translate({lambda(20), 0}));
  top->addInstance(leaf, geom::Transform::translate({lambda(55), lambda(7)}));
  const layout::GdsStats st = layout::gdsStats(layout::writeGdsHier(*top));
  EXPECT_TRUE(st.wellFormed);
  EXPECT_EQ(st.arefs, 0u);
  EXPECT_EQ(st.srefs, 3u);
}

TEST(HierMask, MixedOrientationsGroupSeparately) {
  CellLibrary lib;
  cell::Cell* leaf = makeLeaf(lib);
  cell::Cell* top = lib.create("mixed");
  // A 2x2 R0 grid plus one mirrored copy: the grid compresses to an
  // AREF, the mirrored instance keeps its own SREF (different strans).
  for (int j = 0; j < 2; ++j) {
    for (int i = 0; i < 2; ++i) {
      top->addInstance(leaf,
                       geom::Transform::translate({lambda(20) * i, lambda(20) * j}));
    }
  }
  top->addInstance(leaf, {geom::Orientation::MX, {lambda(60), lambda(20)}});
  const layout::GdsStats st = layout::gdsStats(layout::writeGdsHier(*top));
  EXPECT_TRUE(st.wellFormed);
  EXPECT_EQ(st.arefs, 1u);
  EXPECT_EQ(st.srefs, 1u);
}

// ------------------------------------------------ lazy View resolution

TEST(HierView, CornerWindowMaterializesOnlyTouchingInstances) {
  CellLibrary lib;
  cell::Cell* top = makeArray(lib, makeLeaf(lib), 4);
  const HierIndex hier{*top};
  ASSERT_EQ(hier.instancesMaterialized(), 0u);

  layout::ViewOptions w;
  w.window = Rect{lambda(2), lambda(2), lambda(18), lambda(18)};
  const layout::View v{hier, w};
  EXPECT_EQ(hier.instancesMaterialized(), 1u);

  // Content check against the flat oracle: exactly the touching rects.
  const FlatLayout flat = cell::flatten(*top);
  for (Layer l : tech::kAllLayers) {
    std::vector<Rect> expect;
    for (const Rect& r : flat.on(l)) {
      if (r.touches(*w.window)) expect.push_back(r);
    }
    EXPECT_EQ(sortedRects(v.rectsOn(l)), sortedRects(expect)) << tech::layerName(l);
  }
}

TEST(HierView, FullWindowMatchesTheFlattenEverywhere) {
  CellLibrary lib;
  cell::Cell* top = makeArray(lib, makeLeaf(lib), 4);
  // Residual wiring too, so both sources contribute.
  top->addRect(Layer::Metal, Rect{0, lambda(80), lambda(80), lambda(83)});
  const HierIndex hier{*top};
  const layout::View v{hier};
  EXPECT_EQ(hier.instancesMaterialized(), 16u);

  const FlatLayout flat = cell::flatten(*top);
  for (Layer l : tech::kAllLayers) {
    EXPECT_EQ(sortedRects(v.rectsOn(l)), sortedRects(flat.on(l))) << tech::layerName(l);
  }

  // The emitted window is a valid mask identical in area to the flat one.
  layout::ViewOptions flatView;
  const std::string hierCif = layout::writeCif(v);
  CellLibrary parsed;
  const layout::CifParseResult res = layout::parseCif(hierCif, parsed);
  ASSERT_TRUE(res.ok) << res.error;
  const FlatLayout back = cell::flatten(*res.top);
  for (Layer l : tech::kAllLayers) {
    EXPECT_EQ(geom::sweep::unionArea(back.on(l)), geom::sweep::unionArea(flat.on(l)))
        << tech::layerName(l);
  }
}

TEST(HierView, ViewOutlivesTheIndexItWasBuiltFrom) {
  CellLibrary lib;
  cell::Cell* top = makeArray(lib, makeLeaf(lib), 2);
  const FlatLayout flat = cell::flatten(*top);
  std::unique_ptr<layout::View> v;
  {
    const HierIndex hier{*top};
    v = std::make_unique<layout::View>(hier);
  }  // hier destroyed; the View keeps its materialized snapshot alive
  for (Layer l : tech::kAllLayers) {
    EXPECT_EQ(sortedRects(v->rectsOn(l)), sortedRects(flat.on(l))) << tech::layerName(l);
  }
}

}  // namespace
}  // namespace bb
