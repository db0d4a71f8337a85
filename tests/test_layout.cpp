/// Mask-output tests: CIF round trip, GDS structural decode, SVG sanity.

#include "cell/flatten.hpp"
#include "layout/cif.hpp"
#include "layout/cif_parser.hpp"
#include "layout/gds.hpp"
#include "layout/svg.hpp"

#include <gtest/gtest.h>

namespace bb::layout {
namespace {

using cell::Cell;
using cell::CellLibrary;
using geom::lambda;
using geom::Rect;
using tech::Layer;

void buildHierarchy(CellLibrary& lib, Cell*& top) {
  Cell* leaf = lib.create("leaf");
  leaf->addRect(Layer::Diffusion, Rect{0, 0, lambda(4), lambda(8)});
  leaf->addRect(Layer::Poly, Rect{-lambda(2), lambda(2), lambda(6), lambda(4)});
  geom::Path w;
  w.width = lambda(3);
  w.pts = {{0, lambda(10)}, {lambda(20), lambda(10)}, {lambda(20), lambda(20)}};
  leaf->addPath(Layer::Metal, w);
  geom::Polygon poly;
  poly.pts = {{0, 0}, {lambda(6), 0}, {lambda(6), lambda(6)}};
  leaf->addPolygon(Layer::Implant, poly);

  top = lib.create("top");
  top->addInstance(leaf, geom::Transform::translate({0, 0}));
  top->addInstance(leaf, geom::Transform{geom::Orientation::R90, {lambda(40), 0}});
  top->addInstance(leaf, geom::Transform{geom::Orientation::MX, {lambda(80), lambda(40)}});
}

TEST(Cif, WritesAllShapeKinds) {
  CellLibrary lib;
  Cell* top = nullptr;
  buildHierarchy(lib, top);
  const std::string cif = writeCif(*top);
  const CifStats st = cifStats(cif);
  EXPECT_EQ(st.symbols, 2u);
  EXPECT_EQ(st.boxes, 2u);     // leaf's two rects
  EXPECT_EQ(st.wires, 1u);
  EXPECT_EQ(st.polygons, 1u);
  EXPECT_EQ(st.calls, 3u + 1u);  // three instances + top-level call
  EXPECT_NE(cif.find("L ND;"), std::string::npos);
  EXPECT_NE(cif.find("E"), std::string::npos);
}

TEST(Cif, RoundTripPreservesGeometry) {
  CellLibrary lib;
  Cell* top = nullptr;
  buildHierarchy(lib, top);
  const std::string cif = writeCif(*top);

  CellLibrary lib2;
  const CifParseResult res = parseCif(cif, lib2);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_NE(res.top, nullptr);
  EXPECT_EQ(res.top->name(), "top");

  // The flattened artwork must be identical (paths become rects when
  // parsed back, so compare per-layer flattened rect sets).
  const cell::FlatLayout a = cell::flatten(*top);
  const cell::FlatLayout b = cell::flatten(*res.top);
  for (tech::Layer l : tech::kAllLayers) {
    auto va = a.on(l);
    auto vb = b.on(l);
    std::sort(va.begin(), va.end(), [](const Rect& x, const Rect& y) {
      return std::tie(x.x0, x.y0, x.x1, x.y1) < std::tie(y.x0, y.y0, y.x1, y.y1);
    });
    std::sort(vb.begin(), vb.end(), [](const Rect& x, const Rect& y) {
      return std::tie(x.x0, x.y0, x.x1, x.y1) < std::tie(y.x0, y.y0, y.x1, y.y1);
    });
    EXPECT_EQ(va, vb) << "layer " << tech::layerName(l);
  }
  EXPECT_EQ(a.polygons.size(), b.polygons.size());
}

TEST(Cif, ParserRejectsGarbage) {
  CellLibrary lib;
  EXPECT_FALSE(parseCif("DS 1 25 1; B 4;", lib).ok);
  CellLibrary lib2;
  EXPECT_FALSE(parseCif("", lib2).ok);
  CellLibrary lib3;
  EXPECT_FALSE(parseCif("DS 1 25 1; C 99 T 0 0; DF; E", lib3).ok);  // undefined call
  // A symbol that calls itself, after its first shape or as its first command.
  for (const char* selfCall : {"DS 1; L NM; B 4 4 0 0; C 1; DF; C 1; E", "DS 1; C 1; DF; E"}) {
    CellLibrary lib4;
    const auto res = parseCif(selfCall, lib4);
    EXPECT_FALSE(res.ok) << selfCall;
    EXPECT_NE(res.error.find("symbol 1"), std::string::npos) << res.error;
  }
}

TEST(Cif, NumberPastLongLongIsDiagnosed) {
  // A 20-digit value, wherever the scanner reads it: a box coordinate, a
  // path point (read by a loop that stops at the first non-number) or a
  // DS scale nobody uses.
  for (const char* text : {"DS 1; L NM; B 4 4 99999999999999999999 0; DF; E",
                           "DS 1; L NM; W 2 0 0 -99999999999999999999 0; DF; E",
                           "DS 1 99999999999999999999 1; L NM; B 4 4 0 0; DF; E"}) {
    CellLibrary lib;
    const auto res = parseCif(text, lib);
    EXPECT_FALSE(res.ok) << text;
    EXPECT_NE(res.error.find("99999999999999999999 is too large for a 64-bit integer"),
              std::string::npos)
        << text << ": " << res.error;
  }
  // The largest value still parses.
  CellLibrary lib;
  const auto res = parseCif("DS 1 9223372036854775807 1; L NM; B 4 4 0 0; DF; E", lib);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Cif, SymbolIdPastIntIsDiagnosed) {
  // 4294967297 used to narrow to symbol 1: the DS redefined it, and the
  // top-level C called it.
  for (const char* text : {"DS 1; L NM; B 4 4 0 0; DF; DS 4294967297; L NM; B 8 8 0 0; DF; E",
                           "DS 1; L NM; B 4 4 0 0; DF; C 4294967297; E",
                           "DS -1; L NM; B 4 4 0 0; DF; E"}) {
    CellLibrary lib;
    const auto res = parseCif(text, lib);
    EXPECT_FALSE(res.ok) << text;
    EXPECT_NE(res.error.find("is out of range"), std::string::npos) << text << ": " << res.error;
  }
  CellLibrary lib;
  const auto res = parseCif("DS 2147483647; L NM; B 4 4 0 0; DF; C 2147483647; E", lib);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.top->name(), "cif_2147483647");
}

TEST(Cif, CoordinateBeyondTheLimitIsDiagnosed) {
  // Box corners used to overflow `long long` near its limit
  // (`cx - w / 2 + w`); every B, W and P operand and every C offset is
  // now held to +-geom::kCoordLimit (2^30).
  const struct {
    const char* text;
    const char* value;
  } cases[] = {
      {"DS 1; L NM; B 4 4 9223372036854775806 0; DF; E", "9223372036854775806"},
      {"DS 1; L NM; B 1073741825 4 0 0; DF; E", "1073741825"},
      {"DS 1; L NM; B 4 4 0 -1073741825; DF; E", "-1073741825"},
      {"DS 1; L NM; W 1073741825 0 0 8 0; DF; E", "1073741825"},
      {"DS 1; L NM; W 2 0 0 1073741825 0; DF; E", "1073741825"},
      {"DS 1; L NM; P 0 0 8 0 8 -1073741825; DF; E", "-1073741825"},
      {"DS 1; L NM; B 4 4 0 0; DF; DS 2; C 1 T 1073741825 0; DF; E", "1073741825"},
      {"DS 1; L NM; B 4 4 0 0; DF; C 1 T 0 -1073741825; E", "-1073741825"},
  };
  for (const auto& c : cases) {
    CellLibrary lib;
    const auto res = parseCif(c.text, lib);
    EXPECT_FALSE(res.ok) << c.text;
    EXPECT_EQ(res.error, "coordinate " + std::string(c.value) + " is out of range") << c.text;
  }
  // +-2^30 itself still parses, and the box keeps its exact corners.
  CellLibrary lib;
  const auto res = parseCif(
      "DS 1; L NM; B 1073741824 1073741824 1073741824 -1073741824; "
      "W 1073741824 -1073741824 0 1073741824 0; P -1073741824 0 1073741824 0 0 1073741824; "
      "DF; DS 2; C 1 T 1073741824 -1073741824; DF; C 2 T -1073741824 1073741824; E",
      lib);
  ASSERT_TRUE(res.ok) << res.error;
  // Symbol 1's box spans [lim/2, 3lim/2] x [-3lim/2, -lim/2]; symbol 2,
  // the top, calls it at (lim, -lim).
  const geom::Coord lim = geom::kCoordLimit;
  const cell::FlatLayout flat = cell::flatten(*res.top);
  EXPECT_EQ(flat.on(Layer::Metal).front(),
            (Rect{3 * lim / 2, -5 * lim / 2, 5 * lim / 2, -3 * lim / 2}));
  EXPECT_EQ(flat.polygons.size(), 1u);
}

TEST(Cif, CommentsSkipped) {
  CellLibrary lib;
  const auto res = parseCif("( a (nested) comment ); DS 1 125 2; 9 x; L NM; B 8 8 4 4; DF; E",
                            lib);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.top->name(), "x");
  EXPECT_EQ(res.top->shapes().size(), 1u);
}

TEST(Gds, StreamWellFormed) {
  CellLibrary lib;
  Cell* top = nullptr;
  buildHierarchy(lib, top);
  const auto bytes = writeGds(*top);
  const GdsStats st = gdsStats(bytes);
  EXPECT_TRUE(st.wellFormed);
  EXPECT_EQ(st.structures, 2u);
  EXPECT_EQ(st.boundaries, 3u);  // 2 rects + 1 polygon
  EXPECT_EQ(st.paths, 1u);
  EXPECT_EQ(st.srefs, 3u);
  ASSERT_EQ(st.names.size(), 2u);
  EXPECT_EQ(st.names[1], "top");
}

TEST(Gds, DeterministicOutput) {
  CellLibrary lib;
  Cell* top = nullptr;
  buildHierarchy(lib, top);
  EXPECT_EQ(writeGds(*top), writeGds(*top));
}

TEST(Svg, ContainsShapesAndBristles) {
  CellLibrary lib;
  Cell* c = lib.create("svg");
  c->addRect(Layer::Metal, Rect{0, 0, lambda(10), lambda(3)});
  cell::Bristle b;
  b.name = "pin";
  b.pos = {lambda(5), lambda(3)};
  c->addBristle(b);
  const std::string svg = renderSvg(*c);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("rect"), std::string::npos);
  EXPECT_NE(svg.find("pin"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

}  // namespace
}  // namespace bb::layout
