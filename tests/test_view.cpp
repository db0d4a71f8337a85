/// The windowed-emission layer: layout::View tile streaming, the golden
/// equivalence suite (full emission vs window == bbox emission must be
/// byte-identical for cif/gds/svg, merged mode area-identical to
/// unmerged), polygon window clipping, XML escaping, and the
/// EmitterOptions dispatch through the registry.

#include "core/samples.hpp"
#include "core/session.hpp"
#include "geom/sweep.hpp"
#include "layout/cif.hpp"
#include "layout/cif_parser.hpp"
#include "layout/gds.hpp"
#include "layout/svg.hpp"
#include "layout/view.hpp"
#include "reps/emitter.hpp"
#include "reps/sticks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <tuple>

namespace bb {
namespace {

using cell::FlatLayout;
using geom::Coord;
using geom::lambda;
using geom::Rect;
using layout::View;
using layout::ViewOptions;
using tech::Layer;

/// Deterministic synthetic artwork: jittered tiles over several layers,
/// some overlapping blobs, recentered into negative space — the same
/// recipe the scaling benches use, shrunk for test time.
FlatLayout makeFlat(std::size_t n) {
  FlatLayout flat;
  const Layer layers[] = {Layer::Diffusion, Layer::Poly, Layer::Metal, Layer::Contact};
  const Coord pitch = lambda(9);
  const auto k = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const Coord shift = static_cast<Coord>(k / 2) * pitch;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  const auto jitter = [&lcg](Coord range) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<Coord>((lcg >> 33) % static_cast<std::uint64_t>(range));
  };
  std::size_t placed = 0;
  for (std::size_t j = 0; j < k && placed < n; ++j) {
    for (std::size_t i = 0; i < k && placed < n; ++i, ++placed) {
      const Coord x = static_cast<Coord>(i) * pitch - shift + jitter(pitch);
      const Coord y = static_cast<Coord>(j) * pitch - shift + jitter(pitch);
      Coord s = lambda(7) + jitter(lambda(2));
      if (placed % 7 == 3) s = lambda(12);
      flat.on(layers[placed % 4]).emplace_back(x, y, x + s, y + s);
    }
  }
  return flat;
}

std::vector<Rect> sorted(std::vector<Rect> rs) {
  std::sort(rs.begin(), rs.end(), [](const Rect& a, const Rect& b) {
    return std::tie(a.x0, a.y0, a.x1, a.y1) < std::tie(b.x0, b.y0, b.x1, b.y1);
  });
  return rs;
}

// ---------------------------------------------------------------- View core

TEST(View, DefaultWindowIsRawVectorWalk) {
  const FlatLayout flat = makeFlat(300);
  const View v{flat};
  EXPECT_EQ(v.window(), flat.bbox());
  EXPECT_EQ(v.tileCount(), 1u);
  for (Layer l : tech::kAllLayers) {
    // Same rects, same order — the property that makes full-chip
    // emission the window == bbox special case, byte for byte.
    EXPECT_EQ(v.rectsOn(l), flat.on(l)) << tech::layerName(l);
  }
}

TEST(View, ExplicitBboxWindowIdenticalToDefault) {
  const FlatLayout flat = makeFlat(300);
  ViewOptions w;
  w.window = flat.bbox();
  const View v{flat, w};
  for (Layer l : tech::kAllLayers) {
    EXPECT_EQ(v.rectsOn(l), flat.on(l)) << tech::layerName(l);
  }
}

TEST(View, TiledStreamEmitsEachRectExactlyOnce) {
  const FlatLayout flat = makeFlat(400);
  ViewOptions w;
  w.tileSize = lambda(40);
  const View v{flat, w};
  ASSERT_GT(v.tileCount(), 4u);
  for (Layer l : tech::kAllLayers) {
    // Multiset equality: tile order differs from source order, but every
    // rect appears exactly once, unclipped.
    EXPECT_EQ(sorted(v.rectsOn(l)), sorted(flat.on(l))) << tech::layerName(l);
  }
  // Streaming order is deterministic: two walks agree.
  EXPECT_EQ(v.rectsOn(Layer::Metal), v.rectsOn(Layer::Metal));
}

TEST(View, ParallelTileWalkIsByteIdenticalToSequential) {
  const FlatLayout flat = makeFlat(400);
  for (const bool merge : {false, true}) {
    ViewOptions w;
    w.tileSize = lambda(40);
    w.merge = merge;
    const View v{flat, w};
    ASSERT_GT(v.tileCount(), 4u);
    for (Layer l : tech::kAllLayers) {
      // The parallel walk must stream the same (tx, ty, rects) sequence
      // as the sequential one — same tiles, same order, same contents.
      std::vector<std::tuple<std::size_t, std::size_t, std::vector<Rect>>> seq;
      std::vector<std::tuple<std::size_t, std::size_t, std::vector<Rect>>> par;
      v.forEachTile(l, [&](std::size_t tx, std::size_t ty, const std::vector<Rect>& rs) {
        seq.emplace_back(tx, ty, rs);
      });
      v.forEachTileParallel(
          l, [&](std::size_t tx, std::size_t ty, const std::vector<Rect>& rs) {
            par.emplace_back(tx, ty, rs);
          });
      EXPECT_EQ(seq, par) << tech::layerName(l) << (merge ? " merged" : " unmerged");
    }
  }
}

TEST(View, RectsOnIntoScratchCopiesOnlyWhatItCollects) {
  const FlatLayout flat = makeFlat(400);
  const Rect bb = flat.bbox();
  std::vector<std::pair<std::string, ViewOptions>> views(4);
  views[0].first = "whole";
  views[1].first = "window";
  views[1].second.window = Rect{bb.x0, bb.y0, bb.x0 + bb.width() / 3, bb.y0 + bb.height() / 2};
  views[2].first = "tiles";
  views[2].second.tileSize = lambda(40);
  views[3].first = "merge+tiles";
  views[3].second.merge = true;
  views[3].second.tileSize = lambda(40);
  for (const auto& [label, opts] : views) {
    const View v{flat, opts};
    for (Layer l : tech::kAllLayers) {
      std::vector<Rect> scratch{Rect{0, 0, 1, 1}};  // stale contents are replaced
      const std::span<const Rect> rs = v.rectsOn(l, scratch);
      EXPECT_EQ(std::vector<Rect>(rs.begin(), rs.end()), v.rectsOn(l))
          << label << " " << tech::layerName(l);
      // The whole-artwork view hands back the layer itself, any other
      // view the scratch it collected into.
      EXPECT_EQ(rs.data(), label == "whole" ? flat.on(l).data() : scratch.data())
          << label << " " << tech::layerName(l);
    }
  }
}

TEST(View, TilePartitionCoversWindowExactly) {
  const FlatLayout flat = makeFlat(100);
  ViewOptions w;
  w.tileSize = lambda(33);  // does not divide the window evenly
  const View v{flat, w};
  std::vector<Rect> tiles;
  for (std::size_t ty = 0; ty < v.tilesY(); ++ty) {
    for (std::size_t tx = 0; tx < v.tilesX(); ++tx) tiles.push_back(v.tileRect(tx, ty));
  }
  Coord area = 0;
  for (const Rect& t : tiles) area += t.area();
  EXPECT_EQ(area, v.window().area());
  EXPECT_EQ(geom::unionArea(tiles), v.window().area());
}

TEST(View, WindowSelectsExactlyTouchingRects) {
  const FlatLayout flat = makeFlat(400);
  const Rect bb = flat.bbox();
  const Rect win{bb.x0, bb.y0, bb.x0 + bb.width() / 3, bb.y0 + bb.height() / 3};
  ViewOptions w;
  w.window = win;
  const View v{flat, w};
  for (Layer l : tech::kAllLayers) {
    std::vector<Rect> expect;
    for (const Rect& r : flat.on(l)) {
      if (r.touches(win)) expect.push_back(r);
    }
    // Single tile: ascending source order, so plain equality holds.
    EXPECT_EQ(v.rectsOn(l), expect) << tech::layerName(l);
  }
}

TEST(View, WindowedAndTiledStillEmitsEachOnce) {
  const FlatLayout flat = makeFlat(400);
  const Rect bb = flat.bbox();
  const Rect win{bb.x0 + bb.width() / 4, bb.y0 + bb.height() / 4,
                 bb.x1 - bb.width() / 4, bb.y1 - bb.height() / 4};
  ViewOptions w;
  w.window = win;
  w.tileSize = lambda(25);
  const View v{flat, w};
  for (Layer l : tech::kAllLayers) {
    std::vector<Rect> expect;
    for (const Rect& r : flat.on(l)) {
      if (r.touches(win)) expect.push_back(r);
    }
    EXPECT_EQ(sorted(v.rectsOn(l)), sorted(expect)) << tech::layerName(l);
  }
}

TEST(View, MergedModeIsAreaIdenticalAndDisjoint) {
  const FlatLayout flat = makeFlat(400);
  for (const Coord tile : {Coord{0}, lambda(40)}) {
    ViewOptions w;
    w.merge = true;
    w.tileSize = tile;
    const View v{flat, w};
    for (Layer l : tech::kAllLayers) {
      const std::vector<Rect> merged = v.rectsOn(l);
      Coord sum = 0;
      for (const Rect& r : merged) sum += r.area();
      // Disjoint: areas sum to the union area; identical coverage: that
      // union area equals the raw layer's union area.
      EXPECT_EQ(sum, geom::sweep::unionArea(merged)) << tech::layerName(l);
      EXPECT_EQ(geom::sweep::unionArea(merged), geom::sweep::unionArea(flat.on(l)))
          << "tile " << tile << " layer " << tech::layerName(l);
      EXPECT_EQ(merged.empty(), flat.on(l).empty());
    }
  }
}

TEST(View, MergedWindowedCoversExactlyTheWindowedArtwork) {
  const FlatLayout flat = makeFlat(400);
  const Rect bb = flat.bbox();
  const Rect win{bb.x0, bb.y0, bb.x0 + bb.width() / 2, bb.y0 + bb.height() / 2};
  ViewOptions w;
  w.window = win;
  w.merge = true;
  w.tileSize = lambda(30);
  const View v{flat, w};
  for (Layer l : tech::kAllLayers) {
    const std::vector<Rect> merged = v.rectsOn(l);
    std::vector<Rect> clipped;
    for (const Rect& r : flat.on(l)) {
      if (const auto c = r.intersectWith(win)) clipped.push_back(*c);
    }
    EXPECT_EQ(geom::sweep::unionArea(merged), geom::sweep::unionArea(clipped))
        << tech::layerName(l);
    for (const Rect& r : merged) EXPECT_TRUE(win.contains(r));
  }
}

TEST(View, EmptyLayoutAndEmptyWindow) {
  const FlatLayout flat;
  const View v{flat};
  EXPECT_EQ(v.tileCount(), 1u);
  for (Layer l : tech::kAllLayers) EXPECT_TRUE(v.rectsOn(l).empty());

  const FlatLayout full = makeFlat(50);
  ViewOptions w;
  const Rect bb = full.bbox();
  w.window = Rect{bb.x1 + lambda(100), bb.y1 + lambda(100), bb.x1 + lambda(110),
                  bb.y1 + lambda(110)};  // fully off-chip
  const View off{full, w};
  for (Layer l : tech::kAllLayers) EXPECT_TRUE(off.rectsOn(l).empty());
  EXPECT_TRUE(off.windowPolygons().empty());
}

// ----------------------------------------- golden equivalence: the writers

/// Pre-refactor reference: the raw flattened-vector walk each writer did
/// before the View existed, replicated verbatim for the byte-identity
/// assertions below.
std::string refCifFlat(const FlatLayout& flat, const layout::CifOptions& opts = {}) {
  std::ostringstream os;
  if (opts.comments) {
    os << "( Bristle Blocks silicon compiler -- CIF 2.0 mask set );\n";
    os << "( flat artwork, window " << geom::toString(flat.bbox()) << " );\n";
  }
  os << "DS 1 " << opts.scaleNum << ' ' << opts.scaleDen << ";\n";
  if (opts.symbolNames) os << "9 flat;\n";
  for (Layer l : tech::kAllLayers) {
    bool wrote = false;
    auto need = [&] {
      if (!wrote) {
        os << "L " << tech::cifName(l) << ";\n";
        wrote = true;
      }
    };
    for (const Rect& r : flat.on(l)) {
      need();
      os << "B " << r.width() << ' ' << r.height() << ' ' << r.center().x << ' '
         << r.center().y << ";\n";
    }
    for (const auto& [pl, p] : flat.polygons) {
      if (pl != l) continue;
      need();
      os << "P";
      for (geom::Point q : p.pts) os << ' ' << q.x << ' ' << q.y;
      os << ";\n";
    }
  }
  os << "DF;\nC 1;\nE\n";
  return os.str();
}

/// Pre-refactor renderSvg(flat, overlay, opts) replicated byte for byte
/// (raw per-layer loops, no View, no escaping — the inputs here contain
/// no XML-special characters so escaping is a no-op).
std::string refSvgFlat(const FlatLayout& flat, const layout::SvgOptions& opts = {}) {
  std::ostringstream os;
  const Rect bb = flat.bbox();
  const double s = opts.pixelsPerUnit;
  const double w = static_cast<double>(bb.width()) * s + 20;
  const double h = static_cast<double>(bb.height()) * s + 20;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w << "\" height=\"" << h
     << "\" viewBox=\"0 0 " << w << ' ' << h << "\">\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"#f8f8f4\"/>\n";
  const auto X = [&](Coord v) { return (static_cast<double>(v - bb.x0)) * s + 10; };
  const auto Y = [&](Coord v) { return (static_cast<double>(bb.y1 - v)) * s + 10; };
  const Layer order[] = {Layer::Diffusion, Layer::Implant, Layer::Buried, Layer::Poly,
                         Layer::Contact,   Layer::Metal,   Layer::Glass};
  for (Layer l : order) {
    for (const Rect& r : flat.on(l)) {
      os << "<rect x=\"" << X(r.x0) << "\" y=\"" << Y(r.y1) << "\" width=\""
         << static_cast<double>(r.width()) * s << "\" height=\""
         << static_cast<double>(r.height()) * s << "\" fill=\"" << tech::displayColor(l)
         << "\" fill-opacity=\"" << opts.fillOpacity << "\"/>\n";
    }
  }
  for (const auto& [l, p] : flat.polygons) {
    os << "<polygon points=\"";
    for (geom::Point q : p.pts) os << X(q.x) << ',' << Y(q.y) << ' ';
    os << "\" fill=\"" << tech::displayColor(l) << "\" fill-opacity=\"" << opts.fillOpacity
       << "\"/>\n";
  }
  os << "</svg>\n";
  return os.str();
}

/// Pre-refactor sticksOf: the raw layer-vector walk.
std::vector<reps::Stick> refSticks(const FlatLayout& flat) {
  std::vector<reps::Stick> out;
  for (Layer l : tech::kAllLayers) {
    for (const Rect& r : flat.on(l)) {
      reps::Stick s;
      s.layer = l;
      if (r.width() >= r.height()) {
        s.a = {r.x0, (r.y0 + r.y1) / 2};
        s.b = {r.x1, (r.y0 + r.y1) / 2};
      } else {
        s.a = {(r.x0 + r.x1) / 2, r.y0};
        s.b = {(r.x0 + r.x1) / 2, r.y1};
      }
      out.push_back(s);
    }
  }
  for (const auto& [l, p] : flat.polygons) {
    const Rect r = p.bbox();
    out.push_back(reps::Stick{l, {r.x0, (r.y0 + r.y1) / 2}, {r.x1, (r.y0 + r.y1) / 2}});
  }
  return out;
}

TEST(GoldenEquivalence, CifFullEqualsWindowBboxEqualsPreRefactor) {
  const FlatLayout flat = makeFlat(300);
  const std::string full = layout::writeCif(View{flat});
  ViewOptions w;
  w.window = flat.bbox();
  EXPECT_EQ(full, layout::writeCif(View{flat, w}));
  EXPECT_EQ(full, refCifFlat(flat));
}

TEST(GoldenEquivalence, GdsFullEqualsWindowBbox) {
  const FlatLayout flat = makeFlat(300);
  const auto full = layout::writeGds(View{flat});
  ViewOptions w;
  w.window = flat.bbox();
  EXPECT_EQ(full, layout::writeGds(View{flat, w}));
  const layout::GdsStats st = layout::gdsStats(full);
  EXPECT_TRUE(st.wellFormed);
  EXPECT_EQ(st.structures, 1u);
  EXPECT_EQ(st.boundaries, flat.totalCount());
}

TEST(GoldenEquivalence, SvgFullEqualsWindowBboxEqualsPreRefactor) {
  const FlatLayout flat = makeFlat(300);
  const std::string full = layout::renderSvg(flat, {}, {});
  layout::SvgOptions w;
  w.view.window = flat.bbox();
  EXPECT_EQ(full, layout::renderSvg(flat, {}, w));
  EXPECT_EQ(full, refSvgFlat(flat));
}

TEST(GoldenEquivalence, MergedCifIsAreaIdenticalPerLayer) {
  const FlatLayout flat = makeFlat(300);
  ViewOptions m;
  m.merge = true;
  m.tileSize = lambda(50);
  // Parse the merged CIF back and compare per-layer union areas with the
  // unmerged artwork: merging must never change the mask.
  cell::CellLibrary lib;
  const layout::CifParseResult res = layout::parseCif(layout::writeCif(View{flat, m}), lib);
  ASSERT_TRUE(res.ok) << res.error;
  const FlatLayout back = cell::flatten(*res.top);
  for (Layer l : tech::kAllLayers) {
    EXPECT_EQ(geom::sweep::unionArea(back.on(l)), geom::sweep::unionArea(flat.on(l)))
        << tech::layerName(l);
    // ...with no more boxes than the raw artwork needs.
    if (!flat.on(l).empty()) {
      EXPECT_FALSE(back.on(l).empty());
    }
  }
}

TEST(GoldenEquivalence, SticksViewPathMatchesRawWalk) {
  const FlatLayout flat = makeFlat(300);
  EXPECT_EQ(reps::sticksOf(flat), refSticks(flat));
  // Windowed sticks: only rects touching the window contribute.
  const Rect bb = flat.bbox();
  layout::ViewOptions w;
  w.window = Rect{bb.x0, bb.y0, bb.x0 + bb.width() / 4, bb.y0 + bb.height() / 4};
  const auto windowed = reps::sticksOf(flat, w);
  EXPECT_LT(windowed.size(), refSticks(flat).size());
  EXPECT_FALSE(windowed.empty());
}

// -------------------------------------------------- polygons in the window

/// A CIF deck with one polygon (only CIF import produces polygons; the
/// generators never do), plus boxes on another layer.
constexpr const char* kPolyCif =
    "DS 1 125 2; 9 polycell; L NM; P 0 0 80 0 80 80; B 8 8 200 4; DF; E";

TEST(PolygonWindow, ImportedPolygonIsNeverSilentlyDropped) {
  cell::CellLibrary lib;
  const layout::CifParseResult res = layout::parseCif(kPolyCif, lib);
  ASSERT_TRUE(res.ok) << res.error;
  const FlatLayout flat = cell::flatten(*res.top);
  ASSERT_EQ(flat.polygons.size(), 1u);

  // A window that clips the polygon (covers only its corner): the
  // window-clipped piece is emitted — never silently dropped, but not
  // the whole ring either.
  ViewOptions w;
  w.window = Rect{60, 60, 120, 120};
  const View v{flat, w};
  ASSERT_EQ(v.windowPolygons().size(), 1u);
  // Every clipped vertex lies inside the window.
  for (const auto& [pl, piece] : v.windowPolygons()) {
    (void)pl;
    for (geom::Point q : piece.pts) EXPECT_TRUE(w.window->contains(q));
  }

  const std::string cif = layout::writeCif(v);
  EXPECT_NE(cif.find("P "), std::string::npos);            // a piece is emitted
  EXPECT_EQ(cif.find("P 0 0 80 0 80 80;"), std::string::npos);  // ...clipped
  // The off-window box (bbox around x=200) is not emitted...
  EXPECT_EQ(cif.find("B 8 8 200 4;"), std::string::npos);

  layout::SvgOptions so;
  so.view = w;
  EXPECT_NE(layout::renderSvg(flat, {}, so).find("<polygon"), std::string::npos);

  const auto gds = layout::writeGds(v);
  const layout::GdsStats st = layout::gdsStats(gds);
  EXPECT_TRUE(st.wellFormed);
  EXPECT_EQ(st.boundaries, 1u);  // the clipped piece, not the far-away box

  // A window fully away from the polygon excludes it.
  ViewOptions far;
  far.window = Rect{196, 0, 204, 8};
  EXPECT_EQ(layout::writeCif(View{flat, far}).find("P 0 0"), std::string::npos);
  EXPECT_EQ(View(flat, far).windowPolygons().size(), 0u);
}

TEST(PolygonWindow, WindowedSticksStayInsideTheWindow) {
  cell::CellLibrary lib;
  const layout::CifParseResult res = layout::parseCif(kPolyCif, lib);
  ASSERT_TRUE(res.ok) << res.error;
  const FlatLayout flat = cell::flatten(*res.top);

  // The window covers only the polygon's corner, so its stick comes from
  // the clipped piece, not from the whole ring's bbox.
  ViewOptions w;
  w.window = Rect{60, 60, 120, 120};
  const std::vector<reps::Stick> sticks = reps::sticksOf(flat, w);
  ASSERT_FALSE(sticks.empty());
  for (const reps::Stick& s : sticks) {
    EXPECT_TRUE(w.window->contains(s.a) && w.window->contains(s.b))
        << "stick (" << s.a.x << "," << s.a.y << ")-(" << s.b.x << "," << s.b.y << ")";
  }
}

TEST(PolygonWindow, TiledEmissionEmitsSpanningPolygonExactlyOnce) {
  cell::CellLibrary lib;
  const layout::CifParseResult res = layout::parseCif(kPolyCif, lib);
  ASSERT_TRUE(res.ok) << res.error;
  const FlatLayout flat = cell::flatten(*res.top);
  ASSERT_EQ(flat.polygons.size(), 1u);

  // Tiles far smaller than the polygon's bbox: it touches many tiles,
  // but only the one holding its window-clamped lower-left corner owns
  // it, so tiled writers emit it exactly once.
  ViewOptions w;
  w.window = flat.bbox();
  w.tileSize = 16;
  const View v{flat, w};
  ASSERT_GT(v.tileCount(), 8u);
  std::size_t owned = 0;
  for (std::size_t ty = 0; ty < v.tilesY(); ++ty) {
    for (std::size_t tx = 0; tx < v.tilesX(); ++tx) {
      owned += v.windowPolygonsOwnedBy(tx, ty).size();
    }
  }
  EXPECT_EQ(owned, 1u);

  const std::string cif = layout::writeCif(v);
  std::size_t pRecords = 0;
  for (auto pos = cif.find("P 0 0"); pos != std::string::npos;
       pos = cif.find("P 0 0", pos + 1)) {
    ++pRecords;
  }
  EXPECT_EQ(pRecords, 1u);

  const auto gds = layout::writeGds(v);
  const layout::GdsStats st = layout::gdsStats(gds);
  EXPECT_TRUE(st.wellFormed);
  // One BOUNDARY for the polygon plus one per rect — no tile duplicates.
  std::size_t rectCount = 0;
  for (Layer l : tech::kAllLayers) rectCount += flat.on(l).size();
  EXPECT_EQ(st.boundaries, 1u + rectCount);
}

// ------------------------------------- whole-artwork views read in place

/// The `sticksText` that summed an already-built stick vector, verbatim
/// on an ostringstream.
std::string refSticksText(const std::vector<reps::Stick>& sticks) {
  std::map<Layer, std::size_t> perLayer;
  Coord totalLen = 0;
  for (const reps::Stick& s : sticks) {
    ++perLayer[s.layer];
    totalLen += geom::manhattan(s.a, s.b);
  }
  std::ostringstream os;
  os << "sticks diagram: " << sticks.size() << " sticks, total length "
     << totalLen / geom::kUnitsPerLambda << "L\n";
  for (const auto& [l, n] : perLayer) {
    os << "  " << tech::layerName(l) << ": " << n << "\n";
  }
  return os.str();
}

TEST(WholeArtwork, SticksTextEqualsTheStickVectorSummary) {
  for (const icl::ChipDesc& desc :
       {core::samples::smallChip(4), core::samples::largeChip(16, 8),
        core::samples::prototypeChip(), core::samples::segmentedChip(8)}) {
    auto chip = core::compileChip(desc);
    ASSERT_TRUE(chip) << chip.diagnostics().toString();
    const FlatLayout& flat = (*chip)->flatCore();
    EXPECT_EQ(reps::sticksText(flat), refSticksText(reps::sticksOf(flat))) << desc.name;
  }
  const FlatLayout synthetic = makeFlat(300);
  EXPECT_EQ(reps::sticksText(synthetic), refSticksText(reps::sticksOf(synthetic)));

  // Imported polygons on two layers, one taller than wide: a polygon's
  // stick is its bbox's horizontal centerline, whatever its height.
  cell::CellLibrary lib;
  const layout::CifParseResult res = layout::parseCif(
      "DS 1 125 2; 9 polys; L NM; P 0 0 80 0 80 80; B 8 8 200 4; "
      "L NP; P 0 100 10 100 10 190 0 190; B 4 40 -30 20; DF; E",
      lib);
  ASSERT_TRUE(res.ok) << res.error;
  const FlatLayout imported = cell::flatten(*res.top);
  ASSERT_EQ(imported.polygons.size(), 2u);
  const std::string text = reps::sticksText(imported);
  EXPECT_EQ(text, refSticksText(reps::sticksOf(imported)));
  EXPECT_EQ(text, "sticks diagram: 4 sticks, total length 34L\n  poly: 2\n  metal: 2\n");
}

TEST(WholeArtwork, FullSvgAndSticksEmitsBuildNoLayerIndex) {
  auto compiled = core::compileChip(core::samples::largeChip(16, 8));
  ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
  const core::CompiledChip& chip = **compiled;
  const std::size_t topBytes = chip.flatTop().approxBytes();
  const std::size_t coreBytes = chip.flatCore().approxBytes();
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  for (const char* name : {"svg", "sticks-svg", "sticks"}) {
    EXPECT_FALSE(reg.find(name)->emitToString(chip).empty()) << name;
    EXPECT_EQ(chip.flatTop().approxBytes(), topBytes) << name;
    EXPECT_EQ(chip.flatCore().approxBytes(), coreBytes) << name;
  }

  // A window equal to the bbox goes through the layer indexes, building
  // them, and still yields the whole-artwork view's rects.
  ViewOptions atBbox;
  atBbox.window = chip.flatTop().bbox();
  const View whole{chip.flatTop()};
  const View windowed{chip.flatTop(), atBbox};
  for (Layer l : tech::kAllLayers) {
    EXPECT_EQ(windowed.rectsOn(l), whole.rectsOn(l)) << tech::layerName(l);
  }
  EXPECT_GT(chip.flatTop().approxBytes(), topBytes);
}

TEST(WholeArtwork, EmptyRectOutsideTheBboxIsDroppedLikeAWindowedQuery) {
  // bbox() skips empty rects, so one can lie outside the whole-artwork
  // window; the index query never returned it, and neither may the
  // in-place walk.
  FlatLayout flat;
  flat.on(Layer::Metal) = {Rect{0, 0, 10, 10}, Rect{100, 100, 100, 120}, Rect{2, 2, 4, 4}};
  flat.on(Layer::Poly) = {Rect{1, 1, 5, 5}};
  ViewOptions atBbox;
  atBbox.window = flat.bbox();
  const View whole{flat};
  for (Layer l : {Layer::Metal, Layer::Poly}) {
    EXPECT_EQ(whole.rectsOn(l), View(flat, atBbox).rectsOn(l)) << tech::layerName(l);
  }
  EXPECT_EQ(whole.rectsOn(Layer::Metal), (std::vector<Rect>{Rect{0, 0, 10, 10}, Rect{2, 2, 4, 4}}));
  EXPECT_EQ(reps::sticksText(flat), refSticksText(reps::sticksOf(flat)));
}

// ----------------------------------------------------------- XML escaping

TEST(XmlEscape, EscapesMarkupCharacters) {
  EXPECT_EQ(layout::xmlEscape("a<b&\"c\">d"), "a&lt;b&amp;&quot;c&quot;&gt;d");
  EXPECT_EQ(layout::xmlEscape("plain"), "plain");
  EXPECT_EQ(layout::xmlEscape(""), "");
}

TEST(XmlEscape, PortLabelsAndTitlesAreEscapedInSvg) {
  cell::CellLibrary lib;
  cell::Cell* c = lib.create("esc");
  c->addRect(Layer::Metal, Rect{0, 0, lambda(10), lambda(3)});
  cell::Bristle b;
  b.name = "out<1>&\"q\"";
  b.pos = {lambda(5), lambda(3)};
  c->addBristle(b);
  layout::SvgOptions opts;
  opts.title = "chip <X> & \"Y\"";
  const std::string svg = layout::renderSvg(*c, opts);
  EXPECT_NE(svg.find("out&lt;1&gt;&amp;&quot;q&quot;"), std::string::npos);
  EXPECT_NE(svg.find("<title>chip &lt;X&gt; &amp; &quot;Y&quot;</title>"), std::string::npos);
  // The raw label must not appear anywhere (it would be invalid XML).
  EXPECT_EQ(svg.find("out<1>"), std::string::npos);

  // The overlay-label path of the flat overload too.
  const FlatLayout flat = cell::flatten(*c);
  const std::vector<layout::SvgOverlayPoint> overlay = {
      {{0, 0}, "a<&\"b", "red\" onload=\"x"}};
  const std::string svg2 = layout::renderSvg(flat, overlay, {});
  EXPECT_NE(svg2.find("a&lt;&amp;&quot;b"), std::string::npos);
  EXPECT_EQ(svg2.find("a<&"), std::string::npos);
  // Caller-supplied colors are attribute text too.
  EXPECT_NE(svg2.find("red&quot; onload=&quot;x"), std::string::npos);
  EXPECT_EQ(svg2.find("red\" onload"), std::string::npos);

  // ...and the sticks-SVG path's title.
  const std::string ssvg = reps::sticksSvg(flat, {}, 0.5, "s<&>t");
  EXPECT_NE(ssvg.find("<title>s&lt;&amp;&gt;t</title>"), std::string::npos);
}

// -------------------------------------------- EmitterOptions dispatch

class EmitterWindowing : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto compiled = core::compileChip(core::samples::smallChip(4));
    ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
    chip_ = std::move(*compiled).release();
  }
  static void TearDownTestSuite() {
    delete chip_;
    chip_ = nullptr;
  }
  static core::CompiledChip* chip_;
};

core::CompiledChip* EmitterWindowing::chip_ = nullptr;

TEST_F(EmitterWindowing, EachBackendDispatchesToItsWriter) {
  // One emit per backend: under every option set, each geometry backend
  // writes exactly what its writer, called directly, writes.
  const core::CompiledChip& chip = *chip_;
  const Rect bb = chip.flatTop().bbox();
  reps::EmitterOptions full;
  reps::EmitterOptions windowed;
  windowed.window = Rect{bb.x0 + bb.width() / 4, bb.y0 + bb.height() / 4,
                         bb.x0 + bb.width() / 2, bb.y0 + bb.height() / 2};
  windowed.tileSize = lambda(100);
  reps::EmitterOptions hier;
  hier.hierarchical = true;
  reps::EmitterOptions hierWindowed = windowed;
  hierWindowed.hierarchical = true;

  const auto bytes = [](const std::vector<std::uint8_t>& b) {
    return std::string(b.begin(), b.end());
  };
  const struct {
    const char* label;
    const reps::EmitterOptions& opts;
    std::string cif, gds;
  } cases[] = {
      {"full", full, layout::writeCif(*chip.top), bytes(layout::writeGds(*chip.top))},
      {"windowed", windowed, layout::writeCif(View{chip.flatTop(), windowed}),
       bytes(layout::writeGds(View{chip.flatTop(), windowed}))},
      {"hierarchical", hier, layout::writeCif(*chip.top), bytes(layout::writeGdsHier(*chip.top))},
      {"hierarchical+windowed", hierWindowed, layout::writeCif(View{chip.hierTop(), hierWindowed}),
       bytes(layout::writeGds(View{chip.hierTop(), hierWindowed}))},
  };
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  for (const auto& c : cases) {
    layout::SvgOptions svg;
    svg.title = chip.desc.name;
    svg.pixelsPerUnit = 0.25;
    svg.view = c.opts;
    const std::string sticksSvg = reps::sticksSvg(chip.flatCore(), c.opts);
    // EXPECT_TRUE keeps a mismatch report short: the documents are large.
    EXPECT_TRUE(reg.find("cif")->emitToString(chip, c.opts) == c.cif) << c.label;
    EXPECT_TRUE(reg.find("gds")->emitToString(chip, c.opts) == c.gds) << c.label;
    EXPECT_TRUE(reg.find("svg")->emitToString(chip, c.opts) == layout::renderSvg(*chip.top, svg))
        << c.label;
    EXPECT_TRUE(reg.find("sticks-svg")->emitToString(chip, c.opts) == sticksSvg) << c.label;
    EXPECT_NE(sticksSvg.find("<line"), std::string::npos) << c.label;
  }
}

TEST_F(EmitterWindowing, WindowedGeometryEmittersAreOutputSensitive) {
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  const Rect bb = chip_->flatTop().bbox();
  reps::EmitterOptions small;
  small.window = Rect{bb.x0, bb.y0, bb.x0 + bb.width() / 8, bb.y0 + bb.height() / 8};
  for (const char* name : {"cif", "gds", "svg"}) {
    const reps::Emitter* e = reg.find(name);
    ASSERT_NE(e, nullptr) << name;
    const std::string full = e->emitToString(*chip_);
    const std::string windowed = e->emitToString(*chip_, small);
    EXPECT_FALSE(windowed.empty()) << name;
    EXPECT_LT(windowed.size(), full.size()) << name;
  }
  // Windowed SVG keeps the non-geometry furniture of the plain render
  // (boundary outline; in-window markers), not just the mask rects.
  EXPECT_NE(reg.find("svg")->emitToString(*chip_, small).find("stroke-dasharray"),
            std::string::npos);
  // sticks-svg windows in core coordinates.
  const Rect cb = chip_->flatCore().bbox();
  reps::EmitterOptions coreWin;
  coreWin.window = Rect{cb.x0, cb.y0, cb.x0 + cb.width() / 4, cb.y0 + cb.height() / 4};
  const reps::Emitter* sticks = reg.find("sticks-svg");
  ASSERT_NE(sticks, nullptr);
  EXPECT_LT(sticks->emitToString(*chip_, coreWin).size(),
            sticks->emitToString(*chip_).size());
}

TEST_F(EmitterWindowing, MergedEmissionPreservesMaskArea) {
  reps::EmitterOptions merged;
  merged.merge = true;
  merged.tileSize = lambda(100);
  std::ostringstream os;
  ASSERT_TRUE(reps::EmitterRegistry::global().emit(*chip_, "cif", os, merged));
  cell::CellLibrary lib;
  const layout::CifParseResult res = layout::parseCif(os.str(), lib);
  ASSERT_TRUE(res.ok) << res.error;
  const FlatLayout back = cell::flatten(*res.top);
  const FlatLayout& raw = chip_->flatTop();
  for (Layer l : tech::kAllLayers) {
    EXPECT_EQ(geom::sweep::unionArea(back.on(l)), geom::sweep::unionArea(raw.on(l)))
        << tech::layerName(l);
  }
}

TEST_F(EmitterWindowing, NonGeometryEmittersIgnoreWindowing) {
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  reps::EmitterOptions w;
  w.window = Rect{0, 0, lambda(10), lambda(10)};
  w.tileSize = lambda(4);
  w.merge = true;
  w.hierarchical = true;
  for (const char* name :
       {"spice", "text", "block", "logic", "simulation", "transistors", "sticks"}) {
    const reps::Emitter* e = reg.find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_EQ(e->emitToString(*chip_), e->emitToString(*chip_, w)) << name;
  }
}

TEST(SessionStreaming, ViewportEmissionFromCompileSessionResult) {
  // The advertised workflow: drive the staged pipeline, then stream a
  // viewport of the result through any registered emitter.
  core::CompileSession session{core::samples::smallChip(4)};
  auto result = session.run();
  ASSERT_TRUE(result) << result.diagnostics().toString();
  const core::CompiledChip& chip = **result;
  const Rect bb = chip.flatTop().bbox();

  reps::EmitterOptions viewport;
  viewport.window = Rect{bb.x0, bb.y0, bb.x0 + bb.width() / 4, bb.y1};
  viewport.tileSize = lambda(200);
  std::ostringstream os;
  ASSERT_TRUE(reps::EmitterRegistry::global().emit(chip, "svg", os, viewport));
  EXPECT_NE(os.str().find("<svg"), std::string::npos);
  EXPECT_NE(os.str().find("</svg>"), std::string::npos);
}

}  // namespace
}  // namespace bb
