/// Procedural cell model: bristles, boundaries, stretching (the paper's
/// "painless operation", one cut or several in one pass, checked against
/// a reference one-cut stretch), flattening and flat counts, and the
/// textual cell library.

#include "cell/flatten.hpp"
#include "cell/library.hpp"
#include "cell/stretch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace bb::cell {
namespace {

using geom::lambda;
using geom::Point;
using geom::Rect;
using tech::Layer;

Cell makeTestCell() {
  Cell c("t");
  c.addRect(Layer::Metal, Rect{0, 0, lambda(20), lambda(3)});           // below line
  c.addRect(Layer::Poly, Rect{lambda(2), lambda(2), lambda(4), lambda(12)});  // crossing
  c.addRect(Layer::Diffusion, Rect{0, lambda(8), lambda(4), lambda(10)});     // above line
  c.addStretch(StretchAxis::Y, lambda(5), "mid");
  c.setBoundary(Rect{0, 0, lambda(20), lambda(12)});
  Bristle b;
  b.name = "p";
  b.pos = {lambda(10), lambda(12)};
  b.side = Side::North;
  c.addBristle(b);
  return c;
}

TEST(Stretch, MovesWidensAndTranslates) {
  const Cell c = makeTestCell();
  const Cell s = stretched(c, StretchAxis::Y, lambda(5), lambda(7));
  // Below the line: unchanged.
  EXPECT_EQ(std::get<Rect>(s.shapes()[0].geo), (Rect{0, 0, lambda(20), lambda(3)}));
  // Crossing: widened by 7L.
  EXPECT_EQ(std::get<Rect>(s.shapes()[1].geo),
            (Rect{lambda(2), lambda(2), lambda(4), lambda(19)}));
  // Above: translated by 7L.
  EXPECT_EQ(std::get<Rect>(s.shapes()[2].geo), (Rect{0, lambda(15), lambda(4), lambda(17)}));
  // Boundary grew; bristle moved.
  EXPECT_EQ(s.height(), lambda(19));
  EXPECT_EQ(s.bristles()[0].pos.y, lambda(19));
}

TEST(Stretch, ZeroDeltaIsIdentity) {
  const Cell c = makeTestCell();
  const Cell s = stretched(c, StretchAxis::Y, lambda(5), 0);
  EXPECT_EQ(s.height(), c.height());
  EXPECT_EQ(std::get<Rect>(s.shapes()[1].geo), std::get<Rect>(c.shapes()[1].geo));
}

/// Every field of two cells, compared exactly (own power bit for bit).
void expectSameCell(const Cell& a, const Cell& b, const std::string& what) {
  EXPECT_EQ(a.name(), b.name()) << what;
  EXPECT_EQ(a.doc(), b.doc()) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ownPower()), std::bit_cast<std::uint64_t>(b.ownPower()))
      << what << ": own power " << a.ownPower() << " vs " << b.ownPower();
  EXPECT_EQ(a.hasExplicitBoundary(), b.hasExplicitBoundary()) << what;
  EXPECT_EQ(a.boundary(), b.boundary()) << what;
  ASSERT_EQ(a.shapes().size(), b.shapes().size()) << what;
  for (std::size_t i = 0; i < a.shapes().size(); ++i) {
    const Shape& x = a.shapes()[i];
    const Shape& y = b.shapes()[i];
    EXPECT_EQ(x.layer, y.layer) << what << " shape " << i;
    ASSERT_EQ(x.geo.index(), y.geo.index()) << what << " shape " << i;
    std::visit(
        [&](const auto& g) {
          using T = std::decay_t<decltype(g)>;
          const T& h = std::get<T>(y.geo);
          if constexpr (std::is_same_v<T, Rect>) {
            EXPECT_EQ(g, h) << what << " shape " << i;
          } else {
            EXPECT_EQ(g.pts, h.pts) << what << " shape " << i;
            if constexpr (std::is_same_v<T, geom::Path>) {
              EXPECT_EQ(g.width, h.width) << what << " shape " << i;
            }
          }
        },
        x.geo);
  }
  ASSERT_EQ(a.instances().size(), b.instances().size()) << what;
  for (std::size_t i = 0; i < a.instances().size(); ++i) {
    EXPECT_EQ(a.instances()[i].cell, b.instances()[i].cell) << what << " instance " << i;
    EXPECT_EQ(a.instances()[i].placement, b.instances()[i].placement) << what << " instance " << i;
    EXPECT_EQ(a.instances()[i].name, b.instances()[i].name) << what << " instance " << i;
  }
  ASSERT_EQ(a.bristles().size(), b.bristles().size()) << what;
  for (std::size_t i = 0; i < a.bristles().size(); ++i) {
    const Bristle& x = a.bristles()[i];
    const Bristle& y = b.bristles()[i];
    EXPECT_TRUE(x.name == y.name && x.flavor == y.flavor && x.side == y.side && x.pos == y.pos &&
                x.layer == y.layer && x.width == y.width && x.decode == y.decode &&
                x.timingPhase == y.timingPhase && x.net == y.net)
        << what << " bristle " << i;
  }
  ASSERT_EQ(a.stretchLines().size(), b.stretchLines().size()) << what;
  for (std::size_t i = 0; i < a.stretchLines().size(); ++i) {
    const StretchLine& x = a.stretchLines()[i];
    const StretchLine& y = b.stretchLines()[i];
    EXPECT_TRUE(x.axis == y.axis && x.at == y.at && x.name == y.name)
        << what << " stretch line " << i;
  }
}

/// A random point on a 0..40L grid.
Point randomPoint(std::mt19937_64& rng) {
  return Point{lambda(static_cast<geom::Coord>(rng() % 41)),
               lambda(static_cast<geom::Coord>(rng() % 41))};
}

/// A random cell on a 0..40L grid: rects, polygons, paths of 0-3 points,
/// bristles, stretch lines on both axes, and (half the time) an explicit
/// boundary. No instances; see addInstancesClearOf.
Cell randomCell(std::mt19937_64& rng) {
  const tech::Layer layers[] = {Layer::Metal, Layer::Poly, Layer::Diffusion};
  const auto layer = [&] { return layers[rng() % 3]; };
  Cell c("r" + std::to_string(rng() % 1000));
  c.setDoc("random cell");
  c.setOwnPower(static_cast<double>(rng() % 1000) / 7.0);
  for (std::size_t i = 0, n = rng() % 8; i < n; ++i) {
    switch (rng() % 3) {
      case 0: {
        const Point a = randomPoint(rng);
        const Point b = randomPoint(rng);
        c.addRect(layer(), Rect{std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
                                std::max(a.y, b.y)});
        break;
      }
      case 1: {
        geom::Polygon p;
        for (std::size_t k = 0, m = 3 + rng() % 3; k < m; ++k) p.pts.push_back(randomPoint(rng));
        c.addPolygon(layer(), std::move(p));
        break;
      }
      default: {
        geom::Path p;
        p.width = lambda(2);
        for (std::size_t k = 0, m = rng() % 4; k < m; ++k) p.pts.push_back(randomPoint(rng));
        c.addPath(layer(), std::move(p));
        break;
      }
    }
  }
  for (std::size_t i = 0, n = rng() % 3; i < n; ++i) {
    Bristle b;
    b.name = "b" + std::to_string(i);
    b.pos = randomPoint(rng);
    b.net = "n" + std::to_string(rng() % 4);
    c.addBristle(std::move(b));
  }
  for (std::size_t i = 0, n = rng() % 4; i < n; ++i) {
    c.addStretch(rng() % 2 == 0 ? StretchAxis::X : StretchAxis::Y,
                 lambda(static_cast<geom::Coord>(rng() % 41)), "s" + std::to_string(i));
  }
  if (rng() % 2 == 0) c.setBoundary(Rect{0, 0, lambda(40), lambda(40)});
  return c;
}

/// Up to two instances of `leaves`, each placed wholly below, between or
/// above the cuts (no cut passes through its boundary on `axis`).
void addInstancesClearOf(Cell& c, std::mt19937_64& rng, const std::vector<const Cell*>& leaves,
                         StretchAxis axis, const std::vector<StretchCut>& cuts) {
  for (std::size_t i = 0, n = rng() % 3; i < n; ++i) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      const Cell* leaf = leaves[rng() % leaves.size()];
      const geom::Transform t{static_cast<geom::Orientation>(rng() % 8), randomPoint(rng)};
      const Rect b = t(leaf->boundary());
      const geom::Coord lo = axis == StretchAxis::X ? b.x0 : b.y0;
      const geom::Coord hi = axis == StretchAxis::X ? b.x1 : b.y1;
      if (std::none_of(cuts.begin(), cuts.end(),
                       [&](const StretchCut& k) { return lo < k.at && hi > k.at; })) {
        c.addInstance(leaf, t, "i" + std::to_string(i));
        break;
      }
    }
  }
}

/// Reference single-cut stretch: the algorithm of the implementation that
/// preceded the multi-cut form, rewritten on the public API, so the
/// equivalence test below does not compare the library with itself.
Cell refStretched(const Cell& c, StretchAxis axis, geom::Coord at, geom::Coord delta) {
  const auto movePoint = [&](Point p) {
    if ((axis == StretchAxis::X ? p.x : p.y) >= at) {
      return p + (axis == StretchAxis::X ? Point{delta, 0} : Point{0, delta});
    }
    return p;
  };
  const auto stretchRect = [&](const Rect& r) {
    const Point a = movePoint({r.x0, r.y0});
    const Point b = movePoint({r.x1, r.y1});
    return Rect{a.x, a.y, b.x, b.y};
  };
  Cell out(c.name() + "+" + std::to_string(delta));
  out.setDoc(c.doc());
  out.setOwnPower(c.powerDemand());
  double sub = 0;
  for (const Instance& i : c.instances()) sub += i.cell->powerDemand();
  out.setOwnPower(c.powerDemand() - sub);
  for (const Shape& s : c.shapes()) {
    std::visit(
        [&](const auto& g) {
          using T = std::decay_t<decltype(g)>;
          if constexpr (std::is_same_v<T, Rect>) {
            out.addRect(s.layer, stretchRect(g));
          } else if constexpr (std::is_same_v<T, geom::Polygon>) {
            geom::Polygon p = g;
            for (Point& q : p.pts) q = movePoint(q);
            out.addPolygon(s.layer, std::move(p));
          } else {
            geom::Path p = g;
            for (Point& q : p.pts) q = movePoint(q);
            out.addPath(s.layer, std::move(p));
          }
        },
        s.geo);
  }
  for (const Instance& i : c.instances()) {
    const Rect b = i.placement(i.cell->boundary());
    geom::Transform t = i.placement;
    if ((axis == StretchAxis::X ? b.x0 : b.y0) >= at) {
      t.offset += axis == StretchAxis::X ? Point{delta, 0} : Point{0, delta};
    }
    out.addInstance(i.cell, t, i.name);
  }
  for (Bristle b : c.bristles()) {
    b.pos = movePoint(b.pos);
    out.addBristle(std::move(b));
  }
  for (const StretchLine& sl : c.stretchLines()) {
    StretchLine ns = sl;
    if (ns.axis == axis && ns.at >= at) ns.at += delta;
    out.addStretch(ns.axis, ns.at, ns.name);
  }
  out.setBoundary(stretchRect(c.boundary()));
  return out;
}

TEST(Stretch, MultiCutEqualsSequentialCuts) {
  CellLibrary lib;
  std::vector<const Cell*> leaves;
  for (int i = 0; i < 3; ++i) {
    Cell* leaf = lib.create("leaf" + std::to_string(i));
    leaf->addRect(Layer::Metal, Rect{0, 0, lambda(2 + i), lambda(3)});
    leaf->setOwnPower(0.1 * (i + 1));  // inexact sums: own power is checked bit for bit
    leaves.push_back(leaf);
  }
  std::mt19937_64 rng(20261017);
  int coincident = 0;
  int onEdge = 0;
  int withInstances = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const StretchAxis axis = rng() % 2 == 0 ? StretchAxis::X : StretchAxis::Y;
    Cell c = randomCell(rng);
    // 1-3 cuts: random lines, repeats of an earlier cut, shape edges.
    std::vector<StretchCut> cuts;
    for (std::size_t k = 0, n = 1 + rng() % 3; k < n; ++k) {
      StretchCut cut{lambda(static_cast<geom::Coord>(rng() % 41)),
                     lambda(static_cast<geom::Coord>(rng() % 6))};
      if (k > 0 && rng() % 3 == 0) {
        cut.at = cuts[rng() % k].at;
        ++coincident;
      } else if (!c.shapes().empty() && rng() % 3 == 0) {
        const Rect b = c.shapes()[rng() % c.shapes().size()].bbox();
        const bool low = rng() % 2 == 0;
        cut.at = axis == StretchAxis::X ? (low ? b.x0 : b.x1) : (low ? b.y0 : b.y1);
        ++onEdge;
      }
      cuts.push_back(cut);
    }
    addInstancesClearOf(c, rng, leaves, axis, cuts);
    withInstances += c.instances().empty() ? 0 : 1;

    // The same cuts one at a time, each at its line's position in the
    // cell the earlier cuts produced: through the library's one-cut call
    // and through the reference.
    Cell seq = c;
    Cell ref = c;
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      geom::Coord pos = cuts[k].at;
      for (std::size_t j = 0; j < k; ++j) pos += cuts[j].at <= cuts[k].at ? cuts[j].delta : 0;
      seq = stretched(seq, axis, pos, cuts[k].delta);
      ref = refStretched(ref, axis, pos, cuts[k].delta);
    }
    const Cell multi = stretched(c, axis, cuts);
    expectSameCell(multi, ref, "trial " + std::to_string(trial) + " vs reference");
    expectSameCell(seq, ref, "trial " + std::to_string(trial) + " one-cut calls vs reference");
    if (HasFatalFailure()) return;
  }
  // The seed exercises the cases the equivalence argument is about.
  EXPECT_GT(coincident, 20);
  EXPECT_GT(onEdge, 20);
  EXPECT_GT(withInstances, 100);
}

TEST(Stretch, CoincidentCutsComposeAdditively) {
  // Stretching at one line by a then b equals stretching by a+b.
  const Cell c = makeTestCell();
  const StretchCut twice[] = {{lambda(5), lambda(3)}, {lambda(5), lambda(4)}};
  const Cell ab = stretched(c, StretchAxis::Y, twice);
  const Cell once = stretched(c, StretchAxis::Y, lambda(5), lambda(7));
  EXPECT_EQ(ab.name(), c.name() + "+" + std::to_string(lambda(3)) + "+" +
                           std::to_string(lambda(4)));
  ASSERT_EQ(ab.shapes().size(), once.shapes().size());
  for (std::size_t i = 0; i < ab.shapes().size(); ++i) {
    EXPECT_EQ(ab.shapes()[i].bbox(), once.shapes()[i].bbox()) << i;
  }
  EXPECT_EQ(ab.boundary(), once.boundary());
}

TEST(Stretch, GrowsAreaOnlyByCrossingShapes) {
  const Cell c = makeTestCell();
  const Cell s = stretched(c, StretchAxis::Y, lambda(5), lambda(7));
  // Total area grows exactly by (widened widths x delta).
  geom::Coord grew = 0;
  for (std::size_t i = 0; i < c.shapes().size(); ++i) {
    grew += s.shapes()[i].bbox().area() - c.shapes()[i].bbox().area();
  }
  EXPECT_EQ(grew, lambda(2) * lambda(7));  // only the crossing 2L-wide poly
}

TEST(StretchToExtent, DistributesOverLines) {
  Cell c("two");
  c.addRect(Layer::Metal, Rect{0, 0, lambda(30), lambda(3)});
  c.addStretch(StretchAxis::X, lambda(10), "a");
  c.addStretch(StretchAxis::X, lambda(20), "b");
  c.setBoundary(Rect{0, 0, lambda(30), lambda(3)});
  const FitResult r = stretchedToExtent(c, StretchAxis::X, lambda(41));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.cell.width(), lambda(41));
}

TEST(StretchToExtent, RefusesShrink) {
  Cell c("s");
  c.addRect(Layer::Metal, Rect{0, 0, lambda(30), lambda(3)});
  c.setBoundary(Rect{0, 0, lambda(30), lambda(3)});
  const FitResult r = stretchedToExtent(c, StretchAxis::X, lambda(10));
  EXPECT_FALSE(r.ok);
}

TEST(StretchToExtent, RefusesWithoutLines) {
  Cell c("n");
  c.addRect(Layer::Metal, Rect{0, 0, lambda(10), lambda(3)});
  c.setBoundary(Rect{0, 0, lambda(10), lambda(3)});
  const FitResult r = stretchedToExtent(c, StretchAxis::X, lambda(20));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no stretch line"), std::string::npos);
}

TEST(Flatten, TransformsHierarchy) {
  CellLibrary lib;
  Cell* leaf = lib.create("leaf");
  leaf->addRect(Layer::Poly, Rect{0, 0, lambda(2), lambda(4)});
  Cell* mid = lib.create("mid");
  mid->addInstance(leaf, geom::Transform{geom::Orientation::R90, {lambda(10), 0}});
  Cell* top = lib.create("top");
  top->addInstance(mid, geom::Transform::translate({lambda(100), lambda(100)}));

  const FlatLayout flat = flatten(*top);
  ASSERT_EQ(flat.on(Layer::Poly).size(), 1u);
  // R90 of [0,0,2,4] is [-4,0,0,2]; +10 in x; +100,+100.
  EXPECT_EQ(flat.on(Layer::Poly)[0],
            (Rect{lambda(106), lambda(100), lambda(110), lambda(102)}));
}

TEST(Flatten, FlatCountMatchesFlattenOnASharedDag) {
  CellLibrary lib;
  Cell* leaf = lib.create("leaf");
  leaf->addRect(Layer::Poly, Rect{0, 0, lambda(2), lambda(4)});
  geom::Path none;  // no points: no rects
  none.width = lambda(2);
  leaf->addPath(Layer::Metal, none);
  geom::Path dot = none;  // one point: one square
  dot.pts = {{lambda(1), lambda(1)}};
  leaf->addPath(Layer::Metal, dot);
  geom::Path bend = none;  // three points: two segments
  bend.pts = {{0, 0}, {lambda(6), 0}, {lambda(6), lambda(5)}};
  leaf->addPath(Layer::Metal, bend);
  leaf->addPolygon(Layer::Diffusion,
                   geom::Polygon{{{0, 0}, {lambda(3), 0}, {lambda(3), lambda(3)}}});
  Cell* mid = lib.create("mid");
  mid->addRect(Layer::Metal, Rect{0, 0, lambda(20), lambda(3)});
  mid->addInstance(leaf, geom::Transform{geom::Orientation::MX90, {lambda(10), 0}});
  Cell* top = lib.create("top");
  top->addInstance(leaf, geom::Transform::translate({lambda(50), 0}));  // depth 1
  top->addInstance(mid, geom::Transform::translate({0, lambda(30)}));   // leaf at depth 2
  top->addInstance(mid, geom::Transform{geom::Orientation::R180, {lambda(90), lambda(90)}});

  EXPECT_EQ(flatCount(*leaf), 5u);  // rect + 0 + 1 + 2 + polygon
  EXPECT_EQ(flatCount(*mid), 6u);
  EXPECT_EQ(flatCount(*top), 17u);
  for (const Cell* c : {leaf, mid, top}) {
    EXPECT_EQ(flatCount(*c), flatten(*c).totalCount()) << c->name();
  }
}

TEST(Flatten, CountsAllLevels) {
  CellLibrary lib;
  Cell* leaf = lib.create("leaf");
  leaf->addRect(Layer::Metal, Rect{0, 0, 4, 4});
  Cell* top = lib.create("top");
  for (int i = 0; i < 5; ++i) {
    top->addInstance(leaf, geom::Transform::translate({i * 10, 0}));
  }
  top->addRect(Layer::Poly, Rect{0, 0, 2, 2});
  EXPECT_EQ(flatten(*top).totalCount(), 6u);
  EXPECT_EQ(top->totalShapeCount(), 6u);
}

TEST(Library, UniqueNamesAndLookup) {
  CellLibrary lib;
  Cell* a = lib.create("x");
  Cell* b = lib.create("x");
  EXPECT_NE(a->name(), b->name());
  EXPECT_EQ(lib.find(a->name()), a);
  EXPECT_EQ(lib.find("nosuch"), nullptr);
}

TEST(Library, SaveLoadRoundTrip) {
  CellLibrary lib;
  Cell* leaf = lib.create("leaf");
  leaf->addRect(Layer::Diffusion, Rect{0, 0, lambda(4), lambda(4)});
  Cell* c = lib.create("rt");
  c->addRect(Layer::Metal, Rect{0, 0, lambda(10), lambda(3)});
  geom::Path w;
  w.width = lambda(2);
  w.pts = {{0, 0}, {lambda(8), 0}};
  c->addPath(Layer::Poly, w);
  c->addInstance(leaf, geom::Transform{geom::Orientation::MX, {lambda(5), lambda(5)}});
  c->addStretch(StretchAxis::Y, lambda(2), "line");
  c->setBoundary(Rect{0, 0, lambda(12), lambda(12)});
  Bristle b;
  b.name = "in";
  b.flavor = BristleFlavor::BusA;
  b.side = Side::West;
  b.pos = {0, lambda(6)};
  b.layer = Layer::Metal;
  b.width = lambda(3);
  c->addBristle(b);

  const std::string text = lib.saveCell(*c);
  CellLibrary lib2;
  Cell* leaf2 = lib2.create("leaf");
  leaf2->addRect(Layer::Diffusion, Rect{0, 0, lambda(4), lambda(4)});
  auto res = lib2.loadCell(text);
  ASSERT_NE(res.cell, nullptr) << res.error;
  EXPECT_EQ(res.cell->shapes().size(), c->shapes().size());
  EXPECT_EQ(res.cell->bristles().size(), 1u);
  EXPECT_EQ(res.cell->bristles()[0].flavor, BristleFlavor::BusA);
  EXPECT_EQ(res.cell->stretchLines().size(), 1u);
  EXPECT_EQ(res.cell->boundary(), c->boundary());
  EXPECT_EQ(res.cell->instances().size(), 1u);
  EXPECT_EQ(res.cell->instances()[0].placement.orient, geom::Orientation::MX);
}

TEST(Library, LoadRejectsMalformed) {
  CellLibrary lib;
  auto r1 = lib.loadCell("rect ND 0 0 4 4\n");
  EXPECT_EQ(r1.cell, nullptr);
  auto r2 = lib.loadCell("cell z\nrect XX 0 0 4 4\nend\n");
  EXPECT_EQ(r2.cell, nullptr);
  EXPECT_NE(r2.error.find("unknown layer"), std::string::npos);
}

TEST(Power, AggregatesThroughHierarchy) {
  CellLibrary lib;
  Cell* leaf = lib.create("leaf");
  leaf->setOwnPower(50.0);
  Cell* top = lib.create("top");
  top->setOwnPower(10.0);
  top->addInstance(leaf, {});
  top->addInstance(leaf, {});
  EXPECT_DOUBLE_EQ(top->powerDemand(), 110.0);
}

}  // namespace
}  // namespace bb::cell
