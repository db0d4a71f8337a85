/// Sweep-line geometry core tests: unionArea vs the brute slab scan,
/// unionRects decomposition properties, coverage-gap queries, and the
/// index-filtered subtractRects against its sequential reference.

#include "extract/extract.hpp"
#include "geom/rect_index.hpp"
#include "geom/sweep.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace bb::geom {
namespace {

using extract::subtractRects;
using extract::subtractRectsBrute;

std::vector<Rect> randomRects(std::size_t n, unsigned seed, Coord span, Coord maxSize) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Coord> pos(-span, span);
  std::uniform_int_distribution<Coord> size(0, maxSize);  // 0 => some empties
  std::vector<Rect> rs;
  rs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Coord x = pos(rng), y = pos(rng);
    rs.emplace_back(x, y, x + size(rng), y + size(rng));
  }
  return rs;
}

TEST(SweepUnionArea, MatchesBruteOnRandomSets) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    for (const std::size_t n : {0u, 1u, 2u, 17u, 100u, 400u}) {
      const auto rs = randomRects(n, seed * 7919 + n, 200, 60);
      EXPECT_EQ(sweep::unionArea(rs), unionAreaBrute(rs))
          << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(SweepUnionArea, GeomEntryPointIsTheSweep) {
  const auto rs = randomRects(64, 42, 100, 40);
  EXPECT_EQ(unionArea(rs), sweep::unionArea(rs));
  EXPECT_EQ(unionArea(rs), unionAreaBrute(rs));
}

TEST(SweepUnionRects, DecompositionIsDisjointAndExact) {
  for (unsigned seed = 1; seed <= 6; ++seed) {
    const auto rs = randomRects(60, seed * 131, 120, 50);
    const auto pieces = sweep::unionRects(rs);
    Coord sum = 0;
    for (const Rect& p : pieces) {
      EXPECT_FALSE(p.isEmpty());
      sum += p.area();
    }
    // Disjoint + each piece inside the union + areas summing to the
    // union area <=> an exact decomposition.
    EXPECT_EQ(sum, unionArea(rs)) << "seed=" << seed;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      for (std::size_t j = i + 1; j < pieces.size(); ++j) {
        EXPECT_FALSE(pieces[i].overlaps(pieces[j]))
            << toString(pieces[i]) << " vs " << toString(pieces[j]);
      }
    }
    // Every input rect must be fully covered by the decomposition.
    for (const Rect& r : rs) {
      if (r.isEmpty()) continue;
      EXPECT_FALSE(sweep::coverageGap(r, pieces).has_value()) << toString(r);
    }
  }
}

TEST(SweepUnionRects, MergesAbuttingTilesMaximally) {
  // Two abutting tiles with identical y span form ONE maximal rect.
  const std::vector<Rect> row = {{0, 0, 10, 10}, {10, 0, 25, 10}};
  const auto merged = sweep::unionRects(row);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], (Rect{0, 0, 25, 10}));

  // A plus shape decomposes into three x slabs (left arm, core, right
  // arm) — the core spans the full vertical bar while it persists.
  const std::vector<Rect> plus = {{-10, 0, 20, 10}, {0, -10, 10, 20}};
  const auto pieces = sweep::unionRects(plus);
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], (Rect{-10, 0, 0, 10}));   // left arm closes first
  EXPECT_EQ(pieces[1], (Rect{0, -10, 10, 20}));  // full-height core
  EXPECT_EQ(pieces[2], (Rect{10, 0, 20, 10}));   // right arm
}

TEST(SweepCoverage, FullCoverAndWitnessGap) {
  sweep::CoverageQuery q;
  const Rect region{0, 0, 20, 20};
  // Covered by two abutting halves: no gap.
  EXPECT_FALSE(q.gap(region, {Rect{0, 0, 20, 11}, Rect{0, 11, 20, 20}}).has_value());
  // Empty region is trivially covered.
  EXPECT_FALSE(q.gap(Rect{5, 5, 5, 9}, std::vector<Rect>{}).has_value());
  // No rects at all: the witness is the whole region.
  EXPECT_EQ(q.gap(region, std::vector<Rect>{}), region);

  // A hole in the middle: the witness must be a non-empty uncovered
  // sub-rect of the region.
  const std::vector<Rect> withHole = {
      {0, 0, 20, 8}, {0, 12, 20, 20}, {0, 8, 9, 12}, {11, 8, 20, 12}};
  const auto g = q.gap(region, withHole);
  ASSERT_TRUE(g.has_value());
  EXPECT_FALSE(g->isEmpty());
  EXPECT_TRUE(region.contains(*g));
  for (const Rect& r : withHole) EXPECT_FALSE(g->overlaps(r)) << toString(*g);
  EXPECT_EQ(*g, (Rect{9, 8, 11, 12}));
}

TEST(SweepCoverage, GapAtRegionEdges) {
  sweep::CoverageQuery q;
  const Rect region{0, 0, 10, 10};
  // Uncovered slab before the first rect.
  EXPECT_EQ(q.gap(region, {Rect{4, 0, 10, 10}}), (Rect{0, 0, 4, 10}));
  // Uncovered slab after the last rect.
  EXPECT_EQ(q.gap(region, {Rect{0, 0, 7, 10}}), (Rect{7, 0, 10, 10}));
  // Uncovered run at the bottom of a slab.
  EXPECT_EQ(q.gap(region, {Rect{0, 3, 10, 10}}), (Rect{0, 0, 10, 3}));
}

TEST(SweepCoverage, IndexedOverloadMatchesVectorOverload) {
  sweep::CoverageQuery q;
  const auto rs = randomRects(120, 9001, 80, 30);
  const RectIndex idx(rs);
  for (unsigned seed = 0; seed < 24; ++seed) {
    std::mt19937 rng(seed + 500);
    std::uniform_int_distribution<Coord> pos(-80, 60);
    const Coord x = pos(rng), y = pos(rng);
    const Rect region{x, y, x + 25, y + 25};
    EXPECT_EQ(q.gap(region, rs).has_value(), q.gap(region, idx).has_value()) << toString(region);
  }
}

TEST(SweepCoverage, QueryIsReusableAcrossCalls) {
  sweep::CoverageQuery q;
  const Rect region{0, 0, 10, 10};
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(q.gap(region, {region}).has_value());
    EXPECT_TRUE(q.gap(region, {Rect{0, 0, 5, 10}}).has_value());
  }
}

TEST(CoverageQuery, CoversMatchesGapOnSmallSets) {
  // The sets DRC's coverage probes hand over: a region and 0-4 rects
  // near it. `covers` decides most of them by arithmetic (one clip equal
  // to the region, clip areas summing short of it, two clips' union
  // area) and the rest by the sweep; every exit must agree with the gap
  // sweep and with the brute union area of the clips, for both
  // overloads.
  sweep::CoverageQuery q;
  int covered = 0, uncovered = 0;
  const auto check = [&](const Rect& region, const std::vector<Rect>& rs) {
    std::vector<Rect> clips;
    for (const Rect& r : rs) {
      if (auto c = r.intersectWith(region)) clips.push_back(*c);
    }
    const bool want = unionAreaBrute(clips) == region.area();
    const RectIndex idx(rs);
    std::string what = toString(region);
    for (const Rect& r : rs) {
      what += ' ';
      what += toString(r);
    }
    EXPECT_EQ(q.covers(region, rs), want) << what;
    EXPECT_EQ(q.covers(region, rs), !q.gap(region, rs).has_value()) << what;
    EXPECT_EQ(q.covers(region, idx), want) << what;
    EXPECT_EQ(q.covers(region, idx), !q.gap(region, idx).has_value()) << what;
    ++(want ? covered : uncovered);
  };

  const Rect region{0, 0, 20, 10};
  check(region, {});
  check(region, {{0, 0, 8, 10}, {8, 0, 20, 10}});            // tiling split on x
  check(region, {{0, 0, 20, 4}, {0, 4, 20, 10}});            // tiling split on y
  check(region, {{-5, -5, 12, 15}, {8, -1, 25, 11}});        // overlapping pair covers
  check(region, {{0, 0, 12, 10}, {8, 1, 20, 10}});           // overlapping pair, sliver left
  check(region, {{0, 0, 8, 10}, {9, 0, 20, 10}});            // abutting short of a sliver
  check(region, {{0, 0, 12, 10}, {0, 0, 12, 10}});           // duplicates
  check(region, {region, region});                           // duplicates of the region
  check(region, {{20, 0, 30, 10}, {0, 10, 20, 15}, {-5, -5, 0, 0}});  // edge-only touches
  check(region, {{0, 0, 20, 5}, {0, 10, 20, 15}});           // one partial, one edge-only
  check(region, {{0, 0, 7, 10}, {7, 0, 14, 10}, {14, 0, 20, 10}});    // three tiles
  check(region, {{0, 0, 20, 4}, {0, 6, 20, 10}, {0, 3, 9, 7}, {11, 3, 20, 7}});  // a hole

  // Seeded regions. Even rounds split the region in two on x or on y,
  // each piece's edges nudged by up to two units either way (mostly
  // outward), so exact tilings, overlaps and slivers all come up, and
  // add 0-2 more rects; odd rounds take 0-4 rects whose edges snap to
  // the region's edges and thirds, or just beyond them. Every seventh
  // round repeats a rect.
  std::mt19937 rng(2024);
  std::uniform_int_distribution<Coord> pos(-20, 20), side(1, 12), pick(0, 6), nudge(0, 5);
  std::uniform_int_distribution<int> count(0, 4), extra(0, 2);
  const Coord out[] = {-2, -1, 0, 0, 0, 1};  // mostly outward of a lower edge
  for (int t = 0; t < 400; ++t) {
    const Coord x = pos(rng), y = pos(rng);
    const Rect r{x, y, x + side(rng), y + side(rng)};
    const auto lo = [&](Coord v) { return v + out[nudge(rng)]; };
    const auto hi = [&](Coord v) { return v - out[nudge(rng)]; };
    const auto snap = [&](Coord a, Coord b) {
      const Coord at[] = {a - 3, a, a + (b - a) / 3, a + (b - a) / 2, b - 1, b, b + 2};
      return at[pick(rng)];
    };
    std::vector<Rect> rs;
    int more = count(rng);
    if (t % 2 == 0) {
      if (t % 4 == 0) {
        const Coord sx = r.x0 + side(rng) % (r.width() + 1);
        rs.emplace_back(lo(r.x0), lo(r.y0), hi(sx), hi(r.y1));
        rs.emplace_back(lo(sx), lo(r.y0), hi(r.x1), hi(r.y1));
      } else {
        const Coord sy = r.y0 + side(rng) % (r.height() + 1);
        rs.emplace_back(lo(r.x0), lo(r.y0), hi(r.x1), hi(sy));
        rs.emplace_back(lo(r.x0), lo(sy), hi(r.x1), hi(r.y1));
      }
      more = extra(rng);
    }
    for (; more > 0; --more) {
      rs.emplace_back(snap(r.x0, r.x1), snap(r.y0, r.y1), snap(r.x0, r.x1), snap(r.y0, r.y1));
    }
    if (t % 7 == 0 && !rs.empty()) rs.push_back(rs.front());
    check(r, rs);
  }
  EXPECT_GT(covered, 40);
  EXPECT_GT(uncovered, 40);
}

TEST(SubtractRects, IndexedMatchesBruteBitForBit) {
  // Enough holes to cross the internal index threshold, including
  // duplicates, flush edges, full-span cuts and out-of-base holes.
  const Rect base{0, 0, 400, 400};
  std::vector<Rect> holes;
  std::mt19937 rng(77);
  std::uniform_int_distribution<Coord> pos(-40, 400);
  std::uniform_int_distribution<Coord> size(1, 90);
  for (int i = 0; i < 120; ++i) {
    const Coord x = pos(rng), y = pos(rng);
    holes.emplace_back(x, y, x + size(rng), y + size(rng));
    if (i % 10 == 0) holes.push_back(holes.back());  // duplicate hole
  }
  holes.emplace_back(0, 100, 400, 120);  // full-width band, flush both sides
  holes.emplace_back(0, 0, 50, 50);      // flush with the base corner
  const auto brute = subtractRectsBrute(base, holes);
  const auto indexed = subtractRects(base, holes);
  EXPECT_EQ(indexed, brute);  // values AND order
  for (const Rect& r : indexed) EXPECT_FALSE(r.isEmpty());
}

TEST(SubtractRects, EmitTimeSkipOfDegenerateFragments) {
  // Hole flush with the base's left and top edges: the "above" and
  // "left" slices are degenerate and must never be emitted.
  const Rect base{0, 0, 10, 10};
  const auto out = subtractRectsBrute(base, {Rect{0, 4, 6, 10}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Rect{0, 0, 10, 4}));   // below
  EXPECT_EQ(out[1], (Rect{6, 4, 10, 10}));  // right
  Coord area = 0;
  for (const Rect& r : out) area += r.area();
  EXPECT_EQ(area, 100 - 36);
}

}  // namespace
}  // namespace bb::geom
