#include "geom/sweep.hpp"

#include <algorithm>
#include <cstdint>

namespace bb::geom::sweep {

namespace {

using detail::TreeNode;

/// Coverage-count tree over the elementary intervals of a compressed
/// y-edge list. Node i covers a range of elementary intervals; `count`
/// is how many open rects cover the whole node, `covered` the total
/// covered length beneath it.
///
/// The tree is 4-ary over a power-of-4-padded leaf domain: half the
/// depth of a binary tree, which halves the cache misses per update —
/// the update path is the hot loop of the whole sweep and the node
/// array outgrows L2 at chip scale. Padding leaves sit past the last
/// real y edge and have zero length, so they never contribute coverage
/// and updates (always within the real domain) never touch them. Works
/// on a caller-owned node buffer so CoverageQuery reuses the allocation
/// across calls.
class CoverTree {
 public:
  CoverTree(const std::vector<Coord>& ys, std::vector<TreeNode>& buf)
      : m_(ys.size() > 1 ? ys.size() - 1 : 0) {
    leaves_ = 1;
    while (leaves_ < m_) leaves_ *= 4;
    // Total nodes of a complete 4-ary tree with leaves_ leaves (0-based
    // heap: children of i are 4i+1 .. 4i+4).
    buf.assign(m_ ? (4 * leaves_ - 1) / 3 : 1, TreeNode{});
    nodes_ = buf.data();
    ys_ = ys.data();
  }

  /// Add `d` to the coverage count of elementary intervals [a, b).
  void add(std::size_t a, std::size_t b, int d) {
    if (m_ && a < b) addRec(0, 0, leaves_, a, b, d);
  }

  [[nodiscard]] Coord covered() const noexcept { return m_ ? nodes_[0].covered : 0; }

  /// Append the maximal covered y runs, ascending and merged.
  void coveredRuns(std::vector<std::pair<Coord, Coord>>& out) const {
    if (m_) runsRec(0, 0, leaves_, out);
  }

 private:
  /// y value of leaf boundary `i`, clamping the padded domain onto the
  /// last real edge (so padding spans have zero length).
  [[nodiscard]] Coord yAt(std::size_t i) const noexcept { return ys_[i < m_ ? i : m_]; }

  void addRec(std::size_t node, std::size_t lo, std::size_t hi, std::size_t a, std::size_t b,
              int d) {
    TreeNode& n = nodes_[node];
    if (a <= lo && hi <= b) {
      n.count += d;
    } else {
      const std::size_t q = (hi - lo) / 4;
      const std::size_t child = 4 * node + 1;
      for (std::size_t c = 0; c < 4; ++c) {
        const std::size_t clo = lo + c * q;
        const std::size_t chi = clo + q;
        if (a < chi && clo < b) addRec(child + c, clo, chi, a, b, d);
      }
    }
    if (n.count > 0) n.covered = yAt(hi) - yAt(lo);
    else if (hi - lo == 1) n.covered = 0;
    else {
      const std::size_t child = 4 * node + 1;
      n.covered = nodes_[child].covered + nodes_[child + 1].covered +
                  nodes_[child + 2].covered + nodes_[child + 3].covered;
    }
  }

  void runsRec(std::size_t node, std::size_t lo, std::size_t hi,
               std::vector<std::pair<Coord, Coord>>& out) const {
    const TreeNode& n = nodes_[node];
    if (n.count > 0) {
      // Fully-covered nodes are always inside the real domain (updates
      // never reach the padding), so no clamping is needed here.
      if (!out.empty() && out.back().second == ys_[lo]) out.back().second = ys_[hi];
      else out.emplace_back(ys_[lo], ys_[hi]);
      return;
    }
    if (n.covered == 0 || hi - lo == 1) return;
    const std::size_t q = (hi - lo) / 4;
    const std::size_t child = 4 * node + 1;
    for (std::size_t c = 0; c < 4; ++c) runsRec(child + c, lo + c * q, lo + (c + 1) * q, out);
  }

  TreeNode* nodes_ = nullptr;
  const Coord* ys_ = nullptr;
  std::size_t m_;        ///< real elementary interval count (ys.size() - 1)
  std::size_t leaves_;   ///< padded leaf count: smallest power of 4 >= m_
};

using Event = detail::SweepEvent;

std::uint32_t yIndex(const std::vector<Coord>& ys, Coord y) {
  return static_cast<std::uint32_t>(std::lower_bound(ys.begin(), ys.end(), y) - ys.begin());
}

/// Compress y edges and build the +1/-1 x events for every non-empty
/// rect. Empty rects are skipped in place; the input is untouched.
void buildEvents(const std::vector<Rect>& rs, std::vector<Coord>& ys, std::vector<Event>& evs) {
  ys.clear();
  evs.clear();
  ys.reserve(rs.size() * 2);
  for (const Rect& r : rs) {
    if (r.isEmpty()) continue;
    ys.push_back(r.y0);
    ys.push_back(r.y1);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  if (ys.empty()) return;
  evs.reserve(rs.size() * 2);
  for (const Rect& r : rs) {
    if (r.isEmpty()) continue;
    const std::uint32_t lo = yIndex(ys, r.y0);
    const std::uint32_t hi = yIndex(ys, r.y1);
    evs.push_back({r.x0, +1, lo, hi});
    evs.push_back({r.x1, -1, lo, hi});
  }
  std::sort(evs.begin(), evs.end(), [](const Event& a, const Event& b) { return a.x < b.x; });
}

}  // namespace

Coord unionArea(const std::vector<Rect>& rs) {
  std::vector<Coord> ys;
  std::vector<Event> evs;
  buildEvents(rs, ys, evs);
  if (evs.empty()) return 0;
  std::vector<TreeNode> buf;
  CoverTree t(ys, buf);
  Coord total = 0;
  Coord prevX = evs.front().x;
  std::size_t i = 0;
  while (i < evs.size()) {
    const Coord x = evs[i].x;
    total += t.covered() * (x - prevX);
    for (; i < evs.size() && evs[i].x == x; ++i) t.add(evs[i].lo, evs[i].hi, evs[i].delta);
    prevX = x;
  }
  return total;
}

std::vector<Rect> unionRects(const std::vector<Rect>& rs) {
  std::vector<Coord> ys;
  std::vector<Event> evs;
  std::vector<Rect> out;
  buildEvents(rs, ys, evs);
  if (evs.empty()) return out;
  std::vector<TreeNode> buf;
  CoverTree t(ys, buf);

  /// A y interval covered since slab edge `x`; `open` stays sorted by
  /// y0 (intervals are disjoint). An interval persists across a slab
  /// boundary only if its exact (y0, y1) pair is still a maximal
  /// covered run — any change closes it and opens the new run.
  struct OpenRun {
    Coord y0, y1, x;
  };
  std::vector<OpenRun> open, nextOpen;
  std::vector<std::pair<Coord, Coord>> runs;

  std::size_t i = 0;
  while (i < evs.size()) {
    const Coord x = evs[i].x;
    for (; i < evs.size() && evs[i].x == x; ++i) t.add(evs[i].lo, evs[i].hi, evs[i].delta);
    runs.clear();
    t.coveredRuns(runs);
    nextOpen.clear();
    std::size_t oi = 0, ri = 0;
    while (oi < open.size() && ri < runs.size()) {
      const auto ot = std::make_pair(open[oi].y0, open[oi].y1);
      if (ot == runs[ri]) {
        nextOpen.push_back(open[oi]);
        ++oi;
        ++ri;
      } else if (ot < runs[ri]) {
        out.emplace_back(open[oi].x, open[oi].y0, x, open[oi].y1);
        ++oi;
      } else {
        nextOpen.push_back({runs[ri].first, runs[ri].second, x});
        ++ri;
      }
    }
    for (; oi < open.size(); ++oi) out.emplace_back(open[oi].x, open[oi].y0, x, open[oi].y1);
    for (; ri < runs.size(); ++ri) nextOpen.push_back({runs[ri].first, runs[ri].second, x});
    open.swap(nextOpen);
  }
  // After the last event the coverage count is zero everywhere, so the
  // final iteration closed every open run; nothing is left dangling.
  return out;
}

bool CoverageQuery::clip(const Rect& region, const std::vector<Rect>& rects) {
  clipped_.clear();
  for (const Rect& r : rects) {
    if (auto c = r.intersectWith(region)) {
      if (*c == region) return true;
      clipped_.push_back(*c);
    }
  }
  return false;
}

bool CoverageQuery::clip(const Rect& region, const RectIndex& index) {
  // Non-touching rects contribute no coverage, so the candidates answer
  // exactly as the whole set would.
  index.queryTouching(region, cand_);
  clipped_.clear();
  for (const int i : cand_) {
    if (auto c = index.rect(static_cast<std::size_t>(i)).intersectWith(region)) {
      if (*c == region) return true;
      clipped_.push_back(*c);
    }
  }
  return false;
}

std::optional<Rect> CoverageQuery::gap(const Rect& region, const std::vector<Rect>& rects) {
  if (region.isEmpty() || clip(region, rects)) return std::nullopt;
  return sweepGap(region);
}

std::optional<Rect> CoverageQuery::gap(const Rect& region, const RectIndex& index) {
  if (region.isEmpty() || clip(region, index)) return std::nullopt;
  return sweepGap(region);
}

bool CoverageQuery::covers(const Rect& region, const std::vector<Rect>& rects) {
  return region.isEmpty() || clip(region, rects) || clipsCover(region);
}

bool CoverageQuery::covers(const Rect& region, const RectIndex& index) {
  return region.isEmpty() || clip(region, index) || clipsCover(region);
}

bool CoverageQuery::clipsCover(const Rect& region) {
  // Every clip lies inside the region, so each area is at most the
  // region's and the saturated sum cannot overflow.
  const Coord want = region.area();
  Coord sum = 0;
  for (const Rect& c : clipped_) sum = std::min(sum + c.area(), want);
  if (sum < want) return false;
  if (clipped_.size() == 2) {
    const auto both = clipped_[0].intersectWith(clipped_[1]);
    return clipped_[0].area() + clipped_[1].area() - (both ? both->area() : 0) == want;
  }
  return !sweepGap(region).has_value();
}

std::optional<Rect> CoverageQuery::sweepGap(const Rect& region) {
  if (clipped_.empty()) return region;

  ys_.clear();
  ys_.push_back(region.y0);
  ys_.push_back(region.y1);
  for (const Rect& c : clipped_) {
    ys_.push_back(c.y0);
    ys_.push_back(c.y1);
  }
  std::sort(ys_.begin(), ys_.end());
  ys_.erase(std::unique(ys_.begin(), ys_.end()), ys_.end());

  events_.clear();
  for (const Rect& c : clipped_) {
    const std::uint32_t lo = yIndex(ys_, c.y0);
    const std::uint32_t hi = yIndex(ys_, c.y1);
    events_.push_back({c.x0, +1, lo, hi});
    events_.push_back({c.x1, -1, lo, hi});
  }
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) { return a.x < b.x; });

  CoverTree t(ys_, nodes_);
  const Coord want = region.height();

  // First uncovered y run of the slab [xa, xb), or nullopt if covered.
  auto gapInSlab = [&](Coord xa, Coord xb) -> std::optional<Rect> {
    if (xb <= xa || t.covered() == want) return std::nullopt;
    runs_.clear();
    t.coveredRuns(runs_);
    Coord y = region.y0;
    for (const auto& [a, b] : runs_) {
      if (a > y) return Rect{xa, y, xb, a};
      y = std::max(y, b);
      if (y >= region.y1) break;
    }
    if (y < region.y1) return Rect{xa, y, xb, region.y1};
    return std::nullopt;  // unreachable: covered() < want implies a gap
  };

  Coord prevX = region.x0;
  std::size_t i = 0;
  while (i < events_.size()) {
    const Coord x = events_[i].x;
    if (auto g = gapInSlab(prevX, x)) return g;
    for (; i < events_.size() && events_[i].x == x; ++i) {
      t.add(events_[i].lo, events_[i].hi, events_[i].delta);
    }
    prevX = x;
  }
  return gapInSlab(prevX, region.x1);
}

std::optional<Rect> coverageGap(const Rect& region, const std::vector<Rect>& rects) {
  CoverageQuery q;
  return q.gap(region, rects);
}

std::optional<Rect> coverageGap(const Rect& region, const RectIndex& index) {
  CoverageQuery q;
  return q.gap(region, index);
}

}  // namespace bb::geom::sweep

namespace bb::geom {

// geom::unionArea is the sweep now; the slab-scan reference lives in
// geometry.cpp as unionAreaBrute.
Coord unionArea(const std::vector<Rect>& rs) { return sweep::unionArea(rs); }

}  // namespace bb::geom
