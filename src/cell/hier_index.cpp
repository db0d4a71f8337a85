#include "cell/hier_index.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace bb::cell {
namespace {

/// Postorder listing of the distinct cells reachable from `c` (children
/// finish before parents), so the reverse is a topological order of the
/// instance DAG.
void postorder(const Cell* c, std::unordered_set<const Cell*>& seen,
               std::vector<const Cell*>& out) {
  if (!seen.insert(c).second) return;
  for (const Instance& i : c->instances()) {
    if (i.cell != nullptr) postorder(i.cell, seen, out);
  }
  out.push_back(c);
}

/// The shape half of `flattenInto`: this cell's own primitives at `t`,
/// without recursing into instances (expansion decides per-instance
/// whether to recurse or to record a placement).
void addOwnShapes(FlatLayout& out, const Cell& c, const geom::Transform& t) {
  for (const Shape& s : c.shapes()) {
    std::visit(
        [&](const auto& g) {
          using T = std::decay_t<decltype(g)>;
          if constexpr (std::is_same_v<T, geom::Rect>) {
            out.on(s.layer).push_back(t(g));
          } else if constexpr (std::is_same_v<T, geom::Polygon>) {
            out.polygons.emplace_back(s.layer, t(g));
          } else {
            const geom::Path tp = t(g);
            for (const geom::Rect& r : tp.toRects()) out.on(s.layer).push_back(r);
          }
        },
        s.geo);
  }
}

}  // namespace

HierIndex::HierIndex(const Cell& top, std::size_t minUnitShapes) : top_(&top) {
  // Pass 1: total occurrence count of every cell in the fully expanded
  // tree, by propagating multiplicity down a topological order.
  std::unordered_set<const Cell*> seen;
  std::vector<const Cell*> topo;
  postorder(&top, seen, topo);
  std::reverse(topo.begin(), topo.end());  // parents before children
  std::unordered_map<const Cell*, std::size_t> occ;
  occ[&top] = 1;
  for (const Cell* c : topo) {
    const std::size_t n = occ[c];
    for (const Instance& i : c->instances()) {
      if (i.cell != nullptr) occ[i.cell] += n;
    }
  }

  // Pass 2: expand from the top, stopping at the first cell that
  // qualifies as a reuse unit. Everything above a unit boundary lands in
  // the residual; everything below lives in exactly one unit's flatten —
  // the geometry partitions exactly.
  const auto isUnitCell = [&](const Cell* c) {
    return c != &top && occ[c] > 1 && c->totalShapeCount() >= minUnitShapes;
  };
  struct RawPlacement {
    const Cell* cell;
    geom::Transform t;
  };
  std::vector<RawPlacement> raw;
  std::unordered_set<const Cell*> usedUnits;
  const std::function<void(const Cell&, const geom::Transform&)> expand =
      [&](const Cell& c, const geom::Transform& t) {
        addOwnShapes(residual_, c, t);
        for (const Instance& i : c.instances()) {
          if (i.cell == nullptr) continue;
          const geom::Transform ct = t * i.placement;
          if (isUnitCell(i.cell)) {
            raw.push_back({i.cell, ct});
            usedUnits.insert(i.cell);
          } else {
            expand(*i.cell, ct);
          }
        }
      };
  expand(top, geom::Transform{});

  // Pass 3: flatten each reached unit once, in topological (hence
  // deterministic) order. A qualifying cell nested entirely inside
  // another unit is never reached, so it costs nothing here.
  std::unordered_map<const Cell*, std::size_t> unitOf;
  for (const Cell* c : topo) {
    if (usedUnits.count(c) == 0) continue;
    unitOf.emplace(c, units_.size());
    HierUnit u;
    u.cell = c;
    u.flat = flatten(*c);
    u.bbox = u.flat.bbox();
    units_.push_back(std::move(u));
  }

  // Pass 4: resolve placements and the derived totals/spatial index.
  placements_.reserve(raw.size());
  worldBoxes_.reserve(raw.size());
  geom::Rect acc;
  bool first = true;
  const auto grow = [&](const geom::Rect& r) {
    if (first) {
      acc = r;
      first = false;
    } else {
      acc = acc.unionWith(r);
    }
  };
  if (residual_.totalCount() > 0) grow(residual_.bbox());
  flatCount_ = residual_.totalCount();
  uniqueCount_ = residual_.totalCount();
  for (const RawPlacement& rp : raw) {
    const std::size_t ui = unitOf.at(rp.cell);
    HierUnit& u = units_[ui];
    u.placementCount++;
    HierPlacement p;
    p.unit = ui;
    p.t = rp.t;
    p.worldBBox = rp.t(u.bbox);
    worldBoxes_.push_back(p.worldBBox);
    grow(p.worldBBox);
    placements_.push_back(p);
    flatCount_ += u.flat.totalCount();
  }
  for (const HierUnit& u : units_) uniqueCount_ += u.flat.totalCount();
  bbox_ = acc;
  placementIndex_ = geom::RectIndex(worldBoxes_);
}

void HierIndex::forEachPlacementNear(const geom::Rect& q, geom::Coord margin,
                                     const std::function<void(std::size_t)>& fn) const {
  for (const int i : placementIndex_.queryWithin(q, margin)) {
    fn(static_cast<std::size_t>(i));
  }
}

void HierIndex::forEachRectTouching(tech::Layer l, const geom::Rect& q,
                                    const std::function<void(const geom::Rect&)>& fn) const {
  const geom::RectIndex& ri = residual_.indexOn(l);
  for (const int i : ri.queryTouching(q)) fn(ri.rect(static_cast<std::size_t>(i)));
  forEachPlacementNear(q, 0, [&](std::size_t pi) {
    const HierPlacement& p = placements_[pi];
    const HierUnit& u = units_[p.unit];
    const geom::Rect lq = p.t.inverted()(q);
    const geom::RectIndex& ui = u.flat.indexOn(l);
    for (const int i : ui.queryTouching(lq)) {
      fn(p.t(ui.rect(static_cast<std::size_t>(i))));
    }
  });
}

std::size_t HierIndex::approxBytes() const noexcept {
  std::size_t b = residual_.approxBytes();
  for (const HierUnit& u : units_) b += sizeof(HierUnit) + u.flat.approxBytes();
  b += placements_.size() * sizeof(HierPlacement);
  b += worldBoxes_.size() * sizeof(geom::Rect) + placementIndex_.approxBytes();
  return b;
}

}  // namespace bb::cell
