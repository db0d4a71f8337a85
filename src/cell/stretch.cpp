#include "cell/stretch.hpp"

#include <algorithm>
#include <cassert>

namespace bb::cell {

namespace {

using geom::Coord;
using geom::Point;
using geom::Rect;

/// Where a cut list sends each coordinate along its axis.
class CutMap {
 public:
  CutMap(StretchAxis axis, std::span<const StretchCut> cuts) noexcept
      : axis_(axis), cuts_(cuts) {
    assert(std::all_of(cuts.begin(), cuts.end(),
                       [](const StretchCut& k) { return k.delta >= 0; }) &&
           "stretch deltas are non-negative");
  }

  /// The summed deltas of the cuts at or below `v`.
  [[nodiscard]] Coord shiftAt(Coord v) const noexcept {
    Coord d = 0;
    for (const StretchCut& k : cuts_) {
      if (v >= k.at) d += k.delta;
    }
    return d;
  }

  [[nodiscard]] Point operator()(Point p) const noexcept {
    if (axis_ == StretchAxis::X) {
      p.x += shiftAt(p.x);
    } else {
      p.y += shiftAt(p.y);
    }
    return p;
  }

  [[nodiscard]] Rect operator()(const Rect& r) const noexcept {
    const Point a = (*this)(Point{r.x0, r.y0});
    const Point b = (*this)(Point{r.x1, r.y1});
    return Rect{a.x, a.y, b.x, b.y};
  }

 private:
  StretchAxis axis_;
  std::span<const StretchCut> cuts_;
};

/// True if any sub-instance straddles the given line (which would make
/// the stretch unsound).
bool instanceStraddlesLine(const Cell& c, StretchAxis axis, geom::Coord at) noexcept {
  for (const Instance& i : c.instances()) {
    const Rect b = i.placement(i.cell->boundary());
    const Coord lo = axis == StretchAxis::X ? b.x0 : b.y0;
    const Coord hi = axis == StretchAxis::X ? b.x1 : b.y1;
    if (lo < at && hi > at) return true;
  }
  return false;
}

}  // namespace

Cell stretched(const Cell& c, StretchAxis axis, std::span<const StretchCut> cuts,
               std::string newName) {
  if (newName.empty()) {
    newName = c.name();
    for (const StretchCut& k : cuts) {
      newName += '+';
      newName += std::to_string(k.delta);
    }
  }
  const CutMap moved(axis, cuts);
  Cell out(std::move(newName));
  out.setDoc(c.doc());
  // Own power must not double-count sub-instances: we copy instances
  // below, so subtract their contribution back out — once per cut, as the
  // cuts applied one at a time would.
  double sub = 0;
  for (const Instance& i : c.instances()) sub += i.cell->powerDemand();
  double own = c.ownPower();
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    double total = own;
    for (const Instance& i : c.instances()) total += i.cell->powerDemand();
    own = total - sub;
  }
  out.setOwnPower(own);

  out.shapes_.reserve(c.shapes().size());
  for (const Shape& s : c.shapes()) {
    std::visit(
        [&](const auto& g) {
          using T = std::decay_t<decltype(g)>;
          if constexpr (std::is_same_v<T, Rect>) {
            out.shapes_.emplace_back(s.layer, moved(g));
          } else {
            T p;
            if constexpr (std::is_same_v<T, geom::Path>) p.width = g.width;
            p.pts.reserve(g.pts.size());
            for (Point q : g.pts) p.pts.push_back(moved(q));
            out.shapes_.emplace_back(s.layer, std::move(p));
          }
        },
        s.geo);
  }

  out.instances_.reserve(c.instances().size());
  for (const Instance& i : c.instances()) {
    const Rect b = i.placement(i.cell->boundary());
    geom::Transform t = i.placement;
    // Straddling instances are a generator bug; translate-if-beyond keeps
    // the result well-formed and instanceStraddlesLine() reports it.
    const Coord d = moved.shiftAt(axis == StretchAxis::X ? b.x0 : b.y0);
    t.offset += axis == StretchAxis::X ? Point{d, 0} : Point{0, d};
    out.addInstance(i.cell, t, i.name);
  }

  out.bristles_.reserve(c.bristles().size());
  for (Bristle b : c.bristles()) {
    b.pos = moved(b.pos);
    out.addBristle(std::move(b));
  }

  out.stretches_.reserve(c.stretchLines().size());
  for (StretchLine sl : c.stretchLines()) {
    // A line on the other axis is unaffected by where material moved;
    // keep it as declared.
    if (sl.axis == axis) sl.at += moved.shiftAt(sl.at);
    out.stretches_.push_back(std::move(sl));
  }

  out.setBoundary(moved(c.boundary()));
  return out;
}

Cell stretched(const Cell& c, StretchAxis axis, geom::Coord at, geom::Coord delta,
               std::string newName) {
  const StretchCut cut{at, delta};
  return stretched(c, axis, std::span(&cut, 1), std::move(newName));
}

FitResult stretchedToExtent(const Cell& c, StretchAxis axis, geom::Coord target,
                            std::string newName) {
  FitResult res;
  const Coord have = axis == StretchAxis::X ? c.width() : c.height();
  if (have == target) {
    res.ok = true;
    res.cell = c;  // copy; caller owns the result
    if (!newName.empty()) res.cell = stretched(c, axis, 0, 0, std::move(newName));
    return res;
  }
  if (have > target) {
    res.error = "cell '" + c.name() + "' is already larger (" + std::to_string(have) +
                ") than target " + std::to_string(target);
    return res;
  }
  std::vector<StretchLine> lines;
  for (const StretchLine& sl : c.stretchLines()) {
    if (sl.axis == axis) lines.push_back(sl);
  }
  if (lines.empty()) {
    res.error = "cell '" + c.name() + "' has no stretch line on the required axis";
    return res;
  }
  // Distribute target-have over the lines, earlier lines get the remainder.
  const Coord need = target - have;
  const Coord per = need / static_cast<Coord>(lines.size());
  Coord rem = need % static_cast<Coord>(lines.size());
  // Apply from the highest line down so earlier `at` values stay valid.
  std::sort(lines.begin(), lines.end(),
            [](const StretchLine& a, const StretchLine& b) { return a.at > b.at; });
  Cell cur = c;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Coord d = per + (rem > 0 ? 1 : 0);
    if (rem > 0) --rem;
    if (d == 0) continue;
    if (instanceStraddlesLine(cur, axis, lines[i].at)) {
      res.error = "stretch line '" + lines[i].name + "' of cell '" + c.name() +
                  "' straddles a sub-instance";
      return res;
    }
    cur = stretched(cur, axis, lines[i].at, d);
  }
  if (!newName.empty()) {
    cur = stretched(cur, axis, 0, 0, std::move(newName));
  }
  res.ok = true;
  res.cell = std::move(cur);
  return res;
}

}  // namespace bb::cell
