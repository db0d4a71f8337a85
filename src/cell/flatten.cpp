#include "cell/flatten.hpp"

#include <unordered_map>

namespace bb::cell {

const geom::RectIndex& FlatLayout::indexOn(tech::Layer l) const {
  const auto i = static_cast<std::size_t>(l);
  return indexes_[i].get([&] { return geom::RectIndex(rects[i]); });
}

void FlatLayout::buildIndexes() const {
  for (const tech::Layer l : tech::kAllLayers) (void)indexOn(l);
}

std::size_t FlatLayout::totalCount() const noexcept {
  std::size_t n = polygons.size();
  for (const auto& v : rects) n += v.size();
  return n;
}

geom::Rect FlatLayout::bbox() const noexcept {
  geom::Rect acc;
  bool first = true;
  auto grow = [&](const geom::Rect& r) {
    if (first) {
      acc = r;
      first = false;
    } else {
      acc = acc.unionWith(r);
    }
  };
  for (const auto& v : rects) {
    for (const geom::Rect& r : v) grow(r);
  }
  for (const auto& [l, p] : polygons) grow(p.bbox());
  return acc;
}

std::size_t FlatLayout::approxBytes() const noexcept {
  std::size_t b = 0;
  for (const auto& v : rects) b += v.size() * sizeof(geom::Rect);
  for (const auto& [l, p] : polygons) {
    (void)l;
    b += sizeof(p) + p.pts.size() * sizeof(geom::Point);
  }
  for (const auto& idx : indexes_) {
    if (const geom::RectIndex* built = idx.ifBuilt()) b += built->approxBytes();
  }
  return b;
}

namespace {

/// `flattenInto`'s walk: appends to the layer vectors directly, after the
/// caller has dropped their indexes once.
void appendFlat(FlatLayout& out, const Cell& c, const geom::Transform& t) {
  for (const Shape& s : c.shapes()) {
    std::vector<geom::Rect>& layer = out.rects[static_cast<std::size_t>(s.layer)];
    std::visit(
        [&](const auto& g) {
          using T = std::decay_t<decltype(g)>;
          if constexpr (std::is_same_v<T, geom::Rect>) {
            layer.push_back(t(g));
          } else if constexpr (std::is_same_v<T, geom::Polygon>) {
            out.polygons.emplace_back(s.layer, t(g));
          } else {
            // Transform the path, then decompose: D4 transforms keep
            // segments axis-parallel so the decomposition stays exact.
            const geom::Path tp = t(g);
            for (const geom::Rect& r : tp.toRects()) layer.push_back(r);
          }
        },
        s.geo);
  }
  for (const Instance& i : c.instances()) {
    appendFlat(out, *i.cell, t * i.placement);
  }
}

}  // namespace

void flattenInto(FlatLayout& out, const Cell& c, const geom::Transform& t) {
  // Every layer may grow, so each index goes once here (the non-const
  // `on()` drops it), not once per appended rect.
  for (const tech::Layer l : tech::kAllLayers) (void)out.on(l);
  appendFlat(out, c, t);
}

FlatLayout flatten(const Cell& c, const geom::Transform& t) {
  FlatLayout out;
  flattenInto(out, c, t);
  return out;
}

namespace {

std::size_t flatCountMemo(const Cell& c, std::unordered_map<const Cell*, std::size_t>& memo) {
  if (const auto it = memo.find(&c); it != memo.end()) return it->second;
  std::size_t n = 0;
  for (const Shape& s : c.shapes()) {
    // A path flattens to toRects(): one rect per segment, or one square
    // for a single point.
    const auto* path = std::get_if<geom::Path>(&s.geo);
    n += path == nullptr ? 1 : path->pts.size() - (path->pts.size() > 1 ? 1 : 0);
  }
  for (const Instance& i : c.instances()) n += flatCountMemo(*i.cell, memo);
  memo.emplace(&c, n);
  return n;
}

}  // namespace

std::size_t flatCount(const Cell& c) {
  std::unordered_map<const Cell*, std::size_t> memo;
  return flatCountMemo(c, memo);
}

}  // namespace bb::cell
