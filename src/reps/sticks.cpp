#include "reps/sticks.hpp"

#include "layout/svg.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>

namespace bb::reps {

namespace {

/// A rect's stick: its long centerline (a square's center point).
Stick stickOf(tech::Layer l, const geom::Rect& r) noexcept {
  if (r.width() >= r.height()) {
    return Stick{l, {r.x0, (r.y0 + r.y1) / 2}, {r.x1, (r.y0 + r.y1) / 2}};
  }
  return Stick{l, {(r.x0 + r.x1) / 2, r.y0}, {(r.x0 + r.x1) / 2, r.y1}};
}

/// A polygon's stick: its bbox's horizontal centerline.
Stick stickOf(tech::Layer l, const geom::Polygon& p) noexcept {
  const geom::Rect r = p.bbox();
  return Stick{l, {r.x0, (r.y0 + r.y1) / 2}, {r.x1, (r.y0 + r.y1) / 2}};
}

/// The sticks of a View in diagram order: each layer's rects tile by
/// tile, then the window-clipped polygon pieces the mask writers emit,
/// so a polygon's stick never reaches outside the window. The View is
/// read once: a whole-artwork view's layers in place, any other view's
/// collected into `held_`.
class ViewSticks {
 public:
  explicit ViewSticks(const layout::View& v) : polygons_(v.windowPolygons()) {
    for (std::size_t i = 0; i < tech::kLayerCount; ++i) {
      rects_[i] = v.rectsOn(tech::kAllLayers[i], held_[i]);
    }
  }
  // `rects_` may view this object's own `held_`.
  ViewSticks(const ViewSticks&) = delete;
  ViewSticks& operator=(const ViewSticks&) = delete;

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = polygons_.size();
    for (const auto& rs : rects_) n += rs.size();
    return n;
  }

  /// The last stick `forEach` yields.
  [[nodiscard]] std::optional<Stick> back() const noexcept {
    if (!polygons_.empty()) return stickOf(polygons_.back().first, polygons_.back().second);
    for (std::size_t i = tech::kLayerCount; i-- > 0;) {
      if (!rects_[i].empty()) return stickOf(tech::kAllLayers[i], rects_[i].back());
    }
    return std::nullopt;
  }

  template <class Fn>
  void forEach(Fn&& fn) const {
    for (std::size_t i = 0; i < tech::kLayerCount; ++i) {
      for (const geom::Rect& r : rects_[i]) fn(stickOf(tech::kAllLayers[i], r));
    }
    for (const auto& [l, p] : polygons_) fn(stickOf(l, p));
  }

 private:
  std::array<std::vector<geom::Rect>, tech::kLayerCount> held_;
  std::array<std::span<const geom::Rect>, tech::kLayerCount> rects_;
  const std::vector<std::pair<tech::Layer, geom::Polygon>>& polygons_;
};

}  // namespace

std::vector<Stick> sticksOf(const cell::FlatLayout& flat, const layout::ViewOptions& view) {
  const layout::View v{flat, view};
  const ViewSticks sticks(v);
  std::vector<Stick> out;
  out.reserve(sticks.size());
  sticks.forEach([&out](const Stick& s) { out.push_back(s); });
  return out;
}

void sticksText(geom::TextBuffer& os, const cell::FlatLayout& flat) {
  // The whole-artwork `sticksOf` reduction, summed without building its
  // sticks: a rect's stick is as long as the rect's longer side, a
  // polygon's as wide as the polygon's bbox.
  const layout::View v{flat};
  std::array<std::size_t, tech::kLayerCount> perLayer{};
  geom::Coord totalLen = 0;
  for (tech::Layer l : tech::kAllLayers) {
    v.forEachTile(l, [&](std::size_t, std::size_t, const std::vector<geom::Rect>& rs) {
      perLayer[static_cast<std::size_t>(l)] += rs.size();
      for (const geom::Rect& r : rs) totalLen += std::max(r.width(), r.height());
    });
  }
  for (const auto& [l, p] : v.windowPolygons()) {
    ++perLayer[static_cast<std::size_t>(l)];
    totalLen += p.bbox().width();
  }
  std::size_t total = 0;
  for (const std::size_t n : perLayer) total += n;
  os << "sticks diagram: " << total << " sticks, total length "
     << totalLen / geom::kUnitsPerLambda << "L\n";
  for (tech::Layer l : tech::kAllLayers) {
    const std::size_t n = perLayer[static_cast<std::size_t>(l)];
    if (n != 0) os << "  " << tech::layerName(l) << ": " << n << "\n";
  }
}

std::string sticksText(const cell::FlatLayout& flat) {
  geom::TextBuffer out;
  sticksText(out, flat);
  return out.take();
}

void sticksSvg(geom::TextBuffer& os, const cell::FlatLayout& flat, const layout::ViewOptions& view,
               double pixelsPerUnit, std::string_view title) {
  const layout::View v{flat, view};
  const ViewSticks sticks(v);
  // The document box: every stick folded through `Rect::unionWith`,
  // which skips a zero-area rect. Every stick is one, so the fold
  // leaves the last stick's extent.
  geom::Rect bb{};
  if (const std::optional<Stick> s = sticks.back()) bb = {s->a.x, s->a.y, s->b.x, s->b.y};
  // A line element is under 100 bytes at the default scales.
  os.reserve(sticks.size() * 96 + title.size() * 6 + 256);
  const double w = static_cast<double>(bb.width()) * pixelsPerUnit + 20;
  const double h = static_cast<double>(bb.height()) * pixelsPerUnit + 20;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w << "\" height=\"" << h
     << "\">\n";
  if (!title.empty()) os << "<title>" << layout::xmlEscape(title) << "</title>\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n";
  auto X = [&](geom::Coord c) { return (static_cast<double>(c - bb.x0)) * pixelsPerUnit + 10; };
  auto Y = [&](geom::Coord c) { return (static_cast<double>(bb.y1 - c)) * pixelsPerUnit + 10; };
  // One element per stick, each formatted on the stack.
  sticks.forEach([&](const Stick& s) {
    geom::Record rec(os);
    if (s.a == s.b) {
      rec << "<circle cx=\"" << X(s.a.x) << "\" cy=\"" << Y(s.a.y) << "\" r=\"1.5\" fill=\""
          << tech::displayColor(s.layer) << "\"/>\n";
    } else {
      rec << "<line x1=\"" << X(s.a.x) << "\" y1=\"" << Y(s.a.y) << "\" x2=\"" << X(s.b.x)
          << "\" y2=\"" << Y(s.b.y) << "\" stroke=\"" << tech::displayColor(s.layer)
          << "\" stroke-width=\"1\"/>\n";
    }
    rec.flush();
  });
  os << "</svg>\n";
}

std::string sticksSvg(const cell::FlatLayout& flat, const layout::ViewOptions& view,
                      double pixelsPerUnit, std::string_view title) {
  geom::TextBuffer out;
  sticksSvg(out, flat, view, pixelsPerUnit, title);
  return out.take();
}

}  // namespace bb::reps
