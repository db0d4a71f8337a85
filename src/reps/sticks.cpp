#include "reps/sticks.hpp"

#include "geom/text_buffer.hpp"
#include "layout/svg.hpp"

#include <algorithm>
#include <array>

namespace bb::reps {

std::vector<Stick> sticksOf(const cell::FlatLayout& flat, const layout::ViewOptions& view) {
  const layout::View v{flat, view};
  std::vector<Stick> out;
  for (tech::Layer l : tech::kAllLayers) {
    v.forEachTileParallel(l, [&](std::size_t, std::size_t, const std::vector<geom::Rect>& rs) {
      for (const geom::Rect& r : rs) {
        Stick s;
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
    });
  }
  // The window-clipped polygon pieces the mask writers emit, so a
  // polygon's stick never reaches outside the window.
  for (const auto& [l, p] : v.windowPolygons()) {
    const geom::Rect r = p.bbox();
    out.push_back(Stick{l, {r.x0, (r.y0 + r.y1) / 2}, {r.x1, (r.y0 + r.y1) / 2}});
  }
  return out;
}

std::string sticksText(const cell::FlatLayout& flat) {
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
  geom::TextBuffer os;
  os << "sticks diagram: " << total << " sticks, total length "
     << totalLen / geom::kUnitsPerLambda << "L\n";
  for (tech::Layer l : tech::kAllLayers) {
    const std::size_t n = perLayer[static_cast<std::size_t>(l)];
    if (n != 0) os << "  " << tech::layerName(l) << ": " << n << "\n";
  }
  return os.take();
}

std::string sticksSvg(const std::vector<Stick>& sticks, double pixelsPerUnit,
                      const std::string& title) {
  geom::Rect bb{};
  bool first = true;
  for (const Stick& s : sticks) {
    const geom::Rect r{s.a.x, s.a.y, s.b.x, s.b.y};
    bb = first ? r : bb.unionWith(r);
    first = false;
  }
  geom::TextBuffer os;
  const double w = static_cast<double>(bb.width()) * pixelsPerUnit + 20;
  const double h = static_cast<double>(bb.height()) * pixelsPerUnit + 20;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w << "\" height=\"" << h
     << "\">\n";
  if (!title.empty()) os << "<title>" << layout::xmlEscape(title) << "</title>\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n";
  auto X = [&](geom::Coord v) { return (static_cast<double>(v - bb.x0)) * pixelsPerUnit + 10; };
  auto Y = [&](geom::Coord v) { return (static_cast<double>(bb.y1 - v)) * pixelsPerUnit + 10; };
  for (const Stick& s : sticks) {
    if (s.a == s.b) {
      os << "<circle cx=\"" << X(s.a.x) << "\" cy=\"" << Y(s.a.y) << "\" r=\"1.5\" fill=\""
         << tech::displayColor(s.layer) << "\"/>\n";
    } else {
      os << "<line x1=\"" << X(s.a.x) << "\" y1=\"" << Y(s.a.y) << "\" x2=\"" << X(s.b.x)
         << "\" y2=\"" << Y(s.b.y) << "\" stroke=\"" << tech::displayColor(s.layer)
         << "\" stroke-width=\"1\"/>\n";
    }
  }
  os << "</svg>\n";
  return os.take();
}

}  // namespace bb::reps
