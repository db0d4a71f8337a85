#include "layout/svg.hpp"

#include "geom/text_buffer.hpp"

#include <array>

namespace bb::layout {

std::string xmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c; break;
    }
  }
  return out;
}

namespace {

void openDoc(geom::TextBuffer& os, const geom::Rect& bb, const SvgOptions& opts) {
  const double s = opts.pixelsPerUnit;
  const double w = static_cast<double>(bb.width()) * s + 20;
  const double h = static_cast<double>(bb.height()) * s + 20;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w << "\" height=\"" << h
     << "\" viewBox=\"0 0 " << w << ' ' << h << "\">\n";
  if (!opts.title.empty()) os << "<title>" << xmlEscape(opts.title) << "</title>\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"#f8f8f4\"/>\n";
}

struct Mapper {
  geom::Rect bb;
  double s;
  [[nodiscard]] double x(geom::Coord v) const { return (static_cast<double>(v - bb.x0)) * s + 10; }
  [[nodiscard]] double y(geom::Coord v) const {
    // SVG y grows downward; layout y grows upward.
    return (static_cast<double>(bb.y1 - v)) * s + 10;
  }
};

void emitFlat(geom::TextBuffer& os, const Mapper& m, const View& view, double opacity) {
  // Every shape on a layer ends in the same fill attributes and tag
  // close, so each layer's tail is formatted once.
  std::array<std::string, tech::kLayerCount> tails;
  for (const tech::Layer l : tech::kAllLayers) {
    geom::TextBuffer tail;
    tail << "\" fill=\"" << tech::displayColor(l) << "\" fill-opacity=\"" << opacity << "\"/>\n";
    tails[static_cast<std::size_t>(l)] = tail.take();
  }
  // Draw in stack order: diffusion, implant, buried, poly, contact, metal, glass.
  const tech::Layer order[] = {tech::Layer::Diffusion, tech::Layer::Implant, tech::Layer::Buried,
                               tech::Layer::Poly,      tech::Layer::Contact, tech::Layer::Metal,
                               tech::Layer::Glass};
  for (tech::Layer l : order) {
    const std::string& tail = tails[static_cast<std::size_t>(l)];
    view.forEachTileParallel(l, [&](std::size_t, std::size_t, const std::vector<geom::Rect>& rs) {
      for (const geom::Rect& r : rs) {
        geom::Record rec(os);
        rec << "<rect x=\"" << m.x(r.x0) << "\" y=\"" << m.y(r.y1) << "\" width=\""
            << static_cast<double>(r.width()) * m.s << "\" height=\""
            << static_cast<double>(r.height()) * m.s << tail;
        rec.flush();
      }
    });
  }
  // Polygon pieces under the View's clipping policy (window-crossing
  // rings clipped, fully-inside rings verbatim).
  for (const auto& [l, p] : view.windowPolygons()) {
    geom::Record rec(os);
    rec << "<polygon points=\"";
    for (geom::Point q : p.pts) rec << m.x(q.x) << ',' << m.y(q.y) << ' ';
    rec << tails[static_cast<std::size_t>(l)];
    rec.flush();
  }
}

void emitOverlayPoint(geom::TextBuffer& os, const Mapper& m, const SvgOverlayPoint& p) {
  // The color is caller-supplied text too — escape it like the label.
  const std::string color = xmlEscape(p.color);
  os << "<circle cx=\"" << m.x(p.at.x) << "\" cy=\"" << m.y(p.at.y)
     << "\" r=\"3\" fill=\"" << color << "\"/>\n";
  if (!p.label.empty()) {
    os << "<text x=\"" << m.x(p.at.x) + 4 << "\" y=\"" << m.y(p.at.y) - 3
       << "\" font-size=\"8\" fill=\"" << color << "\">" << xmlEscape(p.label) << "</text>\n";
  }
}

/// True when the overlay point should be drawn: always for a full render,
/// only inside the viewport for a windowed one.
bool overlayVisible(const SvgOptions& opts, geom::Point at) {
  return !opts.view.window || opts.view.window->contains(at);
}

/// Room for the document: a shape's element is under 100 bytes at the
/// pixel scales the writers use (82 on the sample chips), an overlay
/// marker with its label under 200. A windowed view hints no shapes, so
/// a small viewport never sizes its buffer for the die.
void reserveFor(geom::TextBuffer& os, const View& view, std::size_t overlay) {
  os.reserve(view.shapeCountHint() * 96 + overlay * 192 + 512);
}

}  // namespace

std::string renderSvg(const cell::Cell& top, const SvgOptions& opts) {
  geom::TextBuffer out;
  renderSvg(out, top, cell::flatten(top), opts);
  return out.take();
}

void renderSvg(geom::TextBuffer& os, const cell::Cell& top, const cell::FlatLayout& flat,
               const SvgOptions& opts) {
  std::vector<SvgOverlayPoint> overlay;
  if (opts.drawBristles) {
    for (const cell::Bristle& b : top.bristles()) {
      overlay.push_back({b.pos, b.name, "#aa00aa"});
    }
  }
  // The view's window is the artwork's bbox when no window is set.
  const View view{flat, opts.view};
  reserveFor(os, view, overlay.size());
  const geom::Rect bb =
      opts.view.window ? view.window() : top.boundary().unionWith(view.window());
  openDoc(os, bb, opts);
  const Mapper m{bb, opts.pixelsPerUnit};
  emitFlat(os, m, view, opts.fillOpacity);
  if (opts.drawBoundary) {
    const geom::Rect b = top.boundary();
    os << "<rect x=\"" << m.x(b.x0) << "\" y=\"" << m.y(b.y1) << "\" width=\""
       << static_cast<double>(b.width()) * m.s << "\" height=\""
       << static_cast<double>(b.height()) * m.s
       << "\" fill=\"none\" stroke=\"#444\" stroke-dasharray=\"4 3\"/>\n";
  }
  for (const SvgOverlayPoint& p : overlay) {
    if (overlayVisible(opts, p.at)) emitOverlayPoint(os, m, p);
  }
  os << "</svg>\n";
}

void renderSvg(geom::TextBuffer& os, const cell::FlatLayout& flat,
               const std::vector<SvgOverlayPoint>& overlay, const SvgOptions& opts) {
  // The view's window is the artwork's bbox when no window is set.
  const View view{flat, opts.view};
  reserveFor(os, view, overlay.size());
  geom::Rect bb = view.window();
  if (!opts.view.window) {
    for (const SvgOverlayPoint& p : overlay) {
      bb = bb.unionWith(geom::Rect{p.at.x, p.at.y, p.at.x, p.at.y});
    }
  }
  openDoc(os, bb, opts);
  const Mapper m{bb, opts.pixelsPerUnit};
  emitFlat(os, m, view, opts.fillOpacity);
  for (const SvgOverlayPoint& p : overlay) {
    if (overlayVisible(opts, p.at)) emitOverlayPoint(os, m, p);
  }
  os << "</svg>\n";
}

std::string renderSvg(const cell::FlatLayout& flat, const std::vector<SvgOverlayPoint>& overlay,
                      const SvgOptions& opts) {
  geom::TextBuffer out;
  renderSvg(out, flat, overlay, opts);
  return out.take();
}

}  // namespace bb::layout
