/// \file svg.hpp
/// SVG rendering of layouts, for humans. Renders flattened artwork in the
/// Mead–Conway colour convention with optional bristle markers — the
/// modern stand-in for the pen plotter the 1979 system drew on.
///
/// Geometry streams from a `layout::View`, so a render can be windowed to
/// a viewport (only geometry reaching into `window` is drawn, found via
/// the per-layer spatial indexes), tiled, and optionally merged into
/// overlap-free maximal rects. The defaults reproduce the classic
/// full-chip render byte for byte.

#pragma once

#include "cell/cell.hpp"
#include "cell/flatten.hpp"
#include "geom/text_buffer.hpp"
#include "layout/view.hpp"

#include <string>

namespace bb::layout {

/// Escape text for embedding in XML/SVG character data or attribute
/// values (&, <, >, "). Port and label names are user-controlled, so
/// every string the SVG writers interpolate goes through this.
[[nodiscard]] std::string xmlEscape(std::string_view s);

struct SvgOptions {
  double pixelsPerUnit = 0.5;
  double fillOpacity = 0.55;
  bool drawBristles = true;
  bool drawBoundary = true;
  std::string title;
  /// Viewport/streaming parameters. When `view.window` is set the
  /// document is sized to the window and only geometry touching it is
  /// drawn (overlay markers outside the window are skipped); unset
  /// renders the whole artwork. `view.merge` draws the merged maximal
  /// rects instead of the raw ones.
  ViewOptions view;
};

/// Render a cell (flattened) to an SVG document.
[[nodiscard]] std::string renderSvg(const cell::Cell& top, const SvgOptions& opts = {});

/// Append the same document to `out`, from a flatten of `top` the caller
/// already holds (`core::CompiledChip::flatTop`), so the render does not
/// walk the hierarchy again. A whole-artwork render sizes `out` from
/// `flat`'s shape count before writing; a windowed one queries `flat`'s
/// per-layer indexes, building them on first use.
void renderSvg(geom::TextBuffer& out, const cell::Cell& top, const cell::FlatLayout& flat,
               const SvgOptions& opts = {});

/// Render pre-flattened artwork with an optional overlay of labelled
/// points (used by the sticks / block representations and pad-ring demos).
struct SvgOverlayPoint {
  geom::Point at;
  std::string label;
  std::string color = "#000000";
};
void renderSvg(geom::TextBuffer& out, const cell::FlatLayout& flat,
               const std::vector<SvgOverlayPoint>& overlay, const SvgOptions& opts = {});
[[nodiscard]] std::string renderSvg(const cell::FlatLayout& flat,
                                    const std::vector<SvgOverlayPoint>& overlay,
                                    const SvgOptions& opts = {});

}  // namespace bb::layout
