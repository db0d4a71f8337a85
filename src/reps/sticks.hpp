/// \file sticks.hpp
/// Sticks diagrams: "the same topology as the layout, but with all of the
/// features reduced to single-width lines. The resulting diagram is much
/// easier to comprehend than the full layout diagram."

#pragma once

#include "cell/cell.hpp"
#include "cell/flatten.hpp"
#include "geom/text_buffer.hpp"
#include "layout/view.hpp"

#include <string>

namespace bb::reps {

/// One stick: a centerline on a layer.
struct Stick {
  tech::Layer layer;
  geom::Point a;
  geom::Point b;

  friend bool operator==(const Stick&, const Stick&) = default;
};

/// Reduce flattened artwork to sticks: every rectangle becomes its long
/// centerline (squares become points, kept as zero-length sticks so
/// contacts stay visible), and every polygon its bbox's horizontal
/// centerline. Geometry streams from a `layout::View` over the per-layer
/// spatial indexes, so `view` can restrict the diagram to a viewport
/// window (and/or merge rects first); polygons are window-clipped first,
/// as in the mask writers. The default view is the whole artwork: the
/// raw-vector walk, which builds no layer index.
[[nodiscard]] std::vector<Stick> sticksOf(const cell::FlatLayout& flat,
                                          const layout::ViewOptions& view = {});

/// Text summary of the whole artwork's sticks: the stick count per layer
/// and their total length in lambda, appended to `out`. It equals a
/// summary of `sticksOf(flat)`, but reads the rects and polygons in place
/// through a whole-artwork View, so no stick is built.
void sticksText(geom::TextBuffer& out, const cell::FlatLayout& flat);
[[nodiscard]] std::string sticksText(const cell::FlatLayout& flat);

/// SVG rendering of `sticksOf(flat, view)` with the Mead–Conway colours,
/// single-width lines, appended to `out`. It builds no stick vector and
/// reads the View once (`View::rectsOn` with a scratch vector: a
/// whole-artwork view's layers in place, any other view's collected
/// once), then sizes the buffer from the stick count and prints. The
/// document box is the sticks folded through `Rect::unionWith`, which
/// skips zero-area rects, and every stick is one, so the canvas is the
/// last stick's extent. The optional title is user text and is
/// XML-escaped (`layout::xmlEscape`).
void sticksSvg(geom::TextBuffer& out, const cell::FlatLayout& flat,
               const layout::ViewOptions& view = {}, double pixelsPerUnit = 0.5,
               std::string_view title = {});
[[nodiscard]] std::string sticksSvg(const cell::FlatLayout& flat,
                                    const layout::ViewOptions& view = {},
                                    double pixelsPerUnit = 0.5, std::string_view title = {});

}  // namespace bb::reps
