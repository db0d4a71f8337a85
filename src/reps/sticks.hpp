/// \file sticks.hpp
/// Sticks diagrams: "the same topology as the layout, but with all of the
/// features reduced to single-width lines. The resulting diagram is much
/// easier to comprehend than the full layout diagram."

#pragma once

#include "cell/cell.hpp"
#include "cell/flatten.hpp"
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
/// and their total length in lambda. It equals a summary of
/// `sticksOf(flat)`, but reads the rects and polygons in place through a
/// whole-artwork View, so no stick is built.
[[nodiscard]] std::string sticksText(const cell::FlatLayout& flat);

/// SVG rendering with the Mead–Conway colours, single-width lines. The
/// optional title is user text and is XML-escaped (`layout::xmlEscape`).
[[nodiscard]] std::string sticksSvg(const std::vector<Stick>& sticks, double pixelsPerUnit = 0.5,
                                    const std::string& title = {});

}  // namespace bb::reps
