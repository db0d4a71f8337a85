/// \file cif.hpp
/// Caltech Intermediate Form (CIF 2.0) writer — the mask interchange
/// format of Mead & Conway; the actual deliverable of the 1979 Bristle
/// Blocks system was a CIF mask set. Hierarchy is preserved: every cell
/// becomes a DS/DF symbol, instances become C calls with transforms.

#pragma once

#include "cell/cell.hpp"
#include "cell/library.hpp"
#include "geom/text_buffer.hpp"
#include "layout/view.hpp"

#include <string>

namespace bb::layout {

struct CifOptions {
  /// Distance scale: layout units are multiplied by num/den to obtain
  /// centimicrons. Default: quarter-lambda grid at lambda = 2.5 um
  /// (62.5 centimicrons per unit = 125/2).
  int scaleNum = 125;
  int scaleDen = 2;
  /// Emit `9 <name>;` symbol-name extension lines.
  bool symbolNames = true;
  /// Emit human-readable comments.
  bool comments = true;
};

/// Write `top` and its whole hierarchy as a CIF file ending in `E`: the
/// hierarchical mask output, one DS/DF symbol per unique cell and a C
/// call per instance — never a flattened copy — so the file size scales
/// with unique-cell geometry plus instance count, not the flattened rect
/// count (the GDS counterpart is `writeGdsHier`). Area-identical to the
/// flat emission of the same cell (the round-trip tests parse it back
/// and compare per-layer union areas). Appends to `out`, sized first from
/// the unique cells' shape and instance counts.
void writeCif(geom::TextBuffer& out, const cell::Cell& top, const CifOptions& opts = {});
[[nodiscard]] std::string writeCif(const cell::Cell& top, const CifOptions& opts = {});

/// Write a View's artwork as one CIF symbol (DS 1), geometry streamed
/// tile by tile — the windowed-emission path (`writeCif(View{flat, opts})`),
/// and (through the `View(HierIndex)` constructor) the lazy-viewport path
/// that never materializes the full flatten. Boxes come out in the View's
/// deterministic tile order; each window-clipped polygon piece is emitted
/// from exactly its owner tile (`View::windowPolygonsOwnedBy`), after
/// that tile's boxes. A default single-tile whole-artwork view is
/// bit-identical to walking the raw layer vectors front to back; with
/// merging the boxes are the disjoint maximal pieces instead (note
/// merged/clipped boxes can have odd extents, whose CIF centers round
/// down — the same quarter-lambda caveat as the hierarchical writer).
/// Appends to `out`, sized first from `View::shapeCountHint`.
void writeCif(geom::TextBuffer& out, const View& v, const CifOptions& opts = {});
[[nodiscard]] std::string writeCif(const View& v, const CifOptions& opts = {});

/// Statistics of a written mask set (for reports and tests).
struct CifStats {
  std::size_t symbols = 0;
  std::size_t boxes = 0;
  std::size_t wires = 0;
  std::size_t polygons = 0;
  std::size_t calls = 0;
};
[[nodiscard]] CifStats cifStats(const std::string& cif);

}  // namespace bb::layout
