/// \file gds.hpp
/// GDSII stream-format writer. GDSII postdates the paper (the 1979 system
/// emitted CIF) but is the format today's downstream tools expect, so the
/// library offers both. Three entry points: `writeGds(Cell)` preserves
/// hierarchy with one structure per cell and an SREF per instance,
/// `writeGdsHier` additionally compresses uniform instance grids into
/// AREFs, and `writeGds(View)` writes one flat structure of windowed
/// artwork.

#pragma once

#include "cell/cell.hpp"
#include "geom/text_buffer.hpp"
#include "layout/view.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace bb::layout {

struct GdsOptions {
  std::string libName = "BRISTLE";
  /// Database user unit in meters per layout unit. Quarter-lambda grid at
  /// lambda = 2.5um: one unit = 0.625um.
  double unitMeters = 0.625e-6;
  /// Database units per user unit.
  double dbPerUser = 1000.0;
  /// Structure name used by the flat (windowed) writer.
  std::string flatStructName = "FLAT";
};

/// Serialize `top` and its hierarchy to a GDSII byte stream. Each writer
/// appends its bytes to `out`, sized first from its element count; the
/// vector-returning forms wrap it.
void writeGds(geom::TextBuffer& out, const cell::Cell& top, const GdsOptions& opts = {});
[[nodiscard]] std::vector<std::uint8_t> writeGds(const cell::Cell& top,
                                                 const GdsOptions& opts = {});

/// Hierarchical mask output with array compression: one structure per
/// unique cell (like `writeGds`), but each parent's instances are
/// grouped by (child, orientation) and any group forming a full
/// uniformly-spaced cartesian grid is emitted as a single AREF
/// (COLROW + three-point XY) instead of cols x rows SREFs — the shape
/// an NxN datapath array compiles to, making file size scale with
/// unique-cell geometry plus O(1) per array. Groups that don't form a
/// grid fall back to individual SREFs; the placed instance set (and so
/// the flattened artwork) is identical to `writeGds` either way.
void writeGdsHier(geom::TextBuffer& out, const cell::Cell& top, const GdsOptions& opts = {});
[[nodiscard]] std::vector<std::uint8_t> writeGdsHier(const cell::Cell& top,
                                                     const GdsOptions& opts = {});

/// Serialize a View's artwork as a single GDSII structure, geometry
/// streamed tile by tile — the windowed-emission path
/// (`writeGds(View{flat, opts})`), and (through the `View(HierIndex)`
/// constructor) the lazy-viewport path. Boundaries come out in the
/// View's deterministic tile order; each window-clipped polygon piece is
/// emitted from exactly its owner tile (`View::windowPolygonsOwnedBy`),
/// after that tile's rects. A default single-tile whole-artwork view is
/// bit-identical to walking the raw layer vectors; merging emits the
/// disjoint maximal pieces instead. Sized from `View::shapeCountHint`.
void writeGds(geom::TextBuffer& out, const View& v, const GdsOptions& opts = {});
[[nodiscard]] std::vector<std::uint8_t> writeGds(const View& v, const GdsOptions& opts = {});

/// Minimal structural decode of a GDSII stream (record walk) for tests:
/// counts of structures, boundaries, paths, srefs and arefs, plus
/// structure names.
struct GdsStats {
  std::size_t structures = 0;
  std::size_t boundaries = 0;
  std::size_t paths = 0;
  std::size_t srefs = 0;
  std::size_t arefs = 0;
  std::vector<std::string> names;
  bool wellFormed = false;
};
[[nodiscard]] GdsStats gdsStats(const std::vector<std::uint8_t>& bytes);

}  // namespace bb::layout
