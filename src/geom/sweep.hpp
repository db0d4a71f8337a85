/// \file sweep.hpp
/// Boundary-sweep geometry core: exact union area, maximal union
/// decomposition and coverage-gap queries over axis-aligned rects.
///
/// All three primitives share one machine: a sweep over the distinct x
/// edges of the input, maintaining per-slab y coverage in a
/// coverage-count segment tree built over the compressed y edges. Each
/// rect contributes one +1 event at `x0` and one -1 event at `x1`, so a
/// full sweep is O(n log n) — this replaced the O(n^2) slab scan that
/// was the last quadratic core in the verification pipeline (DRC
/// coverage checks, utilization metrics, hole subtraction).
///
/// Everything here is exact integer arithmetic on `Coord`, like the rest
/// of the geometry substrate: results are bit-identical to the brute
/// reference paths (`geom::unionAreaBrute`, `extract::subtractRectsBrute`),
/// which the equivalence tests and `bench_union_scaling` assert on every
/// run. Empty rects are skipped in place — inputs are never reordered or
/// erased, so callers can reuse one scratch vector across calls (DRC
/// does).

#pragma once

#include "geom/geometry.hpp"
#include "geom/rect_index.hpp"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace bb::geom::sweep {

/// Exact area of the union of `rs` in O(n log n). The canonical
/// implementation behind `geom::unionArea`.
[[nodiscard]] Coord unionArea(const std::vector<Rect>& rs);

/// Maximal x-slab decomposition of the union of `rs`: pairwise-disjoint
/// rects whose union is exactly the input union. Each output rect spans
/// a maximal x run over which its exact y interval stays covered, so
/// horizontally-abutting input rects merge and a rect is never split
/// until its y cross-section actually changes. Output size is
/// output-sensitive (worst case O(n^2) for n interleaved strips, O(n)
/// for typical artwork); rects are emitted in (closing-x, then y) order,
/// deterministically.
[[nodiscard]] std::vector<Rect> unionRects(const std::vector<Rect>& rs);

namespace detail {
/// One coverage-tree node: open-rect count over the node's whole range,
/// covered length beneath it. Count and length live side by side
/// because every tree walk reads both — one cache line, not two.
struct TreeNode {
  std::int32_t count = 0;
  Coord covered = 0;
};

/// One sweep event: a rect's vertical edge. `delta` +1 opens the rect's
/// y span at x, -1 closes it; `lo`/`hi` index the compressed y edges
/// (leaf range [lo, hi)).
struct SweepEvent {
  Coord x = 0;
  std::int32_t delta = 0;
  std::uint32_t lo = 0, hi = 0;
};
}  // namespace detail

/// Reusable coverage query: "is `region` fully covered by these rects,
/// and if not, where is a hole?". Holds its scratch buffers across
/// calls so per-rect DRC coverage checks never reallocate; one instance
/// per thread (it is stateful scratch, not shared state).
class CoverageQuery {
 public:
  /// First uncovered sub-rect of `region` (lowest x slab, then lowest y
  /// run), or nullopt when the rects cover `region` exactly. The
  /// witness is one maximal uncovered run within one slab — a
  /// convenient counterexample for diagnostics, not the full gap set.
  /// An empty `region` is trivially covered.
  [[nodiscard]] std::optional<Rect> gap(const Rect& region, const std::vector<Rect>& rects);

  /// Index-backed overload: considers only rects touching `region`
  /// (non-touching rects contribute no coverage, so the answer is
  /// identical to scanning the whole set).
  [[nodiscard]] std::optional<Rect> gap(const Rect& region, const RectIndex& index);

  /// Full-coverage predicate: exactly `!gap(region, ...).has_value()`,
  /// but decided without the sweep when arithmetic settles it. After
  /// clipping the rects to `region`: one clip equal to `region` covers
  /// it; clip areas summing (saturated at the region's area) below the
  /// region's area cannot cover it, since a union never exceeds the sum;
  /// two clips cover it iff their areas minus their overlap's equal the
  /// region's. Only three or more partial clips run `gap`'s sweep. DRC's
  /// coverage probes hand over a few candidates, and most are settled
  /// by the first two tests.
  [[nodiscard]] bool covers(const Rect& region, const std::vector<Rect>& rects);
  /// Index-backed overload: clips the rects touching `region` straight
  /// from the index. The per-feature coverage primitive DRC's width, gate
  /// and contact checks use against the per-layer `RectIndex`.
  [[nodiscard]] bool covers(const Rect& region, const RectIndex& index);

 private:
  /// Clip `rects` / the index's rects touching `region` into `clipped_`;
  /// true as soon as one clip equals `region` (which then covers it).
  bool clip(const Rect& region, const std::vector<Rect>& rects);
  bool clip(const Rect& region, const RectIndex& index);
  /// `gap` over `clipped_`: the sweep.
  std::optional<Rect> sweepGap(const Rect& region);
  /// `covers` over `clipped_`, none of which equals `region`.
  bool clipsCover(const Rect& region);

  std::vector<Coord> ys_;
  std::vector<detail::SweepEvent> events_;
  std::vector<Rect> clipped_;
  std::vector<int> cand_;
  std::vector<detail::TreeNode> nodes_;
  std::vector<std::pair<Coord, Coord>> runs_;
};

/// One-shot helpers (construct a CoverageQuery internally; hot loops
/// should hold their own instance).
[[nodiscard]] std::optional<Rect> coverageGap(const Rect& region, const std::vector<Rect>& rects);
[[nodiscard]] std::optional<Rect> coverageGap(const Rect& region, const RectIndex& index);

}  // namespace bb::geom::sweep
