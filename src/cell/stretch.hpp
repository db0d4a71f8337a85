/// \file stretch.hpp
/// The stretch operation — the mechanism that lets Bristle Blocks give
/// every core cell a common pitch without redesign.
///
/// Stretching a cell at a stretch line by `delta`:
///   * shapes wholly at-or-beyond the line translate by delta;
///   * shapes crossing the line widen by delta;
///   * bristles, stretch lines and sub-instances at-or-beyond translate;
///   * the boundary grows by delta.
/// Sub-instances must not straddle a stretch line (generators declare
/// lines in instance-free corridors); a straddling instance is left in
/// place, and `stretchedToExtent` reports it as an error.
///
/// Several cuts on one axis apply in one pass. Cuts are given in the
/// input cell's coordinates, and each coordinate moves by the summed
/// deltas of the cuts at or below it. That is exactly applying the cuts
/// one at a time, each at its line's position in the cell the previous
/// cuts produced: every stretch shifts coordinates in a strictly
/// order-preserving way, so "at-or-beyond the line" means the same
/// before and after it.

#pragma once

#include "cell/cell.hpp"

#include <span>
#include <string>

namespace bb::cell {

/// Stretch `c` along `axis` at every cut (deltas >= 0, coordinates of
/// `c`), producing a new cell named `newName` (default: "<name>" plus
/// "+<delta>" per cut, in the order given). Own power is recomputed once
/// per cut (own plus sub-instances, minus sub-instances), as the cuts
/// applied one by one would, so the result equals theirs bit for bit.
[[nodiscard]] Cell stretched(const Cell& c, StretchAxis axis, std::span<const StretchCut> cuts,
                             std::string newName = {});

/// Stretch `c` at the line (axis, at) by `delta` (>= 0): the one-cut
/// call of the form above (default name "<name>+<delta>").
[[nodiscard]] Cell stretched(const Cell& c, StretchAxis axis, geom::Coord at, geom::Coord delta,
                             std::string newName = {});

/// Grow a cell to exactly `target` extent along `axis`, distributing the
/// needed delta evenly over the cell's declared stretch lines on that
/// axis (earlier lines absorb the remainder). Cells with no stretch line
/// on the axis and extent < target are reported as failures.
struct FitResult {
  bool ok = false;
  std::string error;
  Cell cell{""};
};

[[nodiscard]] FitResult stretchedToExtent(const Cell& c, StretchAxis axis, geom::Coord target,
                                          std::string newName = {});

}  // namespace bb::cell
