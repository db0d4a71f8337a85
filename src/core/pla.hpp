/// \file pla.hpp
/// The instruction decoder's programmable logic array: product terms over
/// the microcode word (AND plane) feeding the control outputs (OR plane).
/// Pass 2's two-tape machine "generates and optimizes" this structure:
/// optimization = canonicalization + term sharing across outputs +
/// adjacent-cube merging (single-bit Quine–McCluskey step), iterated to a
/// fixpoint.

#pragma once

#include "geom/geometry.hpp"
#include "icl/eval.hpp"

#include <string>
#include <vector>

namespace bb::core {

class Pla {
 public:
  Pla() = default;
  Pla(int inputWidth, int outputCount) : width_(inputWidth) {
    outputs_.resize(static_cast<std::size_t>(outputCount));
  }

  /// Add a product term for output `out`; identical terms are shared.
  void addCube(int out, const icl::Cube& cube);

  /// Add a private (unshared) term — the unoptimized decoder a naive
  /// generator would emit; used by the ABL-DECODER ablation.
  void addCubePrivate(int out, const icl::Cube& cube);

  /// Merge terms: two cubes with identical output sets differing in
  /// exactly one cared bit collapse into one. Returns merges performed.
  int optimize();

  [[nodiscard]] std::size_t termCount() const noexcept { return terms_.size(); }
  /// Total cared literals over all terms (PLA transistor cost, AND side).
  [[nodiscard]] std::size_t literalCount() const noexcept;
  /// Crosspoint count on the OR side.
  [[nodiscard]] std::size_t orPointCount() const noexcept;

  [[nodiscard]] const std::vector<icl::Cube>& terms() const noexcept { return terms_; }
  [[nodiscard]] const std::vector<std::vector<int>>& outputs() const noexcept {
    return outputs_;
  }

  /// Evaluate output `out` on a concrete microcode word.
  [[nodiscard]] bool eval(int out, unsigned long long word) const noexcept;

  /// Approximate silicon area of the PLA in grid units^2 (used by the
  /// decoder ablation bench): rows x (2*inputs + outputs) cells.
  [[nodiscard]] geom::Coord areaEstimate(geom::Coord cellW, geom::Coord rowH) const noexcept;

  [[nodiscard]] std::string toText() const;

 private:
  int width_ = 0;
  std::vector<icl::Cube> terms_;
  std::vector<std::vector<int>> outputs_;  ///< per output: term indices
};

}  // namespace bb::core
