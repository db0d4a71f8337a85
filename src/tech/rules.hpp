/// \file rules.hpp
/// Mead–Conway lambda design rules for nMOS. The DRC engine consumes this
/// table; element generators consult it so generated geometry is correct
/// by construction. All distances are in grid units (see geom::lambda).

#pragma once

#include "geom/geometry.hpp"
#include "tech/layers.hpp"

#include <string>
#include <vector>

namespace bb::tech {

/// One width rule: every feature on `layer` must be at least `min` wide.
struct WidthRule {
  Layer layer;
  geom::Coord min;
  std::string name;
};

/// One spacing rule: disjoint features on `a` and `b` must be at least
/// `min` apart (a == b for same-layer spacing).
struct SpacingRule {
  Layer a;
  Layer b;
  geom::Coord min;
  std::string name;
};

/// Composite transistor / contact construction rules.
struct CompositeRules {
  geom::Coord polyGateExtension;   ///< poly must extend 2λ past diffusion
  geom::Coord diffGateExtension;   ///< diffusion must extend 2λ past poly
  geom::Coord contactSize;         ///< contact cut is exactly 2λ square
  geom::Coord contactSurround;     ///< conducting layer surround 1λ
  geom::Coord implantGateOverlap;  ///< implant must overlap gate by 1.5λ (we use ceil: 2λ on λ/4 grid is exact 1.5λ = 6 units)
};

/// The full rule deck.
struct RuleDeck {
  std::vector<WidthRule> widths;
  std::vector<SpacingRule> spacings;
  CompositeRules composite;
};

/// The canonical Mead–Conway nMOS deck:
///   diffusion width 2λ, spacing 3λ; poly width 2λ, spacing 2λ;
///   metal width 3λ, spacing 3λ; poly-diffusion spacing 1λ;
///   contact 2λ with 1λ surround; gate extensions 2λ.
[[nodiscard]] const RuleDeck& meadConwayRules();

}  // namespace bb::tech
