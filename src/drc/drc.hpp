/// \file drc.hpp
/// Lambda design-rule checker.
///
/// Bristle Blocks exploits hierarchy: because cells agree on a standard
/// interface, design-rule checking can be performed on individual cells
/// as they are designed, "rather than on fully instantiated artwork".
/// The checker therefore runs on one cell's flattened artwork with the
/// cell boundary as the abutment condition: geometry that reaches the
/// boundary is interface wiring whose far side the contract guarantees.

#pragma once

#include "cell/cell.hpp"
#include "cell/flatten.hpp"
#include "cell/hier_index.hpp"
#include "tech/rules.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace bb::drc {

/// One rule violation.
struct Violation {
  std::string rule;      ///< rule name, e.g. "S.metal.metal.3"
  tech::Layer layerA;
  tech::Layer layerB;    ///< == layerA for single-layer rules
  geom::Rect where;      ///< approximate violation region
  std::string message;
};

struct DrcOptions {
  /// Skip spacing violations where both shapes touch the cell boundary —
  /// the paper's per-cell boundary condition (the interface contract
  /// guarantees what is on the far side).
  bool boundaryConditions = true;
  /// Check transistor extension rules (poly/diff 2-lambda overhang).
  bool checkTransistors = true;
  /// Check contact construction (cut covered by both connected layers).
  bool checkContacts = true;
  /// Route geometric queries through the FlatLayout's per-layer spatial
  /// indexes: near-linear in the rect count instead of quadratic, with
  /// bit-identical violations. Off runs the reference all-pairs scans,
  /// kept for the equivalence tests and the scaling benches.
  bool useSpatialIndex = true;
  /// Width limit for the independent rule groups (each width rule, each
  /// spacing rule, the transistor and contact groups) on the shared
  /// persistent pool (`core::ThreadPool::global()`). 1 = serial, 0 =
  /// full pool width. This is a *budget on one process-wide pool*, not
  /// a thread count: a 4-wide batch whose jobs each run DRC with
  /// threads=0 still uses one pool — nesting never multiplies threads.
  /// Violations keep deck order regardless of width.
  unsigned threads = 1;
};

struct DrcReport {
  std::vector<Violation> violations;
  std::size_t shapesChecked = 0;
  [[nodiscard]] bool clean() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// A checker bound to one (deck, options) pair, reusable across any
/// number of chips: the rule-unit plan — one independent unit per width
/// rule and per spacing rule, plus the transistor and contact groups —
/// is resolved once at construction and shared by every `check()` call.
/// This is the per-deck setup a batch of jobs compiling under the same
/// `tech::RuleDeck` pays once instead of per chip (a `BatchCompiler`
/// with `withDrc` holds exactly one per batch). The deck must outlive the
/// checker; `check()` is const and safe to call concurrently, on
/// distinct layouts or on one shared layout.
class DeckChecker {
 public:
  explicit DeckChecker(const tech::RuleDeck& deck, DrcOptions opts = {});

  /// Check pre-flattened artwork with an explicit abutment boundary, at
  /// the bound `DrcOptions::threads` width. Called from inside a pool
  /// task at width 0 (a batch job), the rule units run inline while the
  /// pool is busy and spread over idle workers once it drains.
  [[nodiscard]] DrcReport check(const cell::FlatLayout& flat,
                                const geom::Rect& boundary) const;

  /// Hierarchy-aware check: each unique cell's interior is checked ONCE
  /// (against its own abutment boundary — the paper's per-cell DRC) and
  /// the violations replicated per placement with coordinates mapped
  /// through the placement transform; the residual gets the full rule
  /// set against the top boundary; then only the *interaction regions* —
  /// spacing rules across pairs of sources whose bboxes come within the
  /// rule margin — are pair-checked, with bridge material resolved
  /// across the whole hierarchy. Work scales with unique-cell geometry
  /// plus interaction area instead of instance count.
  ///
  /// Equivalent to the flat `check` on *well-formed* hierarchies: cells
  /// whose interiors stand alone (every rect at least min width, no
  /// transistor/contact split across a cell boundary) — which is what
  /// the generators produce and what `bench_hier_scaling` asserts.
  /// Violation order: placements in order (interior violations in deck
  /// order), then the residual, then interaction pairs; compare as sets
  /// against the flat reference.
  [[nodiscard]] DrcReport checkHier(const cell::HierIndex& hier) const;

  [[nodiscard]] const tech::RuleDeck& deck() const noexcept { return *deck_; }
  [[nodiscard]] const DrcOptions& options() const noexcept { return opts_; }

 private:
  /// One independent, concurrently-runnable rule unit of the plan.
  /// PolyWidth/PolySpacing extend each width/spacing rule to polygon
  /// geometry (`FlatLayout::polygons`); they ride after the classic
  /// units and early-return on polygon-free layers, so chips without
  /// polygons keep their violation order byte-for-byte.
  struct Unit {
    enum class Kind : std::uint8_t {
      Width, Spacing, Transistors, Contacts, PolyWidth, PolySpacing
    };
    Kind kind;
    std::size_t index = 0;  ///< rule index within its deck family
  };

  /// `check` at an explicit width (same shape as `DrcOptions::threads`);
  /// `checkHier` runs its per-unit interiors serially through it.
  [[nodiscard]] DrcReport check(const cell::FlatLayout& flat, const geom::Rect& boundary,
                                unsigned threads) const;

  const tech::RuleDeck* deck_;
  DrcOptions opts_;
  std::vector<Unit> units_;  ///< the shared per-deck plan
};

/// Check one cell (flattening its hierarchy) against the deck.
[[nodiscard]] DrcReport checkCell(const cell::Cell& c, const tech::RuleDeck& deck,
                                  const DrcOptions& opts = {});

/// Check pre-flattened artwork with an explicit abutment boundary.
/// One-shot convenience over a throwaway `DeckChecker`.
[[nodiscard]] DrcReport checkFlat(const cell::FlatLayout& flat, const geom::Rect& boundary,
                                  const tech::RuleDeck& deck, const DrcOptions& opts = {});

}  // namespace bb::drc
