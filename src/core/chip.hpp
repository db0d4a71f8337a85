/// \file chip.hpp
/// The compiled chip: everything the three passes produce, owned in one
/// object — the cell hierarchy (with the top mask cell), the logic model,
/// the decoder PLA, pad placements and the statistics every report and
/// bench draws from.

#pragma once

#include "cell/flatten.hpp"
#include "cell/hier_index.hpp"
#include "cell/library.hpp"
#include "core/once_slot.hpp"
#include "core/pass2_tapes.hpp"
#include "core/pla.hpp"
#include "elements/element.hpp"
#include "icl/ast.hpp"
#include "netlist/logic.hpp"
#include "netlist/transistor.hpp"

#include <string>
#include <vector>

namespace bb::core {

/// One core element after placement.
struct PlacedElement {
  std::string name;
  std::string kind;
  cell::Cell* column = nullptr;
  geom::Coord x = 0;  ///< west edge within the core
  std::vector<elements::ControlLine> controls;
  bool usesBus[2] = {false, false};
};

/// One pad after Pass 3.
struct PadPlacement {
  std::string name;          ///< bristle name it serves
  std::string padCellName;
  cell::Side side = cell::Side::North;  ///< which chip edge
  geom::Point pinAt;         ///< pin position in chip coordinates
  geom::Point target;        ///< the connection point it is wired to
  geom::Coord wireLength = 0;
};

struct ChipStats {
  geom::Coord pitch = 0;            ///< common slice pitch after stretching
  geom::Coord naturalPitchMax = 0;  ///< widest natural pitch found
  geom::Coord coreWidth = 0;
  geom::Coord coreHeight = 0;
  geom::Coord coreArea = 0;
  geom::Coord decoderArea = 0;      ///< buffer row + PLA
  geom::Coord padRingArea = 0;
  geom::Coord dieWidth = 0;
  geom::Coord dieHeight = 0;
  geom::Coord dieArea = 0;
  geom::Coord padWireLength = 0;
  std::size_t padCount = 0;
  std::size_t controlCount = 0;
  std::size_t busSegments[2] = {1, 1};
  std::size_t prechargeColumns = 0;
  double power_ua = 0;
  geom::Coord powerRailWidth = 0;
  std::size_t cellCount = 0;
  std::size_t shapeCount = 0;       ///< flattened primitive count
  std::size_t logicGates = 0;
  std::size_t logicSignals = 0;
};

/// Everything a compile produces. Movable, not copyable (owns the cells).
struct CompiledChip {
  icl::ChipDesc desc;
  cell::CellLibrary lib;
  cell::Cell* top = nullptr;      ///< whole die (core + decoder + pads)
  cell::Cell* core = nullptr;
  cell::Cell* bufferRow = nullptr;
  cell::Cell* decoder = nullptr;  ///< the PLA
  std::vector<PlacedElement> placed;
  std::vector<elements::ControlLine> controls;  ///< absolute x in core coords
  std::vector<PadPlacement> pads;
  netlist::LogicModel logic;
  Pla pla;
  TapeStats tapeStats;
  ChipStats stats;

  [[nodiscard]] std::string statsText() const;

  /// Deep copy: the cell library is cloned with every instance reference
  /// and the chip's own cell pointers (top/core/bufferRow/decoder, the
  /// placed-element columns) retargeted at the copies; all value state
  /// (desc, controls, pads, logic, pla, stats) is copied. The derived
  /// artifacts below are NOT copied — the clone rebuilds them lazily.
  /// This is the checkpoint primitive behind `CompileSession`'s
  /// incremental recompilation: a pass re-run mutates a clone of the
  /// pre-pass chip, never the original.
  [[nodiscard]] CompiledChip clone() const;

  /// Deterministic estimate of the chip's resident size in bytes: cells,
  /// shapes with polygon/path vertices, bristles, instances, placed
  /// elements, pads, logic model — PLUS `kDerivedBytesPerShape` per
  /// flattened primitive (`stats.shapeCount`) for the derived artifacts
  /// below, whether built or not. The flattens replicate every instance's
  /// geometry, so they dwarf the shared cell library; charging them up
  /// front keeps the charge the same before and after any artifact is
  /// built, and lets `svc::ChipCache` charge a chip at insertion for
  /// everything a request can later build. An estimate, not an accounting
  /// of every allocator header.
  [[nodiscard]] std::size_t approxBytes() const noexcept;

  /// Bytes per flattened primitive that `flatTop`, `flatCore` and
  /// `hierTop` with every layer index built, plus `coreNetlist`, hold
  /// together: measured at 112-128 over the sample chips, from
  /// smallChip(4) to largeChip(64, 16).
  static constexpr std::size_t kDerivedBytesPerShape = 132;

  // --- derived artifacts ----------------------------------------------
  //
  // `flatTop`, `flatCore`, `hierTop` and `coreNetlist` share one contract.
  //
  // Lifetime: each is built on its first call and kept for the chip's
  // lifetime; until then it costs nothing (a compile builds none of them:
  // finalize counts `stats.shapeCount` with `cell::flatCount`). They need
  // the passes to have run (the cell pointers set); a compiled chip's
  // cells are immutable, so nothing goes stale. `clone()` copies none of
  // them, and `approxBytes()` charges all of them from the start.
  //
  // Thread safety: each sits on a `core::OnceSlot`, and so does every
  // per-layer `geom::RectIndex` inside the flattens and the `HierIndex`
  // units (`FlatLayout::indexOn`). Any number of threads may make the
  // first call to any of them concurrently on one shared chip — one
  // builds, the rest wait, every caller gets the same object, and later
  // calls only read. A shared chip needs no preparation.

  /// Flattened artwork of the whole die / of the core, so DRC,
  /// extraction and every emitter share one flatten (and its per-layer
  /// spatial indexes) instead of re-walking the hierarchy each.
  [[nodiscard]] const cell::FlatLayout& flatTop() const;
  [[nodiscard]] const cell::FlatLayout& flatCore() const;

  /// Hierarchical index of the whole die (`cell::HierIndex` over `top`):
  /// unique cells flattened once plus a placement index — what the
  /// hierarchical DRC/extract/emission paths and lazy viewports consume.
  [[nodiscard]] const cell::HierIndex& hierTop() const;

  /// The core's extracted transistor netlist: `extract::extractFlat` of
  /// `flatCore()`, nets labelled by the core's bristles. The spice and
  /// transistors emitters both read it, so one chip runs one extraction.
  /// (Lint's ERC extracts on its own: it sets the core boundary and so
  /// gets a different netlist.)
  [[nodiscard]] const netlist::TransistorNetlist& coreNetlist() const;

  /// Whether each artifact has been built (so tests can assert which
  /// paths build what).
  [[nodiscard]] bool flatTopBuilt() const noexcept { return flatTop_.ifBuilt() != nullptr; }
  [[nodiscard]] bool hierTopBuilt() const noexcept { return hierTop_.ifBuilt() != nullptr; }
  [[nodiscard]] bool coreNetlistBuilt() const noexcept {
    return coreNetlist_.ifBuilt() != nullptr;
  }

 private:
  OnceSlot<cell::FlatLayout> flatTop_;
  OnceSlot<cell::FlatLayout> flatCore_;
  OnceSlot<cell::HierIndex> hierTop_;
  OnceSlot<netlist::TransistorNetlist> coreNetlist_;
};

}  // namespace bb::core
