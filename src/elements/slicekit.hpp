/// \file slicekit.hpp
/// The low-level cell kit — the equivalent of the paper's human-designed
/// "low level cells" entered in a standard cell design language. The kit
/// holds the interface contract every slice obeys and a set of 14-lambda
/// unit columns (inverter, bus tap, pass gate, pull-down, ...) that the
/// element generators compose into bit slices.
///
/// Every unit's geometry was designed against the Mead–Conway rules and
/// is DRC-clean by construction; the unit coordinates below are part of
/// the interface contract (e.g. the data rail is always diffusion at
/// y = [23,25] lambda so any unit's east rail meets its neighbour's).

#pragma once

#include "cell/cell.hpp"
#include "cell/library.hpp"
#include "tech/rules.hpp"

namespace bb::elements {

using geom::Coord;

/// Lambda helper (grid units per lambda).
[[nodiscard]] constexpr Coord lam(Coord n) noexcept { return geom::lambda(n); }

/// The standard slice interface contract (all values in grid units).
struct SliceContract {
  Coord unitW = lam(16);        ///< width of one kit unit column
  Coord gndY0 = lam(0);         ///< GND rail [gndY0, gndY1]
  Coord gndY1 = lam(4);
  Coord busAY0 = lam(8);        ///< bus A metal track
  Coord busAY1 = lam(11);
  Coord busBY0 = lam(15);       ///< bus B metal track
  Coord busBY1 = lam(18);
  Coord pitchStretchY = lam(20);  ///< stretch corridor for pitch matching
  Coord railY0 = lam(23);       ///< data rail (diffusion)
  Coord railY1 = lam(25);
  Coord stubY0 = lam(31);       ///< poly stub track (lane connections)
  Coord stubY1 = lam(33);
  Coord naturalPitch = lam(48); ///< minimum slice pitch
  /// Vdd rail sits at [pitch-7, pitch-3] lambda.
  [[nodiscard]] Coord vddY0(Coord pitch) const noexcept { return pitch - lam(7); }
  [[nodiscard]] Coord vddY1(Coord pitch) const noexcept { return pitch - lam(3); }
};

[[nodiscard]] const SliceContract& contract() noexcept;

/// Which bus a unit taps.
enum class BusTrack : std::uint8_t { A, B };

/// Builder for one bit slice assembled from kit units. The builder draws
/// the supply rails and bus tracks across the final width, places unit
/// geometry at successive 14-lambda windows, and declares the standard
/// stretch lines. All `add*` calls append one unit and return the unit's
/// window index.
class SliceBuilder {
 public:
  /// `pitch` = slice height (>= contract().naturalPitch).
  SliceBuilder(cell::CellLibrary& lib, std::string name, Coord pitch);

  /// Inverter unit. If `railInput` the input comes from the west data
  /// rail through a buried contact (and stores on the gate); otherwise
  /// the input is a poly lead at the west edge (y [25,27]L).
  /// If `outEast`, the output metal is extended to the east edge
  /// (y [28,32]L) for a following M2D/M2P unit.
  int addInv(bool railInput, bool outEast);

  /// Bus tap: pass transistor between `bus` and the data rail, gated by a
  /// full-height vertical control poly at the unit center. `flip` places
  /// the tap east of the gate (bus joins the east rail segment).
  /// `highRail` uses the upper rail2 track (y [35,37]L) instead of the
  /// data rail — the drive-chain configuration.
  int addBusTap(BusTrack bus, bool flip = false, bool highRail = false);

  /// Plain pass gate on the data rail (vertical control poly).
  int addPass();

  /// Metal (west, y [28,32]L) to data-rail converter. With `railEast`
  /// the rail continues to the east edge (to feed a following PASS or
  /// RAILGATE); without, it stops 2L short (the next unit starts a fresh
  /// electrical node).
  int addM2D(bool railEast = true);

  /// Metal (west, y [28,32]L) to poly stub (east, y [31,33]L) converter.
  int addM2P();

  /// Rail-gated pull-down: west data rail value (via buried contact)
  /// gates a transistor between rail2 (east, y [35,37]L) and GND.
  int addRailGate();

  /// Pull-down from west data rail to GND, gate fed from the east poly
  /// stub (y [31,33]L). Used with a lane carrying the gating signal.
  int addPullStub();

  /// Pull-down from west data rail to GND with the gate tied to Vdd
  /// (always on) — constant-0 bus driver tail.
  int addPullVdd();

  /// Precharge unit: both buses get an enhancement pull-up to Vdd gated
  /// by the unit's vertical control poly (the phi2 line).
  int addPrecharge(bool busA, bool busB);

  /// Vertical poly lane at the unit center spanning [y0, y1]. With
  /// `stubWest`, a poly stub connects the lane to the west edge at the
  /// stub track (y [31,33]L must lie within [y0, y1]).
  int addLane(Coord y0, Coord y1, bool stubWest);

  /// Empty unit window, optionally continuing the poly stub track and/or
  /// the data rail across it.
  int addSpacer(bool carryStub, bool carryRail);

  /// Finish: draw rails/bus tracks across all units, set boundary and
  /// stretch lines. `drawBusA/B` control whether the bus tracks are drawn
  /// (a busstop slice omits them).
  cell::Cell* finish(bool drawBusA = true, bool drawBusB = true);

  /// Center x of the vertical control poly of unit `idx`.
  [[nodiscard]] Coord controlX(int idx) const noexcept;
  [[nodiscard]] Coord width() const noexcept;
  [[nodiscard]] cell::Cell* cell() noexcept { return cell_; }

 private:
  Coord x0() const noexcept;  ///< west edge of the current unit window

  cell::CellLibrary& lib_;
  cell::Cell* cell_;
  Coord pitch_;
  int units_ = 0;
  int depletionLoads_ = 0;
};

/// Build the control-buffer cell (Pass 2). Height 28L, width 14L; decode
/// poly enters the north edge, the qualified control poly exits south,
/// and the cell taps the phase-`phase` metal clock line that runs
/// horizontally through the buffer row (phi1 at y [7,10]L, phi2 at
/// y [13,16]L).
[[nodiscard]] cell::Cell* buildControlBuffer(cell::CellLibrary& lib, int phase);

/// Height of the buffer row cell.
[[nodiscard]] Coord bufferRowHeight() noexcept;

/// South edge y of the phase-1 / phase-2 metal clock lines within the
/// buffer row (Pass 2 draws them across the row; buffers tap them).
[[nodiscard]] Coord bufferClockLineY0(int phase) noexcept;

}  // namespace bb::elements
