/// \file pads.hpp
/// The pad cell library. "When the chip is compiled, the appropriate pad
/// is automatically placed on the chip and a wire is routed between the
/// pad and the cell" — Pass 3 picks cells from here based on the flavor
/// of each pad-request bristle.

#pragma once

#include "cell/library.hpp"
#include "netlist/logic.hpp"

namespace bb::elements {

enum class PadKind : std::uint8_t { In, Out, Bidir, Vdd, Gnd, Clock };

/// Map a pad-request bristle flavor to the pad cell kind.
[[nodiscard]] PadKind padKindForFlavor(cell::BristleFlavor f) noexcept;

/// Build (or fetch, if already built) the pad cell of the given kind.
/// Pad cells are drawn with their bonding square at the outer (south)
/// edge and a "pin" bristle at the inner (north) edge; Pass 3 orients
/// them so the pin faces the core.
[[nodiscard]] cell::Cell* padCell(cell::CellLibrary& lib, PadKind k);

/// Pad geometry constant: the square side.
[[nodiscard]] geom::Coord padSize() noexcept;

/// Emit the pad's logic fragment: input pads invert the external signal
/// onto the requesting net ("<net>"), output pads invert the net onto the
/// external signal "pad.<name>".
void emitPadLogic(netlist::LogicModel& lm, PadKind k, const std::string& padName,
                  const std::string& net);

}  // namespace bb::elements
