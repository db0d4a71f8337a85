/// \file spice.hpp
/// SPICE deck writer for extracted transistor netlists, so the chips this
/// compiler produces can be handed to a circuit simulator — the paper's
/// "hooks for the circuit simulator", completed.

#pragma once

#include "geom/text_buffer.hpp"
#include "netlist/transistor.hpp"

#include <string>

namespace bb::netlist {

struct SpiceOptions {
  std::string title = "bristle blocks extracted netlist";
  /// Lambda in microns, used to scale W/L from grid units.
  double lambdaMicrons = 2.5;
  int unitsPerLambda = 4;
};

/// Append the deck to `out`, sized first from the device count.
void writeSpice(geom::TextBuffer& out, const TransistorNetlist& nl, const SpiceOptions& opts = {});
[[nodiscard]] std::string writeSpice(const TransistorNetlist& nl, const SpiceOptions& opts = {});

}  // namespace bb::netlist
