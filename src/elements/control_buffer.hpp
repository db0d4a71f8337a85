/// \file control_buffer.hpp
/// Control-buffer row assembly for Pass 2.

#pragma once

#include "elements/element.hpp"

namespace bb::elements {

struct BufferRow {
  cell::Cell* cell = nullptr;
  geom::Coord height = 0;
};

/// Build the buffer row: one clock-qualified buffer per control line,
/// centred on the line's x offset, plus the two metal clock lines and
/// their pad-request bristles.
[[nodiscard]] BufferRow buildBufferRow(cell::CellLibrary& lib, const std::string& name,
                                       const std::vector<ControlLine>& controls,
                                       geom::Coord rowWidth);

/// Logic: ctl = decodeSignal AND phi<phase>.
void emitBufferLogic(netlist::LogicModel& lm, const ControlLine& cl,
                     std::string_view decodeSignal);

}  // namespace bb::elements
