/// \file blockrep.hpp
/// Block diagram: "the arrangement of the buses and core elements" —
/// Figures 1 and 2 of the paper, regenerated for any compiled chip.

#pragma once

#include "core/chip.hpp"
#include "geom/text_buffer.hpp"

namespace bb::reps {

/// ASCII block diagram (physical format: pads / decoder / core), appended
/// to `out`.
void blockDiagram(geom::TextBuffer& out, const core::CompiledChip& chip);

/// Logical-format diagram: buses through elements, control from above,
/// appended to `out`.
void logicalDiagram(geom::TextBuffer& out, const core::CompiledChip& chip);

}  // namespace bb::reps
