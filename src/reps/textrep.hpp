/// \file textrep.hpp
/// Text representation generator.

#pragma once

#include "core/chip.hpp"
#include "geom/text_buffer.hpp"

namespace bb::reps {

/// Append the chip's user's manual to `out`.
void userManual(geom::TextBuffer& out, const core::CompiledChip& chip);

}  // namespace bb::reps
