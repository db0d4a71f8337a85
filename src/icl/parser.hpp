/// \file parser.hpp
/// Recursive-descent parser for the chip description language.

#pragma once

#include "icl/ast.hpp"
#include "icl/lexer.hpp"

#include <optional>

namespace bb::icl {

/// Parse a chip description's syntax: tokens, declarations, the four
/// sections. On error, diagnostics are filled and nullopt is returned
/// (the parser recovers at ';' / '}' boundaries to report multiple
/// errors in one run). Whether the description is valid — bit ranges,
/// widths, bus count, unique names — is `validateChipDesc`'s question,
/// which the compile session asks of every description it is given.
[[nodiscard]] std::optional<ChipDesc> parseChip(std::string_view src, DiagnosticList& diags);

}  // namespace bb::icl
