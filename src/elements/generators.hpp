/// \file generators.hpp
/// Factory functions for the concrete element generators, plus shared
/// helpers for reading element parameters.

#pragma once

#include "elements/element.hpp"

namespace bb::elements {

[[nodiscard]] std::unique_ptr<Element> makeRegister(const icl::ElementDecl&, const icl::ChipDesc&,
                                                    icl::DiagnosticList&);
[[nodiscard]] std::unique_ptr<Element> makeRegfile(const icl::ElementDecl&, const icl::ChipDesc&,
                                                   icl::DiagnosticList&);
[[nodiscard]] std::unique_ptr<Element> makeAlu(const icl::ElementDecl&, const icl::ChipDesc&,
                                               icl::DiagnosticList&);
[[nodiscard]] std::unique_ptr<Element> makeShifter(const icl::ElementDecl&, const icl::ChipDesc&,
                                                   icl::DiagnosticList&);
[[nodiscard]] std::unique_ptr<Element> makeInPort(const icl::ElementDecl&, const icl::ChipDesc&,
                                                  icl::DiagnosticList&);
[[nodiscard]] std::unique_ptr<Element> makeOutPort(const icl::ElementDecl&, const icl::ChipDesc&,
                                                   icl::DiagnosticList&);
[[nodiscard]] std::unique_ptr<Element> makeConstant(const icl::ElementDecl&, const icl::ChipDesc&,
                                                    icl::DiagnosticList&);
[[nodiscard]] std::unique_ptr<Element> makeProbe(const icl::ElementDecl&, const icl::ChipDesc&,
                                                 icl::DiagnosticList&);
[[nodiscard]] std::unique_ptr<Element> makeBusStop(const icl::ElementDecl&, const icl::ChipDesc&,
                                                   icl::DiagnosticList&);

/// Shared parameter helpers (diagnose-and-default semantics).

/// Read a bus parameter ("in = A"): returns 0 for the first chip bus,
/// 1 for the second; diagnoses unknown names. `dflt` used when missing.
[[nodiscard]] int busParam(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                           std::string_view param, int dflt, icl::DiagnosticList& diags);

/// Read a decode-expression parameter (string); diagnoses when missing
/// and `required`.
[[nodiscard]] std::string decodeParam(const icl::ElementDecl& decl, std::string_view param,
                                      const icl::ChipDesc& chip, bool required,
                                      icl::DiagnosticList& diags);

/// Read an integer parameter with range checking.
[[nodiscard]] long long intParam(const icl::ElementDecl& decl, std::string_view param,
                                 long long dflt, long long lo, long long hi,
                                 icl::DiagnosticList& diags);

/// Stretch a freshly generated slice (built at its natural pitch) to the
/// common pitch and widen its supply rails per the context — the paper's
/// "each cell is stretched (a painless operation) to fit all other
/// cells". Returns the adopted, stretched slice.
[[nodiscard]] cell::Cell* fitSlice(const ElementContext& ctx, cell::Cell* slice);

/// Stack per-bit slice cells into one column cell (slice i at
/// y = i * pitch, pitch taken from each slice's boundary height).
[[nodiscard]] cell::Cell* stackSlices(cell::CellLibrary& lib, const std::string& name,
                                      const std::vector<cell::Cell*>& slices);

}  // namespace bb::elements
