/// \file eval.hpp
/// Evaluation over the chip AST:
///   * conditional assembly — resolve `if VAR { ... }` blocks against the
///     global booleans ("at any time prior to actually compiling the
///     chip, the user may decide whether this is a prototype chip");
///   * decode expressions — compile a control line's decode function
///     (e.g. "aluop==2 & regsel!=0") into cubes over the microcode word,
///     the form Pass 2's two-tape machine consumes.

#pragma once

#include "icl/ast.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bb::icl {

/// Flatten the core list under the given variable assignment (overrides
/// take precedence over the defaults declared with `var`). Unknown
/// condition variables are diagnosed.
[[nodiscard]] std::vector<ElementDecl> assembleCore(
    const ChipDesc& chip, const std::map<std::string, bool>& overrides, DiagnosticList& diags);

/// One product term over the microcode word: per bit, 0, 1 or -1 (don't
/// care). A decode function is a sum (OR) of cubes.
struct Cube {
  std::vector<std::int8_t> bits;

  explicit Cube(int width = 0) : bits(static_cast<std::size_t>(width), -1) {}

  [[nodiscard]] int width() const noexcept { return static_cast<int>(bits.size()); }
  /// Number of cared-about bits (the PLA cost of the term).
  [[nodiscard]] int literals() const noexcept;
  /// True if the cube matches the concrete word.
  [[nodiscard]] bool matches(unsigned long long word) const noexcept;
  /// Intersection; nullopt when the cubes conflict on a bit.
  [[nodiscard]] std::optional<Cube> intersect(const Cube& o) const noexcept;
  /// Canonical text, MSB first, e.g. "x10x".
  [[nodiscard]] std::string toString() const;

  friend bool operator==(const Cube&, const Cube&) = default;
};

/// A decode function in sum-of-products form.
struct SumOfProducts {
  std::vector<Cube> cubes;

  [[nodiscard]] bool matches(unsigned long long word) const noexcept;
};

/// Compile a decode expression against the microcode format.
/// Grammar: or-expr of and-exprs of atoms; atoms are `field == N`,
/// `field != N`, bare single-bit `field`, `!field`, `(expr)`, `1`, `0`.
[[nodiscard]] SumOfProducts compileDecode(std::string_view expr, const MicrocodeDecl& mc,
                                          DiagnosticList& diags);

}  // namespace bb::icl
