/// \file builder.hpp
/// Programmatic construction of chip descriptions. `ChipBuilder` is the
/// typed frontend next to the parser: instead of assembling ICL source
/// text and re-parsing it, call sites build an `icl::ChipDesc` value
/// directly —
///
///   auto desc = ChipBuilder("counter")
///                   .microcode(12, {field("op", 0, 3), field("sel", 4, 7)})
///                   .dataWidth(4)
///                   .buses({"A", "B"})
///                   .element("register", "R0",
///                            {{"in", sym("A")}, {"out", sym("B")},
///                             {"load", expr("op==1")}})
///                   .when("PROTOTYPE", {item("probe", "P0",
///                                            {{"bus", sym("A")}, {"bit", num(0)}})})
///                   .build();
///
/// `build()` validates the description with `validateChipDesc` and
/// returns `core::Expected<ChipDesc>` in the session's error style:
/// diagnostics explain a failure, never an assert. The textual language
/// remains one loader over the same type (`ChipDesc::toString()`
/// round-trips through `parseChip`).

#pragma once

#include "core/expected.hpp"
#include "icl/ast.hpp"

#include <string>
#include <utility>
#include <vector>

namespace bb::icl {

// ---- parameter-value helpers -------------------------------------------
// Mirror the four parameter shapes of the language: integers (`n = 8`),
// booleans, bare names (`in = A`, `op = misc`), quoted decode
// expressions (`load = "op==1"`), and name lists (`ops = [add, and]`).

[[nodiscard]] inline ParamValue num(long long v) { return ParamValue(v); }
[[nodiscard]] inline ParamValue flag(bool v) { return ParamValue(v); }
[[nodiscard]] inline ParamValue sym(std::string name) {
  return ParamValue(std::move(name), /*quoted=*/false);
}
[[nodiscard]] inline ParamValue expr(std::string text) {
  return ParamValue(std::move(text), /*quoted=*/true);
}
[[nodiscard]] ParamValue syms(std::vector<std::string> names);

/// One microcode field, `field("op", 0, 3)` == `field op [0:3];`.
[[nodiscard]] FieldDecl field(std::string name, int lo, int hi);

/// Element parameters in declaration order. Duplicate keys are diagnosed
/// at `ChipBuilder::build()` time; the first occurrence wins in the
/// meantime (`ElementDecl::params` is a map and cannot hold both).
using Param = std::pair<std::string, ParamValue>;
using ParamList = std::vector<Param>;

/// A core item under construction: the AST node plus any problems found
/// while building it (duplicate parameter keys, misuse inside nested
/// conditionals). The AST map collapses duplicates, so the problems are
/// recorded here — where the declaration order is still visible — and
/// carried along until `ChipBuilder::build()` surfaces them.
struct BuildItem {
  CoreItem node;
  std::vector<std::string> problems;
};

/// A core element as a standalone item, for nesting inside conditionals.
[[nodiscard]] BuildItem item(std::string kind, std::string name, ParamList params = {});
/// A conditional block as a standalone item: `if [!]var { then } else { else }`.
[[nodiscard]] BuildItem cond(std::string var, std::vector<BuildItem> thenItems,
                             std::vector<BuildItem> elseItems = {});
[[nodiscard]] BuildItem condNot(std::string var, std::vector<BuildItem> thenItems,
                                std::vector<BuildItem> elseItems = {});

/// Fluent, validated construction of a `ChipDesc`. Methods append in
/// call order (element order is placement order); structural misuse
/// (e.g. `elseItems()` with no preceding `when()`) is recorded and
/// surfaces as a `build()` error rather than throwing mid-chain.
class ChipBuilder {
 public:
  explicit ChipBuilder(std::string name);

  /// Declare a conditional-assembly variable with its default value.
  ChipBuilder& var(std::string name, bool value);

  /// Section 1: instruction width, optionally with all fields at once.
  ChipBuilder& microcode(int width, std::vector<FieldDecl> fields = {});
  /// Append one microcode field.
  ChipBuilder& field(std::string name, int lo, int hi);

  /// Section 2: data width and buses.
  ChipBuilder& dataWidth(int width);
  ChipBuilder& bus(std::string name);
  ChipBuilder& buses(std::vector<std::string> names);

  /// Section 3: core elements, in placement order.
  ChipBuilder& element(std::string kind, std::string name, ParamList params = {});
  /// Append a pre-built item (element or nested conditional).
  ChipBuilder& add(BuildItem buildItem);
  /// `if var { ... }` / `if !var { ... }` conditional-assembly blocks.
  ChipBuilder& when(std::string var, std::vector<BuildItem> thenItems);
  ChipBuilder& whenNot(std::string var, std::vector<BuildItem> thenItems);
  /// Attach an else branch to the most recent `when`/`whenNot`.
  ChipBuilder& elseItems(std::vector<BuildItem> items);

  /// Validate and hand over the description. On failure the diagnostics
  /// name every problem found (the builder keeps collecting past the
  /// first, like the parser's error recovery).
  [[nodiscard]] core::Expected<ChipDesc> build() const;

  /// Known-good input convenience for samples and tests: aborts with the
  /// diagnostics on stderr if the description does not validate.
  [[nodiscard]] ChipDesc buildOrDie() const;

 private:
  ChipDesc desc_;
  DiagnosticList pending_;  ///< structural misuse recorded as it happens
};

/// The one semantic check of a chip description, however it was made.
/// Two callers run it: `ChipBuilder::build()`, and the parse stage of
/// `core::CompileSession` — after parsing text, or on adopting a typed
/// description — so every compile door (`compileChip`, `BatchCompiler`,
/// `svc::CompileService`) rejects the same descriptions. It checks:
///   - a non-empty chip name, and microcode and data widths in 1..64
///     (the simulator and decoder carry a microcode word in 64 bits);
///   - fields: named uniquely, `0 <= lo <= hi` inside the microcode
///     word, at most 62 bits wide (`1ll << bits` must be defined), and
///     not overlapping an earlier field;
///   - one or two uniquely named buses ("at most two buses may run
///     through any element");
///   - a non-empty core whose elements have a kind and a unique name.
///     The same name may appear in both branches of one conditional
///     (only one is assembled), but not again afterwards.
/// Appends to `diags`; returns false if any *error* was added (warnings
/// alone still validate).
bool validateChipDesc(const ChipDesc& desc, DiagnosticList& diags);

}  // namespace bb::icl
