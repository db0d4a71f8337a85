/// \file element.hpp
/// Core element interface — the paper's "data processing elements, such
/// as memories, shifters, and arithmetic-logic units".
///
/// Each element is a *procedural cell generator*: given the global
/// parameters (data width, common pitch, microcode format) it produces
/// its column cell (a stack of stretchable bit slices), its control
/// requirements (decode function + phase per control line), its logic
/// model fragment, and its text description. Elements first *vote* on
/// global parameters, then are executed in order by Pass 1.

#pragma once

#include "cell/library.hpp"
#include "icl/ast.hpp"
#include "icl/diagnostics.hpp"
#include "netlist/logic.hpp"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace bb::elements {

/// Global parameters visible to every element during generation.
struct ElementContext {
  int dataWidth = 8;
  int busCount = 2;
  geom::Coord pitch = 0;  ///< common slice pitch; 0 during measurement
  geom::Coord railWiden = 0;  ///< extra supply-rail width from the power vote
  const icl::MicrocodeDecl* microcode = nullptr;
  cell::CellLibrary* lib = nullptr;
  /// Logic-signal prefixes of the bus segments passing this element.
  /// Bus stops advance the prefix ("busA" -> "busA#2"), keeping each
  /// segment a distinct electrical node in the logic model.
  std::string busPrefix[2] = {"busA", "busB"};
};

/// One control line the element needs from the instruction decoder.
struct ControlLine {
  std::string name;    ///< fully qualified, e.g. "R0.ld"
  std::string decode;  ///< decode function over microcode fields
  int phase = 1;       ///< clock phase qualifying the signal (1 or 2)
  geom::Coord xOffset = 0;  ///< x of the control poly within the column
};

/// The result of executing one element's generator.
struct GeneratedElement {
  cell::Cell* column = nullptr;
  std::vector<ControlLine> controls;
  bool usesBus[2] = {false, false};
  /// True if the bus segment stops after this element (busstop pseudo
  /// element); a new segment (with fresh precharge) starts beyond it.
  bool stopsBus[2] = {false, false};
  /// Static current demand in uA (also available via column->powerDemand).
  double power_ua = 0.0;
};

/// The parameter ballot of Pass 1: "all of the elements vote on the
/// values of global parameters" before any cell is generated.
/// Max-votes resolve to the largest proposal; sum-votes accumulate.
class ParameterBallot {
 public:
  void voteMax(const std::string& param, geom::Coord value);
  void voteSum(const std::string& param, double value);

  [[nodiscard]] geom::Coord maxOf(const std::string& param, geom::Coord dflt = 0) const;
  [[nodiscard]] double sumOf(const std::string& param) const;

 private:
  std::map<std::string, geom::Coord> max_;
  std::map<std::string, double> sum_;
};

/// Base class of every core element generator.
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}
  virtual ~Element() = default;

  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;

  /// Phase 0: vote on global parameters.
  virtual void vote(ParameterBallot& ballot, const ElementContext& ctx) const;

  /// Phase 1a: report the natural (unstretched) pitch of this element's
  /// slices so the compiler can find the widest one.
  [[nodiscard]] virtual geom::Coord naturalPitch(const ElementContext& ctx) const;

  /// Phase 1b: produce the column cell at ctx.pitch (>= naturalPitch).
  [[nodiscard]] virtual GeneratedElement generate(const ElementContext& ctx) = 0;

  /// Emit this element's logic-model fragment (TTL-style logic rep and
  /// simulation substrate). Control inputs are the qualified control
  /// signals named as in GeneratedElement::controls.
  virtual void emitLogic(netlist::LogicModel& lm, const ElementContext& ctx) const = 0;

  /// One-paragraph description for the Text representation.
  [[nodiscard]] virtual std::string describe(const ElementContext& ctx) const;

 private:
  std::string name_;
};

/// Instantiate an element from its declaration. Unknown kinds and missing
/// parameters are diagnosed; returns nullptr on error.
[[nodiscard]] std::unique_ptr<Element> makeElement(const icl::ElementDecl& decl,
                                                   const icl::ChipDesc& chip,
                                                   icl::DiagnosticList& diags);

}  // namespace bb::elements
