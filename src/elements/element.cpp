#include "elements/element.hpp"

#include "elements/generators.hpp"
#include "elements/slicekit.hpp"
#include "cell/stretch.hpp"
#include "icl/eval.hpp"

#include <algorithm>
#include <array>

namespace bb::elements {

void ParameterBallot::voteMax(const std::string& param, geom::Coord value) {
  auto it = max_.find(param);
  if (it == max_.end() || it->second < value) max_[param] = value;
}

void ParameterBallot::voteSum(const std::string& param, double value) { sum_[param] += value; }

geom::Coord ParameterBallot::maxOf(const std::string& param, geom::Coord dflt) const {
  auto it = max_.find(param);
  return it == max_.end() ? dflt : it->second;
}

double ParameterBallot::sumOf(const std::string& param) const {
  auto it = sum_.find(param);
  return it == sum_.end() ? 0.0 : it->second;
}

void Element::vote(ParameterBallot& ballot, const ElementContext& ctx) const {
  // Default vote: my natural pitch is a floor for the common pitch.
  ballot.voteMax("pitch", naturalPitch(ctx));
}

geom::Coord Element::naturalPitch(const ElementContext&) const {
  return contract().naturalPitch;
}

std::string Element::describe(const ElementContext&) const {
  return std::string(kind()) + " element '" + name() + "'";
}

namespace {

/// The element kinds the library knows, for the unknown-kind diagnostic.
std::vector<std::string> knownElementKinds() {
  return {"register", "regfile", "alu",      "shifter", "inport",
          "outport",  "constant", "probe",   "busstop"};
}

}  // namespace

std::unique_ptr<Element> makeElement(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                                     icl::DiagnosticList& diags) {
  if (decl.kind == "register") return makeRegister(decl, chip, diags);
  if (decl.kind == "regfile") return makeRegfile(decl, chip, diags);
  if (decl.kind == "alu") return makeAlu(decl, chip, diags);
  if (decl.kind == "shifter") return makeShifter(decl, chip, diags);
  if (decl.kind == "inport") return makeInPort(decl, chip, diags);
  if (decl.kind == "outport") return makeOutPort(decl, chip, diags);
  if (decl.kind == "constant") return makeConstant(decl, chip, diags);
  if (decl.kind == "probe") return makeProbe(decl, chip, diags);
  if (decl.kind == "busstop") return makeBusStop(decl, chip, diags);
  std::string known;
  for (const std::string& k : knownElementKinds()) {
    if (!known.empty()) known += ", ";
    known += k;
  }
  diags.error(decl.loc, "unknown element kind '" + decl.kind + "' (known: " + known + ")");
  return nullptr;
}

}  // namespace bb::elements

// --- shared parameter helpers -------------------------------------------

namespace bb::elements {

int busParam(const icl::ElementDecl& decl, const icl::ChipDesc& chip, std::string_view param,
             int dflt, icl::DiagnosticList& diags) {
  const icl::ParamValue* v = decl.param(param);
  if (v == nullptr) return dflt;
  if (!v->isName()) {
    diags.error(decl.loc, "element '" + decl.name + "': parameter '" + std::string(param) +
                              "' must be a bus name");
    return dflt;
  }
  for (std::size_t i = 0; i < chip.buses.size(); ++i) {
    if (chip.buses[i] == v->asText()) return static_cast<int>(i);
  }
  diags.error(decl.loc, "element '" + decl.name + "': unknown bus '" + v->asText() + "'");
  return dflt;
}

std::string decodeParam(const icl::ElementDecl& decl, std::string_view param,
                        const icl::ChipDesc& chip, bool required, icl::DiagnosticList& diags) {
  const icl::ParamValue* v = decl.param(param);
  if (v == nullptr || (!v->isString() && !v->isName())) {
    if (required) {
      diags.error(decl.loc, "element '" + decl.name + "': missing decode parameter '" +
                                std::string(param) + "'");
    }
    return "0";
  }
  // Validate the expression compiles against the microcode format.
  icl::DiagnosticList local;
  (void)icl::compileDecode(v->asText(), chip.microcode, local);
  if (local.hasErrors()) {
    diags.error(decl.loc, "element '" + decl.name + "', parameter '" + std::string(param) +
                              "': bad decode expression: " + local.all().front().message);
    return "0";
  }
  return v->asText();
}

long long intParam(const icl::ElementDecl& decl, std::string_view param, long long dflt,
                   long long lo, long long hi, icl::DiagnosticList& diags) {
  const icl::ParamValue* v = decl.param(param);
  if (v == nullptr) return dflt;
  if (!v->isInt() || v->asInt() < lo || v->asInt() > hi) {
    diags.error(decl.loc, "element '" + decl.name + "': parameter '" + std::string(param) +
                              "' must be an integer in " + std::to_string(lo) + ".." +
                              std::to_string(hi));
    return dflt;
  }
  return v->asInt();
}

namespace {
geom::Coord lineAt(const cell::Cell& c, std::string_view name) {
  for (const cell::StretchLine& sl : c.stretchLines()) {
    if (sl.name == name) return sl.at;
  }
  return -1;
}
}  // namespace

cell::Cell* fitSlice(const ElementContext& ctx, cell::Cell* slice) {
  // Pitch, then both rail widenings, as one multi-cut stretch: the cuts
  // sit at the slice's own line positions (see cell/stretch.hpp).
  std::array<cell::StretchCut, 3> cuts;
  std::size_t n = 0;
  const geom::Coord natural = slice->height();
  if (ctx.pitch > natural) cuts[n++] = {lineAt(*slice, "pitch"), ctx.pitch - natural};
  if (ctx.railWiden > 0) {
    cuts[n++] = {lineAt(*slice, "gnd-widen"), ctx.railWiden};
    cuts[n++] = {lineAt(*slice, "vdd-widen"), ctx.railWiden};
  }
  if (n == 0) return ctx.lib->adopt(*slice);
  return ctx.lib->adopt(
      cell::stretched(*slice, cell::StretchAxis::Y, std::span(cuts.data(), n)));
}

cell::Cell* stackSlices(cell::CellLibrary& lib, const std::string& name,
                        const std::vector<cell::Cell*>& slices) {
  cell::Cell* col = lib.create(name);
  geom::Coord y = 0;
  geom::Coord w = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    col->addInstance(slices[i], geom::Transform::translate({0, y}),
                     "bit" + std::to_string(i));
    y += slices[i]->height();
    w = std::max(w, slices[i]->width());
  }
  col->setBoundary(geom::Rect{0, 0, w, y});
  return col;
}

}  // namespace bb::elements
