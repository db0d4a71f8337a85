/// \file alu.cpp
/// The arithmetic-logic unit element. Operands are latched from the two
/// buses during phi1; the function evaluates during phi2 (the paper's
/// example of a precharged processing element — here the carry chain is
/// the Manchester-style precharged path); the result register drives a
/// bus on a later phi1.
///
/// The logic model is exact (ripple carry + op mux). The cell artwork is
/// assembled from the kit with one pass-gate column per operation select,
/// which reproduces the real cell's density and control geometry; see
/// DESIGN.md ("density-faithful" substitution note).

#include "elements/generators.hpp"
#include "elements/slicekit.hpp"

#include <algorithm>

namespace bb::elements {

namespace {

const std::vector<std::string>& supportedOps() {
  static const std::vector<std::string> ops = {"add", "sub", "and", "or",
                                               "xor", "passa", "passb"};
  return ops;
}

class AluElement final : public Element {
 public:
  AluElement(std::string name, int busA, int busB, int busOut, std::string opField,
             std::vector<std::string> ops, std::string loadDecode, std::string driveDecode)
      : Element(std::move(name)),
        busA_(busA),
        busB_(busB),
        busOut_(busOut),
        opField_(std::move(opField)),
        ops_(std::move(ops)),
        load_(std::move(loadDecode)),
        drive_(std::move(driveDecode)) {}

  [[nodiscard]] std::string_view kind() const noexcept override { return "alu"; }

  [[nodiscard]] geom::Coord naturalPitch(const ElementContext&) const override {
    // The function block needs extra vertical room: the widest core cell
    // in a typical chip, which makes the ALU drive the common pitch.
    return contract().naturalPitch + lam(8);
  }

  GeneratedElement generate(const ElementContext& ctx) override {
    SliceBuilder sb(*ctx.lib, name() + ".slice", naturalPitch(ctx));
    GeneratedElement ge;
    // Operand A latch chain.
    const int uLa = sb.addBusTap(busA_ == 0 ? BusTrack::A : BusTrack::B);
    sb.addInv(true, true);
    sb.addM2D(/*railEast=*/false);  // the b tap starts a fresh node
    // Operand B latch chain.
    const int uLb = sb.addBusTap(busB_ == 0 ? BusTrack::A : BusTrack::B);
    sb.addInv(true, true);
    sb.addM2D();
    ge.controls.push_back(ControlLine{name() + ".lda", load_, 1, sb.controlX(uLa)});
    ge.controls.push_back(ControlLine{name() + ".ldb", load_, 1, sb.controlX(uLb)});
    // One select pass column per operation (phi2-qualified).
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      const int u = sb.addPass();
      ge.controls.push_back(ControlLine{name() + ".op_" + ops_[k],
                                        opField_ + "==" + std::to_string(k), 2,
                                        sb.controlX(u)});
    }
    // Function block depth: inverter pair (carry kill / propagate stand-in).
    sb.addInv(true, true);
    sb.addM2D();
    // Result drive chain.
    sb.addRailGate();
    const int uDr = sb.addBusTap(busOut_ == 0 ? BusTrack::A : BusTrack::B, true, true);
    ge.controls.push_back(ControlLine{name() + ".dr", drive_, 1, sb.controlX(uDr)});

    cell::Cell* slice = sb.finish();
    slice = fitSlice(ctx, slice);
    slice->setDoc("alu bit slice: operand latches, " + std::to_string(ops_.size()) +
                  " op selects, precharged function block, result drive");

    std::vector<cell::Cell*> slices(static_cast<std::size_t>(ctx.dataWidth), slice);
    ge.column = stackSlices(*ctx.lib, name(), slices);
    ge.column->setDoc(describe(ctx));
    ge.usesBus[busA_] = true;
    ge.usesBus[busB_] = true;
    ge.usesBus[busOut_] = true;
    for (const ControlLine& cl : ge.controls) {
      ge.column->addBristle(cell::Bristle{cl.name, cell::BristleFlavor::Control,
                                          cell::Side::North,
                                          {cl.xOffset, ge.column->height()},
                                          tech::Layer::Poly, lam(2), cl.decode, cl.phase,
                                          cl.name});
    }
    ge.power_ua = ge.column->powerDemand();
    return ge;
  }

  void emitLogic(netlist::LogicModel& lm, const ElementContext& ctx) const override {
    using netlist::GateKind;
    const std::string& n = name();
    const int lda = lm.signal(n + ".lda");
    const int ldb = lm.signal(n + ".ldb");
    const int dr = lm.signal(n + ".dr");
    const int phi2 = lm.signal("phi2");
    std::vector<int> opSig;
    opSig.reserve(ops_.size());
    for (const std::string& op : ops_) opSig.push_back(lm.signal(n + ".op_" + op));

    // Carry chain (c0 = 0 for add, 1 for sub via b inversion).
    const std::string cStem = n + ".c";
    int carry = lm.signal(cStem, 0);
    const int subIdx = opIndex("sub");
    if (subIdx >= 0) {
      lm.add(GateKind::Buf, {opSig[static_cast<std::size_t>(subIdx)]}, carry, n + ".carryin");
    } else {
      lm.add(GateKind::Const0, {}, carry);
    }

    const std::string aStem = n + ".a", brawStem = n + ".braw", bStem = n + ".b";
    const std::string pStem = n + ".p", gStem = n + ".g", sumStem = n + ".sum";
    const std::string rStem = n + ".r", rlStem = n + ".rl", rbStem = n + ".rb";
    const std::string pcHint = n + ".pc", fHint = n + ".f", andHint = n + ".and",
                      orHint = n + ".or", xorHint = n + ".xor";
    const std::string opA = n + ".opA", opB = n + ".opB", result = n + ".result",
                      drive = n + ".drive";
    std::vector<int> terms;
    for (int i = 0; i < ctx.dataWidth; ++i) {
      const int inA = lm.signal(ctx.busPrefix[busA_], i);
      const int inB = lm.signal(ctx.busPrefix[busB_], i);
      const int out = lm.signal(ctx.busPrefix[busOut_], i);
      lm.markBus(inA);
      lm.markBus(inB);
      lm.markBus(out);
      const int a = lm.signal(aStem, i);
      const int braw = lm.signal(brawStem, i);
      const int b = lm.signal(bStem, i);
      lm.add(GateKind::Latch, {inA, lda}, a, opA);
      lm.add(GateKind::Latch, {inB, ldb}, braw, opB);
      // Subtraction inverts B into the adder (b XOR sub).
      if (subIdx >= 0) {
        lm.add(GateKind::Xor, {braw, opSig[static_cast<std::size_t>(subIdx)]}, b);
      } else {
        lm.add(GateKind::Buf, {braw}, b);
      }
      const int p = lm.signal(pStem, i);
      const int g = lm.signal(gStem, i);
      lm.add(GateKind::Xor, {a, b}, p);
      lm.add(GateKind::And, {a, b}, g);
      const int sum = lm.signal(sumStem, i);
      lm.add(GateKind::Xor, {p, carry}, sum);
      const int cnext = lm.signal(cStem, i + 1);
      const int pc = lm.internalSignal(pcHint);
      lm.add(GateKind::And, {p, carry}, pc);
      lm.add(GateKind::Or, {g, pc}, cnext);
      carry = cnext;

      // Result mux over the enabled operations.
      terms.clear();
      for (std::size_t k = 0; k < ops_.size(); ++k) {
        const int f = lm.internalSignal(fHint);
        const std::string& op = ops_[k];
        if (op == "add" || op == "sub") {
          lm.add(GateKind::And, {opSig[k], sum}, f);
        } else if (op == "and") {
          const int t = lm.internalSignal(andHint);
          lm.add(GateKind::And, {a, braw}, t);
          lm.add(GateKind::And, {opSig[k], t}, f);
        } else if (op == "or") {
          const int t = lm.internalSignal(orHint);
          lm.add(GateKind::Or, {a, braw}, t);
          lm.add(GateKind::And, {opSig[k], t}, f);
        } else if (op == "xor") {
          const int t = lm.internalSignal(xorHint);
          lm.add(GateKind::Xor, {a, braw}, t);
          lm.add(GateKind::And, {opSig[k], t}, f);
        } else if (op == "passa") {
          lm.add(GateKind::And, {opSig[k], a}, f);
        } else {  // passb
          lm.add(GateKind::And, {opSig[k], braw}, f);
        }
        terms.push_back(f);
      }
      const int r = lm.signal(rStem, i);
      lm.add(GateKind::Or, terms, r);
      // Result register: transparent during phi2, holds through phi1.
      const int rl = lm.signal(rlStem, i);
      const int rb = lm.signal(rbStem, i);
      lm.add(GateKind::Latch, {r, phi2}, rl, result);
      lm.add(GateKind::Inv, {rl}, rb);
      lm.add(GateKind::PullDown, {dr, rb}, out, drive);
    }
    // Expose the final carry for probes / flags.
    lm.add(GateKind::Buf, {carry}, lm.signal(n + ".cout"));
  }

  [[nodiscard]] std::string describe(const ElementContext& ctx) const override {
    std::string ops;
    for (const std::string& op : ops_) {
      if (!ops.empty()) ops += ",";
      ops += op;
    }
    return "alu '" + name() + "': " + std::to_string(ctx.dataWidth) + "-bit, ops {" + ops +
           "} selected by field '" + opField_ + "'; operands latch (phi1) when [" + load_ +
           "], result drives (phi1) when [" + drive_ + "]";
  }

 private:
  [[nodiscard]] int opIndex(std::string_view op) const noexcept {
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      if (ops_[k] == op) return static_cast<int>(k);
    }
    return -1;
  }

  int busA_;
  int busB_;
  int busOut_;
  std::string opField_;
  std::vector<std::string> ops_;
  std::string load_;
  std::string drive_;
};

}  // namespace

std::unique_ptr<Element> makeAlu(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                                 icl::DiagnosticList& diags) {
  const int a = busParam(decl, chip, "a", 0, diags);
  const int b = busParam(decl, chip, "b", chip.buses.size() > 1 ? 1 : 0, diags);
  const int out = busParam(decl, chip, "out", 0, diags);
  const icl::ParamValue* opf = decl.param("op");
  std::string opField = "?";
  if (opf == nullptr || !opf->isName()) {
    diags.error(decl.loc, "alu '" + decl.name + "': missing 'op' field parameter");
  } else {
    opField = opf->asText();
    if (chip.microcode.field(opField) == nullptr) {
      diags.error(decl.loc, "alu '" + decl.name + "': unknown microcode field '" + opField + "'");
    }
  }
  std::vector<std::string> ops;
  if (const icl::ParamValue* list = decl.param("ops"); list != nullptr && list->isList()) {
    for (const icl::ParamValue& v : list->asList()) {
      const std::string& op = v.asText();
      if (std::find(supportedOps().begin(), supportedOps().end(), op) ==
          supportedOps().end()) {
        diags.error(decl.loc, "alu '" + decl.name + "': unsupported op '" + op + "'");
        continue;
      }
      ops.push_back(op);
    }
  }
  if (ops.empty()) ops = {"add", "and", "or", "passa"};
  const icl::FieldDecl* f = chip.microcode.field(opField);
  if (f != nullptr && (1ll << f->bits()) < static_cast<long long>(ops.size())) {
    diags.error(decl.loc, "alu '" + decl.name + "': op field '" + opField + "' has only " +
                              std::to_string(f->bits()) + " bits for " +
                              std::to_string(ops.size()) + " ops");
  }
  std::string load = decodeParam(decl, "load", chip, true, diags);
  std::string drive = decodeParam(decl, "drive", chip, true, diags);
  return std::make_unique<AluElement>(decl.name, a, b, out, std::move(opField), std::move(ops),
                                      std::move(load), std::move(drive));
}

}  // namespace bb::elements
