/// \file shifter.cpp
/// The shifter element: loads a word from one bus and drives it shifted
/// by `dist` onto the other. Vacated positions fill with zero. The logic
/// model wires the cross-bit connections exactly; the artwork carries one
/// drive chain per slice (the diagonal interconnect of a barrel shifter
/// is approximated by the kit — see DESIGN.md).

#include "elements/generators.hpp"
#include "elements/slicekit.hpp"

namespace bb::elements {

namespace {

class ShifterElement final : public Element {
 public:
  ShifterElement(std::string name, int busIn, int busOut, int dist, bool left,
                 std::string loadDecode, std::string driveDecode)
      : Element(std::move(name)),
        busIn_(busIn),
        busOut_(busOut),
        dist_(dist),
        left_(left),
        load_(std::move(loadDecode)),
        drive_(std::move(driveDecode)) {}

  [[nodiscard]] std::string_view kind() const noexcept override { return "shifter"; }

  GeneratedElement generate(const ElementContext& ctx) override {
    SliceBuilder sb(*ctx.lib, name() + ".slice", naturalPitch(ctx));
    const int uLoad = sb.addBusTap(busIn_ == 0 ? BusTrack::A : BusTrack::B);
    sb.addInv(true, true);
    sb.addM2D();
    sb.addRailGate();
    const int uDrive = sb.addBusTap(busOut_ == 0 ? BusTrack::A : BusTrack::B, true, true);
    cell::Cell* slice = sb.finish();
    slice->setDoc("shifter bit slice");
    slice = fitSlice(ctx, slice);

    GeneratedElement ge;
    std::vector<cell::Cell*> slices(static_cast<std::size_t>(ctx.dataWidth), slice);
    ge.column = stackSlices(*ctx.lib, name(), slices);
    ge.column->setDoc(describe(ctx));
    ge.usesBus[busIn_] = true;
    ge.usesBus[busOut_] = true;
    ge.controls = {
        ControlLine{name() + ".ld", load_, 1, sb.controlX(uLoad)},
        ControlLine{name() + ".dr", drive_, 1, sb.controlX(uDrive)},
    };
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
    const int ld = lm.signal(n + ".ld");
    const int dr = lm.signal(n + ".dr");
    const std::string vStem = n + ".v", vbStem = n + ".vb";
    const std::string hold = n + ".hold", drive = n + ".drive", fill0 = n + ".fill0";
    std::vector<int> vb(static_cast<std::size_t>(ctx.dataWidth));
    for (int i = 0; i < ctx.dataWidth; ++i) {
      const int in = lm.signal(ctx.busPrefix[busIn_], i);
      lm.markBus(in);
      const int v = lm.signal(vStem, i);
      lm.add(GateKind::Latch, {in, ld}, v, hold);
      vb[static_cast<std::size_t>(i)] = lm.signal(vbStem, i);
      lm.add(GateKind::Inv, {v}, vb[static_cast<std::size_t>(i)]);
    }
    for (int j = 0; j < ctx.dataWidth; ++j) {
      const int out = lm.signal(ctx.busPrefix[busOut_], j);
      lm.markBus(out);
      const int src = left_ ? j - dist_ : j + dist_;
      if (src >= 0 && src < ctx.dataWidth) {
        lm.add(GateKind::PullDown, {dr, vb[static_cast<std::size_t>(src)]}, out, drive);
      } else {
        // Vacated bit: drive a zero.
        lm.add(GateKind::PullDown, {dr}, out, fill0);
      }
    }
  }

  [[nodiscard]] std::string describe(const ElementContext& ctx) const override {
    return "shifter '" + name() + "': " + std::to_string(ctx.dataWidth) + "-bit shift " +
           (left_ ? "left" : "right") + " by " + std::to_string(dist_) +
           "; load (phi1) when [" + load_ + "], drive (phi1) when [" + drive_ + "]";
  }

 private:
  int busIn_;
  int busOut_;
  int dist_;
  bool left_;
  std::string load_;
  std::string drive_;
};

}  // namespace

std::unique_ptr<Element> makeShifter(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                                     icl::DiagnosticList& diags) {
  const int in = busParam(decl, chip, "in", 0, diags);
  const int out = busParam(decl, chip, "out", chip.buses.size() > 1 ? 1 : 0, diags);
  const long long dist = intParam(decl, "dist", 1, 0, 63, diags);
  bool left = true;
  if (const icl::ParamValue* d = decl.param("dir"); d != nullptr) {
    if (d->asText() == "right") left = false;
    else if (d->asText() != "left") {
      diags.error(decl.loc, "shifter '" + decl.name + "': dir must be left or right");
    }
  }
  std::string load = decodeParam(decl, "load", chip, true, diags);
  std::string drive = decodeParam(decl, "drive", chip, true, diags);
  return std::make_unique<ShifterElement>(decl.name, in, out, static_cast<int>(dist), left,
                                          std::move(load), std::move(drive));
}

}  // namespace bb::elements
