/// \file register.cpp
/// The register element: a master/slave dynamic register bit per slice.
///
/// Data path per bit (six kit units):
///   busIn --pass(load)--> M (gate storage) --inv--> Mb --metal-->
///   rail --pass(phi2)--> S (gate storage) --gates--> pull-down chain
///   driven onto busOut through pass(drive).
/// M holds the loaded value; S = not M after phi2; driving pulls the
/// precharged bus low exactly when the stored bit is 0.

#include "elements/generators.hpp"
#include "elements/slicekit.hpp"

namespace bb::elements {

namespace {

class RegisterElement final : public Element {
 public:
  RegisterElement(std::string name, int busIn, int busOut, std::string loadDecode,
                  std::string driveDecode)
      : Element(std::move(name)),
        busIn_(busIn),
        busOut_(busOut),
        load_(std::move(loadDecode)),
        drive_(std::move(driveDecode)) {}

  [[nodiscard]] std::string_view kind() const noexcept override { return "register"; }

  GeneratedElement generate(const ElementContext& ctx) override {
    SliceBuilder sb(*ctx.lib, name() + ".slice", naturalPitch(ctx));
    const int uLoad = sb.addBusTap(busIn_ == 0 ? BusTrack::A : BusTrack::B);
    sb.addInv(/*railInput=*/true, /*outEast=*/true);
    sb.addM2D();
    const int uPh2 = sb.addPass();
    sb.addRailGate();
    const int uDrive = sb.addBusTap(busOut_ == 0 ? BusTrack::A : BusTrack::B,
                                    /*flip=*/true, /*highRail=*/true);
    cell::Cell* slice = sb.finish();
    slice->setDoc("register bit slice (master/slave dynamic storage)");
    slice = fitSlice(ctx, slice);

    GeneratedElement ge;
    std::vector<cell::Cell*> slices(static_cast<std::size_t>(ctx.dataWidth), slice);
    ge.column = stackSlices(*ctx.lib, name(), slices);
    ge.column->setDoc(describe(ctx));
    ge.usesBus[busIn_] = true;
    ge.usesBus[busOut_] = true;
    ge.controls = {
        ControlLine{name() + ".ld", load_, 1, sb.controlX(uLoad)},
        ControlLine{name() + ".ph2", "1", 2, sb.controlX(uPh2)},
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
    const std::string& n = name();
    const int ld = lm.signal(n + ".ld");
    const int ph2 = lm.signal(n + ".ph2");
    const int dr = lm.signal(n + ".dr");
    const std::string mStem = n + ".m", mbStem = n + ".mb", sStem = n + ".s";
    const std::string master = n + ".master", slave = n + ".slave", drive = n + ".drive";
    for (int i = 0; i < ctx.dataWidth; ++i) {
      const int in = lm.signal(ctx.busPrefix[busIn_], i);
      const int out = lm.signal(ctx.busPrefix[busOut_], i);
      lm.markBus(in);
      lm.markBus(out);
      const int m = lm.signal(mStem, i);
      const int mb = lm.signal(mbStem, i);
      const int s = lm.signal(sStem, i);
      lm.add(netlist::GateKind::Latch, {in, ld}, m, master);
      lm.add(netlist::GateKind::Inv, {m}, mb);
      lm.add(netlist::GateKind::Latch, {mb, ph2}, s, slave);
      lm.add(netlist::GateKind::PullDown, {dr, s}, out, drive);
    }
  }

  [[nodiscard]] std::string describe(const ElementContext& ctx) const override {
    return "register '" + name() + "': " + std::to_string(ctx.dataWidth) +
           "-bit dynamic register; load (phi1) when [" + load_ + "], drive (phi1) when [" +
           drive_ + "]";
  }

 private:
  int busIn_;
  int busOut_;
  std::string load_;
  std::string drive_;
};

}  // namespace

std::unique_ptr<Element> makeRegister(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                                      icl::DiagnosticList& diags) {
  const int in = busParam(decl, chip, "in", 0, diags);
  const int out = busParam(decl, chip, "out", chip.buses.size() > 1 ? 1 : 0, diags);
  std::string load = decodeParam(decl, "load", chip, true, diags);
  std::string drive = decodeParam(decl, "drive", chip, true, diags);
  return std::make_unique<RegisterElement>(decl.name, in, out, std::move(load),
                                           std::move(drive));
}

}  // namespace bb::elements
