/// \file constant.cpp
/// The constant element — a "smart cell" in the paper's sense: it
/// computes its own layout from its value. Bits that are 1 need no
/// silicon at all (the precharged bus already reads high); bits that are
/// 0 get a gated pull-down chain. A constant of all-ones is two spacer
/// columns wide and draws no power.

#include "elements/generators.hpp"
#include "elements/slicekit.hpp"

namespace bb::elements {

namespace {

class ConstantElement final : public Element {
 public:
  ConstantElement(std::string name, int bus, unsigned long long value, std::string driveDecode)
      : Element(std::move(name)), bus_(bus), value_(value), drive_(std::move(driveDecode)) {}

  [[nodiscard]] std::string_view kind() const noexcept override { return "constant"; }

  GeneratedElement generate(const ElementContext& ctx) override {
    GeneratedElement ge;
    std::vector<cell::Cell*> slices;
    geom::Coord ctlX = lam(8);
    for (int i = 0; i < ctx.dataWidth; ++i) {
      SliceBuilder sb(*ctx.lib, name() + ".slice" + std::to_string(i), naturalPitch(ctx));
      if (((value_ >> i) & 1) == 0) {
        const int u = sb.addBusTap(bus_ == 0 ? BusTrack::A : BusTrack::B);
        sb.addPullVdd();
        ctlX = sb.controlX(u);
      } else {
        // A 1 bit: the precharged bus already carries it. The control
        // poly still runs through so the column is uniform.
        const int u = sb.addPass();
        sb.addSpacer(false, false);
        ctlX = sb.controlX(u);
      }
      slices.push_back(fitSlice(ctx, sb.finish()));
    }
    ge.column = stackSlices(*ctx.lib, name(), slices);
    ge.column->setDoc(describe(ctx));
    ge.usesBus[bus_] = true;
    ge.controls = {ControlLine{name() + ".dr", drive_, 1, ctlX}};
    ge.column->addBristle(cell::Bristle{ge.controls[0].name, cell::BristleFlavor::Control,
                                        cell::Side::North, {ctlX, ge.column->height()},
                                        tech::Layer::Poly, lam(2), drive_, 1,
                                        ge.controls[0].name});
    ge.power_ua = ge.column->powerDemand();
    return ge;
  }

  void emitLogic(netlist::LogicModel& lm, const ElementContext& ctx) const override {
    const int dr = lm.signal(name() + ".dr");
    const std::string zero = name() + ".zero";
    for (int i = 0; i < ctx.dataWidth; ++i) {
      if (((value_ >> i) & 1) != 0) continue;
      const int out = lm.signal(ctx.busPrefix[bus_], i);
      lm.markBus(out);
      lm.add(netlist::GateKind::PullDown, {dr}, out, zero);
    }
  }

  [[nodiscard]] std::string describe(const ElementContext& ctx) const override {
    return "constant '" + name() + "': drives " + std::to_string(value_) + " (" +
           std::to_string(ctx.dataWidth) + "-bit) when [" + drive_ + "]";
  }

 private:
  int bus_;
  unsigned long long value_;
  std::string drive_;
};

class BusStopElement final : public Element {
 public:
  BusStopElement(std::string name, int bus) : Element(std::move(name)), bus_(bus) {}

  [[nodiscard]] std::string_view kind() const noexcept override { return "busstop"; }

  GeneratedElement generate(const ElementContext& ctx) override {
    SliceBuilder sb(*ctx.lib, name() + ".slice", naturalPitch(ctx));
    sb.addSpacer(false, false);
    cell::Cell* slice = sb.finish(/*drawBusA=*/bus_ != 0, /*drawBusB=*/bus_ != 1);
    slice->setDoc("bus stop: the bus track is interrupted here");
    slice = fitSlice(ctx, slice);

    GeneratedElement ge;
    std::vector<cell::Cell*> slices(static_cast<std::size_t>(ctx.dataWidth), slice);
    ge.column = stackSlices(*ctx.lib, name(), slices);
    ge.column->setDoc(describe(ctx));
    ge.stopsBus[bus_] = true;
    ge.power_ua = 0;
    return ge;
  }

  void emitLogic(netlist::LogicModel&, const ElementContext&) const override {
    // Purely structural: the compiler splits the bus signal prefix here.
  }

  [[nodiscard]] std::string describe(const ElementContext&) const override {
    return "bus stop '" + name() + "': ends bus " + std::to_string(bus_) +
           "'s segment; a fresh segment (with its own precharge) serves the rest of the core";
  }

 private:
  int bus_;
};

}  // namespace

std::unique_ptr<Element> makeConstant(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                                      icl::DiagnosticList& diags) {
  const int bus = busParam(decl, chip, "bus", 0, diags);
  const long long value = intParam(decl, "value", 0, 0, (1ll << 62), diags);
  std::string drive = decodeParam(decl, "drive", chip, true, diags);
  if (chip.dataWidth < 64 && value >= (1ll << chip.dataWidth)) {
    diags.warning(decl.loc, "constant '" + decl.name + "': value " + std::to_string(value) +
                                " truncated to " + std::to_string(chip.dataWidth) + " bits");
  }
  return std::make_unique<ConstantElement>(decl.name, bus,
                                           static_cast<unsigned long long>(value),
                                           std::move(drive));
}

std::unique_ptr<Element> makeBusStop(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                                     icl::DiagnosticList& diags) {
  const int bus = busParam(decl, chip, "bus", 0, diags);
  return std::make_unique<BusStopElement>(decl.name, bus);
}

}  // namespace bb::elements
