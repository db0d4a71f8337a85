/// \file ports.cpp
/// I/O port elements — the cells that "require an input from a pad" and
/// therefore carry pad-request bristles. The local data (where the pad
/// connects, what kind) lives here; everything global (pad placement,
/// routing) is decided by Pass 3.
///
/// Pad signals travel vertically on poly lanes; lane i terminates at bit
/// slice i, and lane x positions grow with the bit index so no slice's
/// stub ever crosses a foreign lane (see slicekit.hpp).

#include "elements/generators.hpp"
#include "elements/slicekit.hpp"

namespace bb::elements {

namespace {

class InPortElement final : public Element {
 public:
  InPortElement(std::string name, int bus, std::string driveDecode)
      : Element(std::move(name)), bus_(bus), drive_(std::move(driveDecode)) {}

  [[nodiscard]] std::string_view kind() const noexcept override { return "inport"; }

  GeneratedElement generate(const ElementContext& ctx) override {
    GeneratedElement ge;
    std::vector<cell::Cell*> slices;
    geom::Coord ctlX = 0;
    for (int i = 0; i < ctx.dataWidth; ++i) {
      SliceBuilder sb(*ctx.lib, name() + ".slice" + std::to_string(i), naturalPitch(ctx));
      const int uDrive = sb.addBusTap(bus_ == 0 ? BusTrack::A : BusTrack::B);
      sb.addPullStub();
      for (int j = 0; j < i; ++j) sb.addSpacer(/*carryStub=*/true, /*carryRail=*/false);
      sb.addLane(0, lam(33), /*stubWest=*/true);  // own lane, from the south
      for (int j = i + 1; j < ctx.dataWidth; ++j) {
        sb.addLane(0, naturalPitch(ctx), false);  // feedthrough of higher lanes
      }
      ctlX = sb.controlX(uDrive);
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
    // One pad request per bit, on the south edge at the lane position.
    for (int i = 0; i < ctx.dataWidth; ++i) {
      const geom::Coord laneX = (2 + static_cast<geom::Coord>(i)) * contract().unitW + lam(8);
      cell::Bristle b;
      b.name = name() + ".pad" + std::to_string(i);
      b.flavor = cell::BristleFlavor::PadIn;
      b.side = cell::Side::South;
      b.pos = {laneX, 0};
      b.layer = tech::Layer::Poly;
      b.width = lam(2);
      b.net = name() + ".padbar" + std::to_string(i);
      ge.column->addBristle(std::move(b));
    }
    ge.power_ua = ge.column->powerDemand();
    return ge;
  }

  void emitLogic(netlist::LogicModel& lm, const ElementContext& ctx) const override {
    const int dr = lm.signal(name() + ".dr");
    const std::string padbarStem = name() + ".padbar", drive = name() + ".drive";
    for (int i = 0; i < ctx.dataWidth; ++i) {
      const int out = lm.signal(ctx.busPrefix[bus_], i);
      lm.markBus(out);
      const int padbar = lm.signal(padbarStem, i);
      lm.add(netlist::GateKind::PullDown, {dr, padbar}, out, drive);
    }
  }

  [[nodiscard]] std::string describe(const ElementContext& ctx) const override {
    return "input port '" + name() + "': " + std::to_string(ctx.dataWidth) +
           " pads drive the bus (phi1) when [" + drive_ + "]";
  }

 private:
  int bus_;
  std::string drive_;
};

class OutPortElement final : public Element {
 public:
  OutPortElement(std::string name, int bus, std::string sampleDecode)
      : Element(std::move(name)), bus_(bus), sample_(std::move(sampleDecode)) {}

  [[nodiscard]] std::string_view kind() const noexcept override { return "outport"; }

  GeneratedElement generate(const ElementContext& ctx) override {
    GeneratedElement ge;
    std::vector<cell::Cell*> slices;
    geom::Coord ctlX = 0;
    for (int i = 0; i < ctx.dataWidth; ++i) {
      SliceBuilder sb(*ctx.lib, name() + ".slice" + std::to_string(i), naturalPitch(ctx));
      const int uS = sb.addBusTap(bus_ == 0 ? BusTrack::A : BusTrack::B);
      sb.addInv(true, true);
      sb.addM2P();
      for (int j = 0; j < i; ++j) sb.addSpacer(true, false);
      sb.addLane(0, lam(33), true);
      for (int j = i + 1; j < ctx.dataWidth; ++j) sb.addLane(0, naturalPitch(ctx), false);
      ctlX = sb.controlX(uS);
      slices.push_back(fitSlice(ctx, sb.finish()));
    }
    ge.column = stackSlices(*ctx.lib, name(), slices);
    ge.column->setDoc(describe(ctx));
    ge.usesBus[bus_] = true;
    ge.controls = {ControlLine{name() + ".smp", sample_, 1, ctlX}};
    ge.column->addBristle(cell::Bristle{ge.controls[0].name, cell::BristleFlavor::Control,
                                        cell::Side::North, {ctlX, ge.column->height()},
                                        tech::Layer::Poly, lam(2), sample_, 1,
                                        ge.controls[0].name});
    for (int i = 0; i < ctx.dataWidth; ++i) {
      const geom::Coord laneX = (3 + static_cast<geom::Coord>(i)) * contract().unitW + lam(8);
      cell::Bristle b;
      b.name = name() + ".pad" + std::to_string(i);
      b.flavor = cell::BristleFlavor::PadOut;
      b.side = cell::Side::South;
      b.pos = {laneX, 0};
      b.layer = tech::Layer::Poly;
      b.width = lam(2);
      b.net = name() + ".sb" + std::to_string(i);
      ge.column->addBristle(std::move(b));
    }
    ge.power_ua = ge.column->powerDemand();
    return ge;
  }

  void emitLogic(netlist::LogicModel& lm, const ElementContext& ctx) const override {
    const int smp = lm.signal(name() + ".smp");
    const std::string sStem = name() + ".s", sbStem = name() + ".sb";
    const std::string sample = name() + ".sample";
    for (int i = 0; i < ctx.dataWidth; ++i) {
      const int in = lm.signal(ctx.busPrefix[bus_], i);
      lm.markBus(in);
      const int s = lm.signal(sStem, i);
      const int sb = lm.signal(sbStem, i);
      lm.add(netlist::GateKind::Latch, {in, smp}, s, sample);
      lm.add(netlist::GateKind::Inv, {s}, sb);
    }
  }

  [[nodiscard]] std::string describe(const ElementContext& ctx) const override {
    return "output port '" + name() + "': " + std::to_string(ctx.dataWidth) +
           " pads sample the bus (phi1) when [" + sample_ + "]";
  }

 private:
  int bus_;
  std::string sample_;
};

class ProbeElement final : public Element {
 public:
  ProbeElement(std::string name, int bus, int bit)
      : Element(std::move(name)), bus_(bus), bit_(bit) {}

  [[nodiscard]] std::string_view kind() const noexcept override { return "probe"; }

  GeneratedElement generate(const ElementContext& ctx) override {
    GeneratedElement ge;
    std::vector<cell::Cell*> slices;
    geom::Coord ctlX = lam(8);
    for (int i = 0; i < ctx.dataWidth; ++i) {
      SliceBuilder sb(*ctx.lib, name() + ".slice" + std::to_string(i), naturalPitch(ctx));
      if (i == bit_) {
        const int uS = sb.addBusTap(bus_ == 0 ? BusTrack::A : BusTrack::B);
        sb.addInv(true, true);
        sb.addM2P();
        sb.addLane(lam(31), naturalPitch(ctx), true);  // lane exits north
        ctlX = sb.controlX(uS);
      } else {
        sb.addSpacer(false, false);
        sb.addSpacer(false, false);
        sb.addSpacer(false, false);
        if (i > bit_) {
          sb.addLane(0, naturalPitch(ctx), false);
        } else {
          sb.addSpacer(false, false);
        }
      }
      slices.push_back(fitSlice(ctx, sb.finish()));
    }
    ge.column = stackSlices(*ctx.lib, name(), slices);
    ge.column->setDoc(describe(ctx));
    ge.usesBus[bus_] = true;
    ge.controls = {ControlLine{name() + ".smp", "1", 1, ctlX}};
    ge.column->addBristle(cell::Bristle{ge.controls[0].name, cell::BristleFlavor::Control,
                                        cell::Side::North, {ctlX, ge.column->height()},
                                        tech::Layer::Poly, lam(2), "1", 1,
                                        ge.controls[0].name});
    cell::Bristle b;
    b.name = name() + ".pad";
    b.flavor = cell::BristleFlavor::Probe;
    b.side = cell::Side::North;
    b.pos = {3 * contract().unitW + lam(8), ge.column->height()};
    b.layer = tech::Layer::Poly;
    b.width = lam(2);
    b.net = name() + ".sb";
    ge.column->addBristle(std::move(b));
    ge.power_ua = ge.column->powerDemand();
    return ge;
  }

  void emitLogic(netlist::LogicModel& lm, const ElementContext& ctx) const override {
    const int smp = lm.signal(name() + ".smp");
    const int in = lm.signal(ctx.busPrefix[bus_], bit_);
    lm.markBus(in);
    const int s = lm.signal(name() + ".s");
    const int sb = lm.signal(name() + ".sb");
    lm.add(netlist::GateKind::Latch, {in, smp}, s, name() + ".sample");
    lm.add(netlist::GateKind::Inv, {s}, sb);
  }

  [[nodiscard]] std::string describe(const ElementContext&) const override {
    return "probe '" + name() + "': routes bus bit " + std::to_string(bit_) +
           " to a pad (prototype observation point)";
  }

 private:
  int bus_;
  int bit_;
};

}  // namespace

std::unique_ptr<Element> makeInPort(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                                    icl::DiagnosticList& diags) {
  const int bus = busParam(decl, chip, "bus", 0, diags);
  std::string drive = decodeParam(decl, "drive", chip, true, diags);
  return std::make_unique<InPortElement>(decl.name, bus, std::move(drive));
}

std::unique_ptr<Element> makeOutPort(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                                     icl::DiagnosticList& diags) {
  const int bus = busParam(decl, chip, "bus", 0, diags);
  std::string sample = decodeParam(decl, "sample", chip, true, diags);
  return std::make_unique<OutPortElement>(decl.name, bus, std::move(sample));
}

std::unique_ptr<Element> makeProbe(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                                   icl::DiagnosticList& diags) {
  const int bus = busParam(decl, chip, "bus", 0, diags);
  const long long bit = intParam(decl, "bit", 0, 0, 63, diags);
  if (bit >= chip.dataWidth) {
    diags.error(decl.loc, "probe '" + decl.name + "': bit " + std::to_string(bit) +
                              " exceeds data width " + std::to_string(chip.dataWidth));
  }
  return std::make_unique<ProbeElement>(decl.name, bus, static_cast<int>(bit));
}

}  // namespace bb::elements
