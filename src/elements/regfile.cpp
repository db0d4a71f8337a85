/// \file regfile.cpp
/// The register-file (memory) element: n register rows sharing the buses.
/// Row selection happens in the instruction decoder — each row's load and
/// drive control lines carry a decode function conjoined with
/// `select == row`, so no address logic exists in the core at all (the
/// decoder PLA absorbs it; this is the Bristle Blocks way).

#include "elements/generators.hpp"
#include "elements/slicekit.hpp"

namespace bb::elements {

namespace {

class RegfileElement final : public Element {
 public:
  RegfileElement(std::string name, int n, std::string selectField, int busIn, int busOut,
                 std::string readDecode, std::string writeDecode)
      : Element(std::move(name)),
        n_(n),
        select_(std::move(selectField)),
        busIn_(busIn),
        busOut_(busOut),
        read_(std::move(readDecode)),
        write_(std::move(writeDecode)) {}

  [[nodiscard]] std::string_view kind() const noexcept override { return "regfile"; }

  [[nodiscard]] std::string rowLoadDecode(int r) const {
    return "(" + write_ + ") & " + select_ + "==" + std::to_string(r);
  }
  [[nodiscard]] std::string rowDriveDecode(int r) const {
    return "(" + read_ + ") & " + select_ + "==" + std::to_string(r);
  }

  GeneratedElement generate(const ElementContext& ctx) override {
    SliceBuilder sb(*ctx.lib, name() + ".slice", naturalPitch(ctx));
    GeneratedElement ge;
    for (int r = 0; r < n_; ++r) {
      const std::string rn = name() + ".r" + std::to_string(r);
      const int uLoad = sb.addBusTap(busIn_ == 0 ? BusTrack::A : BusTrack::B);
      sb.addInv(true, true);
      sb.addM2D();
      const int uPh2 = sb.addPass();
      sb.addRailGate();
      const int uDrive = sb.addBusTap(busOut_ == 0 ? BusTrack::A : BusTrack::B, true, true);
      ge.controls.push_back(ControlLine{rn + ".ld", rowLoadDecode(r), 1, sb.controlX(uLoad)});
      ge.controls.push_back(ControlLine{rn + ".ph2", "1", 2, sb.controlX(uPh2)});
      ge.controls.push_back(ControlLine{rn + ".dr", rowDriveDecode(r), 1, sb.controlX(uDrive)});
    }
    cell::Cell* slice = sb.finish();
    slice->setDoc("register-file bit slice: " + std::to_string(n_) + " storage rows");
    slice = fitSlice(ctx, slice);

    std::vector<cell::Cell*> slices(static_cast<std::size_t>(ctx.dataWidth), slice);
    ge.column = stackSlices(*ctx.lib, name(), slices);
    ge.column->setDoc(describe(ctx));
    ge.usesBus[busIn_] = true;
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
    for (int r = 0; r < n_; ++r) {
      const std::string rn = name() + ".r" + std::to_string(r);
      const int ld = lm.signal(rn + ".ld");
      const int ph2 = lm.signal(rn + ".ph2");
      const int dr = lm.signal(rn + ".dr");
      const std::string mStem = rn + ".m", mbStem = rn + ".mb", sStem = rn + ".s";
      const std::string master = rn + ".master", slave = rn + ".slave", drive = rn + ".drive";
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
  }

  [[nodiscard]] std::string describe(const ElementContext& ctx) const override {
    return "register file '" + name() + "': " + std::to_string(n_) + " x " +
           std::to_string(ctx.dataWidth) + " bits, selected by field '" + select_ +
           "'; write when [" + write_ + "], read when [" + read_ + "]";
  }

 private:
  int n_;
  std::string select_;
  int busIn_;
  int busOut_;
  std::string read_;
  std::string write_;
};

}  // namespace

std::unique_ptr<Element> makeRegfile(const icl::ElementDecl& decl, const icl::ChipDesc& chip,
                                     icl::DiagnosticList& diags) {
  const long long n = intParam(decl, "n", 4, 1, 64, diags);
  const icl::ParamValue* sel = decl.param("select");
  const bool hasSelect = sel != nullptr && sel->isName();
  std::string selName = hasSelect ? sel->asText() : std::string("?");
  if (!hasSelect) {
    diags.error(decl.loc, "regfile '" + decl.name + "': missing 'select' field parameter");
  } else {
    const icl::FieldDecl* f = chip.microcode.field(selName);
    if (f == nullptr) {
      diags.error(decl.loc, "regfile '" + decl.name + "': unknown microcode field '" + selName +
                                "'");
    } else if ((1ll << f->bits()) < n) {
      diags.error(decl.loc, "regfile '" + decl.name + "': field '" + selName + "' has only " +
                                std::to_string(f->bits()) + " bits for " + std::to_string(n) +
                                " rows");
    }
  }
  const int in = busParam(decl, chip, "in", 0, diags);
  const int out = busParam(decl, chip, "out", chip.buses.size() > 1 ? 1 : 0, diags);
  std::string rd = decodeParam(decl, "read", chip, true, diags);
  std::string wr = decodeParam(decl, "write", chip, true, diags);
  return std::make_unique<RegfileElement>(decl.name, static_cast<int>(n), std::move(selName),
                                          in, out, std::move(rd), std::move(wr));
}

}  // namespace bb::elements
