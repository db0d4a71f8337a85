#include "core/pass2_control.hpp"

#include "elements/control_buffer.hpp"
#include "elements/slicekit.hpp"

#include <algorithm>

namespace bb::core {

namespace {

using elements::lam;
using geom::Coord;
using geom::Point;
using geom::Rect;
using tech::Layer;

/// Interpreter for the silicon-code tape: renders the PLA mask geometry.
/// Plane organization (west to east): GND trunk column, Vdd/load column,
/// AND-plane input column pairs (true, complement per microcode bit),
/// metal-to-poly boundary column (terms continue east as poly), OR-plane
/// control columns. Term rows stack north of the input-inverter row.
class PlaRenderer {
 public:
  PlaRenderer(cell::Cell& c, int inputs, int outputs, int terms)
      : c_(c), inputs_(inputs), outputs_(outputs), terms_(terms) {
    const PlaGeometry& g = plaGeometry();
    andX0_ = 2 * g.colW;                                  // after trunk + load col
    boundX0_ = andX0_ + static_cast<Coord>(2 * inputs_) * g.colW;
    orX0_ = boundX0_ + g.colW;
    width_ = orX0_ + static_cast<Coord>(outputs_) * g.colW + g.colW;  // + GND col (east)
    rowsY0_ = g.rowH;  // input inverter row sits below the term rows
    // +1 row at the top for the output pull-up loads, clear of the
    // upper term row's OR-plane crosspoints.
    height_ = rowsY0_ + static_cast<Coord>(std::max(terms_, 1) + 1) * g.rowH;
  }

  [[nodiscard]] Coord width() const noexcept { return width_; }
  [[nodiscard]] Coord height() const noexcept { return height_; }
  [[nodiscard]] Coord outputX(int o) const noexcept {
    return orX0_ + static_cast<Coord>(o) * plaGeometry().colW + lam(2) + lam(1);  // line center-ish
  }
  [[nodiscard]] Coord inputPadX(int bit) const noexcept {
    return andX0_ + static_cast<Coord>(2 * bit) * plaGeometry().colW + lam(7);
  }

  void drawFrame() {
    const PlaGeometry& g = plaGeometry();
    // Vertical Vdd trunk in the load column (x [0,4]L of that column).
    c_.addRect(Layer::Metal, Rect{g.colW + lam(0), 0, g.colW + lam(4), height_});
    // Vertical GND trunk in the far-west column.
    c_.addRect(Layer::Metal, Rect{lam(5), 0, lam(9), height_});
    // East GND trunk for the OR plane.
    c_.addRect(Layer::Metal, Rect{width_ - g.colW + lam(6), 0, width_ - g.colW + lam(10),
                                  height_});
    // Per term row: GND rail (metal) from west trunk through the AND
    // plane, and the term metal line from the load column to the
    // boundary column.
    for (int t = 0; t < terms_; ++t) {
      const Coord y = rowY(t);
      c_.addRect(Layer::Metal, Rect{lam(5), y, boundX0_, y + lam(4)});
      c_.addRect(Layer::Metal, Rect{g.colW + lam(8), y + lam(13), boundX0_ + lam(1),
                                    y + lam(16)});
      drawTermLoad(t);
      drawBoundary(t);
      // OR-plane GND diffusion rail to the east trunk, with a contact.
      const Coord ex = width_ - g.colW;
      c_.addRect(Layer::Diffusion, Rect{orX0_, y + lam(1), ex + lam(2), y + lam(3)});
      c_.addRect(Layer::Diffusion, Rect{ex, y, ex + lam(4), y + lam(4)});
      c_.addRect(Layer::Contact, Rect{ex + lam(1), y + lam(1), ex + lam(3), y + lam(3)});
      c_.addRect(Layer::Metal, Rect{ex, y, ex + lam(10), y + lam(4)});
    }
  }

  void drawInputCol(int bit) {
    // True and complement poly columns through the whole AND plane, plus
    // a stylized inverter in the input row producing the complement.
    const Coord xt = inputColX(bit, false) + lam(6);
    const Coord xc = inputColX(bit, true) + lam(6);
    c_.addRect(Layer::Poly, Rect{xt, 0, xt + lam(2), height_});
    c_.addRect(Layer::Poly, Rect{xc, lam(4), xc + lam(2), height_});
    // Inverter row stand-in: depletion load block between the columns.
    const Coord y = lam(6);
    c_.addRect(Layer::Diffusion, Rect{xt + lam(4), y, xc - lam(2), y + lam(2)});
    c_.addRect(Layer::Implant, Rect{xt + lam(3), y - lam(1), xc - lam(1), y + lam(3)});
  }

  void drawCrossAnd(int term, int bit, int value) {
    // Transistor pulling the term line low, gated by the column that is
    // HIGH exactly when the input disqualifies the term: wanting value 1
    // places the device on the complement column, wanting 0 on the true
    // column.
    const Coord cx = inputColX(bit, value == 1);
    const Coord y = rowY(term);
    c_.addRect(Layer::Diffusion, Rect{cx + lam(2), y + lam(2), cx + lam(4), y + lam(16)});
    c_.addRect(Layer::Diffusion, Rect{cx + lam(1), y, cx + lam(5), y + lam(4)});
    c_.addRect(Layer::Contact, Rect{cx + lam(2), y + lam(1), cx + lam(4), y + lam(3)});
    c_.addRect(Layer::Metal, Rect{cx + lam(1), y + lam(12), cx + lam(5), y + lam(17)});
    c_.addRect(Layer::Contact, Rect{cx + lam(2), y + lam(13), cx + lam(4), y + lam(15)});
    c_.addRect(Layer::Diffusion, Rect{cx + lam(1), y + lam(12), cx + lam(5), y + lam(16)});
    c_.addRect(Layer::Poly, Rect{cx + lam(0), y + lam(7), cx + lam(10), y + lam(9)});
  }

  void drawCrossOr(int term, int out) {
    // Transistor pulling the control column low, gated by the term poly.
    const Coord cx = orX0_ + static_cast<Coord>(out) * plaGeometry().colW;
    const Coord y = rowY(term);
    c_.addRect(Layer::Diffusion, Rect{cx + lam(7), y + lam(1), cx + lam(9), y + lam(17)});
    c_.addRect(Layer::Diffusion, Rect{cx + lam(2), y + lam(17), cx + lam(9), y + lam(19)});
    c_.addRect(Layer::Diffusion, Rect{cx + lam(1), y + lam(16), cx + lam(5), y + lam(20)});
    c_.addRect(Layer::Contact, Rect{cx + lam(2), y + lam(17), cx + lam(4), y + lam(19)});
    c_.addRect(Layer::Metal, Rect{cx + lam(0), y + lam(16), cx + lam(5), y + lam(21)});
  }

  void drawOutputCol(int out) {
    // Control line: metal vertical through the OR plane, exits south.
    const Coord cx = orX0_ + static_cast<Coord>(out) * plaGeometry().colW;
    c_.addRect(Layer::Metal, Rect{cx + lam(1), 0, cx + lam(4), height_});
    // Output load in the dedicated top row (stylized dep pull-up).
    c_.addRect(Layer::Diffusion, Rect{cx + lam(1), height_ - lam(9), cx + lam(3),
                                      height_ - lam(2)});
    c_.addRect(Layer::Implant, Rect{cx + lam(0), height_ - lam(10), cx + lam(4),
                                    height_ - lam(1)});
  }

  void drawTermLoad(int term) {
    // Depletion pull-up from the term line to the Vdd trunk (load col).
    const PlaGeometry& g = plaGeometry();
    const Coord x = g.colW;  // load column west edge
    const Coord y = rowY(term);
    c_.addRect(Layer::Diffusion, Rect{x + lam(0), y + lam(12), x + lam(4), y + lam(16)});
    c_.addRect(Layer::Contact, Rect{x + lam(1), y + lam(13), x + lam(3), y + lam(15)});
    c_.addRect(Layer::Metal, Rect{x + lam(0), y + lam(12), x + lam(4), y + lam(16)});
    c_.addRect(Layer::Diffusion, Rect{x + lam(2), y + lam(13), x + lam(12), y + lam(15)});
    c_.addRect(Layer::Poly, Rect{x + lam(5), y + lam(11), x + lam(7), y + lam(17)});
    c_.addRect(Layer::Implant, Rect{x + lam(3), y + lam(10), x + lam(9), y + lam(18)});
    c_.addRect(Layer::Diffusion, Rect{x + lam(8), y + lam(12), x + lam(12), y + lam(16)});
    c_.addRect(Layer::Contact, Rect{x + lam(9), y + lam(13), x + lam(11), y + lam(15)});
    c_.addRect(Layer::Metal, Rect{x + lam(8), y + lam(12), x + lam(12), y + lam(16)});
    // Strap from the left pad to the Vdd trunk.
    c_.addRect(Layer::Metal, Rect{x + lam(0), y + lam(12), x + lam(4), y + lam(16)});
  }

  void drawBoundary(int term) {
    // Term metal -> poly conversion; the term continues east as poly.
    const Coord x = boundX0_;
    const Coord y = rowY(term);
    c_.addRect(Layer::Metal, Rect{x + lam(0), y + lam(12), x + lam(5), y + lam(17)});
    c_.addRect(Layer::Contact, Rect{x + lam(1), y + lam(13), x + lam(3), y + lam(15)});
    c_.addRect(Layer::Poly, Rect{x + lam(0), y + lam(12), x + lam(5), y + lam(17)});
    c_.addRect(Layer::Poly,
               Rect{x + lam(3), y + lam(13), width_ - plaGeometry().colW, y + lam(15)});
  }

 private:
  [[nodiscard]] Coord rowY(int t) const noexcept {
    return rowsY0_ + static_cast<Coord>(t) * plaGeometry().rowH;
  }
  [[nodiscard]] Coord inputColX(int bit, bool comp) const noexcept {
    return andX0_ + static_cast<Coord>(2 * bit + (comp ? 1 : 0)) * plaGeometry().colW;
  }

  cell::Cell& c_;
  int inputs_;
  int outputs_;
  int terms_;
  Coord andX0_ = 0, boundX0_ = 0, orX0_ = 0;
  Coord width_ = 0, height_ = 0, rowsY0_ = 0;
};

}  // namespace

const PlaGeometry& plaGeometry() noexcept {
  static const PlaGeometry g{};
  return g;
}

bool runPass2(CompiledChip& chip, const Pass2Options& opts, icl::DiagnosticList& diags) {
  // --- text array: one entry per control line, in core order ------------
  std::vector<TextArrayEntry> text;
  text.reserve(chip.controls.size());
  for (const elements::ControlLine& cl : chip.controls) {
    text.push_back(TextArrayEntry{cl.name, cl.decode, cl.phase});
  }

  // --- the two-tape machine ----------------------------------------------
  TwoTapeMachine machine(std::move(text), chip.desc.microcode);
  if (!opts.optimizeDecoder) {
    // Ablation: run the machine but skip merge passes by running on a
    // machine whose optimize step is disabled. We emulate by running
    // normally and rebuilding an unoptimized PLA below.
  }
  if (!machine.run(diags)) return false;
  chip.tapeStats = machine.stats();
  chip.pla = machine.pla();
  if (!opts.optimizeDecoder) {
    // Rebuild without sharing/merging for the ablation bench.
    Pla raw(chip.desc.microcode.width, static_cast<int>(chip.controls.size()));
    for (std::size_t i = 0; i < chip.controls.size(); ++i) {
      icl::DiagnosticList local;
      const icl::SumOfProducts sop =
          icl::compileDecode(chip.controls[i].decode, chip.desc.microcode, local);
      for (std::size_t k = 0; k < sop.cubes.size(); ++k) {
        raw.addCubePrivate(static_cast<int>(i), sop.cubes[k]);
      }
    }
    chip.pla = raw;
  }

  // --- buffer row along the core edge ------------------------------------
  elements::BufferRow row = elements::buildBufferRow(chip.lib, "buffer_row", chip.controls,
                                                     chip.stats.coreWidth);
  chip.bufferRow = row.cell;

  // --- render the decoder from the silicon-code tape ---------------------
  cell::Cell* dec = chip.lib.create("decoder");
  PlaRenderer r(*dec, chip.desc.microcode.width, static_cast<int>(chip.controls.size()),
                static_cast<int>(chip.pla.termCount()));
  r.drawFrame();
  // The tape interleaves Term/CrossAnd/TermLoad; walk it statefully.
  int term = -1;
  for (const SilInstr& in : machine.outputTape()) {
    switch (in.op) {
      case SilOp::InputCol: r.drawInputCol(in.a); break;
      case SilOp::Term: term = in.a; break;
      case SilOp::CrossAnd:
        if (term >= 0) r.drawCrossAnd(term, in.a, in.b);
        break;
      case SilOp::CrossOr: r.drawCrossOr(in.a, in.b); break;
      case SilOp::OutputCol: r.drawOutputCol(in.a); break;
      case SilOp::PadConn: {
        cell::Bristle b;
        b.name = "mc" + std::to_string(in.a);
        b.flavor = cell::BristleFlavor::Microcode;
        b.side = cell::Side::North;
        b.pos = {r.inputPadX(in.a), r.height()};
        b.layer = Layer::Poly;
        b.width = lam(2);
        b.net = b.name;
        dec->addBristle(std::move(b));
        break;
      }
      default: break;
    }
  }
  dec->setBoundary(Rect{0, 0, r.width(), r.height()});
  dec->setDoc("instruction decoder PLA: " + std::to_string(chip.pla.termCount()) + " terms x " +
              std::to_string(chip.desc.microcode.width) + " inputs -> " +
              std::to_string(chip.controls.size()) + " controls");
  chip.decoder = dec;

  // --- decoder + buffer logic --------------------------------------------
  auto& lm = chip.logic;
  std::vector<int> mcTrue, mcComp;
  for (int b = 0; b < chip.desc.microcode.width; ++b) {
    const int t = lm.signal("mc", b);
    const int c = lm.signal("mcb", b);
    lm.add(netlist::GateKind::Inv, {t}, c, "decoder input inverter");
    mcTrue.push_back(t);
    mcComp.push_back(c);
  }
  std::vector<int> termSig;
  std::vector<int> pins;
  for (std::size_t t = 0; t < chip.pla.termCount(); ++t) {
    const icl::Cube& cube = chip.pla.terms()[t];
    pins.clear();
    for (std::size_t b = 0; b < cube.bits.size(); ++b) {
      if (cube.bits[b] == 1) pins.push_back(mcTrue[b]);
      else if (cube.bits[b] == 0) pins.push_back(mcComp[b]);
    }
    const int s = lm.signal("term", static_cast<int>(t));
    if (pins.empty()) {
      lm.add(netlist::GateKind::Const1, {}, s, "tautology term");
    } else {
      lm.add(netlist::GateKind::And, pins, s, "AND-plane term");
    }
    termSig.push_back(s);
  }
  std::string decName;
  for (std::size_t o = 0; o < chip.controls.size(); ++o) {
    decName.assign("dec.").append(chip.controls[o].name);
    const int dec_o = lm.signal(decName);
    pins.clear();
    for (int t : chip.pla.outputs()[o]) pins.push_back(termSig[static_cast<std::size_t>(t)]);
    if (pins.empty()) {
      lm.add(netlist::GateKind::Const0, {}, dec_o, "never-active control");
    } else {
      lm.add(netlist::GateKind::Or, pins, dec_o, "OR-plane output");
    }
    elements::emitBufferLogic(lm, chip.controls[o], decName);
  }

  chip.stats.decoderArea =
      dec->boundary().area() + chip.bufferRow->boundary().area();
  return true;
}

}  // namespace bb::core
