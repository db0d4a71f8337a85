#include "elements/pads.hpp"

#include "elements/slicekit.hpp"

namespace bb::elements {

namespace {

std::string_view padKindName(PadKind k) noexcept {
  switch (k) {
    case PadKind::In: return "pad_in";
    case PadKind::Out: return "pad_out";
    case PadKind::Bidir: return "pad_bidir";
    case PadKind::Vdd: return "pad_vdd";
    case PadKind::Gnd: return "pad_gnd";
    case PadKind::Clock: return "pad_clock";
  }
  return "pad";
}

geom::Coord padPinWidth() noexcept { return lam(4); }

}  // namespace

PadKind padKindForFlavor(cell::BristleFlavor f) noexcept {
  switch (f) {
    case cell::BristleFlavor::PadIn: return PadKind::In;
    case cell::BristleFlavor::PadOut: return PadKind::Out;
    case cell::BristleFlavor::PadBidir: return PadKind::Bidir;
    case cell::BristleFlavor::PadVdd: return PadKind::Vdd;
    case cell::BristleFlavor::PadGnd: return PadKind::Gnd;
    case cell::BristleFlavor::PadClock: return PadKind::Clock;
    case cell::BristleFlavor::Microcode: return PadKind::In;
    case cell::BristleFlavor::Probe: return PadKind::Out;
    default: return PadKind::In;
  }
}

geom::Coord padSize() noexcept { return lam(60); }

cell::Cell* padCell(cell::CellLibrary& lib, PadKind k) {
  const std::string name = std::string(padKindName(k));
  if (const cell::Cell* existing = lib.find(name)) {
    return const_cast<cell::Cell*>(existing);  // library cells are shared
  }
  cell::Cell* c = lib.create(name);
  using geom::Rect;
  using tech::Layer;
  const geom::Coord s = padSize();
  // Bonding square: full metal with an overglass opening inset 8L.
  c->addRect(Layer::Metal, Rect{0, 0, s, s - lam(14)});
  c->addRect(Layer::Glass, Rect{lam(8), lam(8), s - lam(8), s - lam(22)});
  // Driver strip between bond area and pin (stylized input-protection /
  // driver region: poly resistor for inputs, wide diff pull for outputs).
  if (k == PadKind::In || k == PadKind::Clock || k == PadKind::Bidir) {
    c->addRect(Layer::Poly, Rect{s / 2 - lam(1), s - lam(14), s / 2 + lam(1), s});
    c->setOwnPower(0.0);
  } else if (k == PadKind::Out) {
    c->addRect(Layer::Poly, Rect{s / 2 - lam(1), s - lam(14), s / 2 + lam(1), s});
    c->setOwnPower(tech::electrical().pullup_current_ua * 4);  // big driver
  } else {
    // Supply pads: metal strap to the pin.
    c->addRect(Layer::Metal, Rect{s / 2 - lam(2), s - lam(15), s / 2 + lam(2), s});
  }
  cell::Bristle pin;
  pin.name = "pin";
  pin.flavor = cell::BristleFlavor::Control;  // generic attachment point
  pin.side = cell::Side::North;
  pin.pos = {s / 2, s};
  pin.layer = (k == PadKind::Vdd || k == PadKind::Gnd) ? Layer::Metal : Layer::Poly;
  pin.width = padPinWidth();
  c->addBristle(std::move(pin));
  c->setBoundary(Rect{0, 0, s, s});
  c->setDoc(std::string(padKindName(k)) + " cell");
  return c;
}

void emitPadLogic(netlist::LogicModel& lm, PadKind k, const std::string& padName,
                  const std::string& net) {
  const std::string ext = "pad." + padName;
  switch (k) {
    case PadKind::In: {
      // External value in, inverted onto the requesting lane (ports expect
      // the inverted polarity; see ports.cpp).
      const int lane = lm.signal(net);
      lm.add(netlist::GateKind::Inv, {lm.signal(ext)}, lane, padName);
      break;
    }
    case PadKind::Out: {
      const int pad = lm.signal(ext);
      lm.add(netlist::GateKind::Inv, {lm.signal(net)}, pad, padName);
      break;
    }
    case PadKind::Bidir: {
      const int pad = lm.signal(ext);
      lm.add(netlist::GateKind::Buf, {lm.signal(net)}, pad, padName);
      break;
    }
    case PadKind::Clock:
      // Clocks are primary inputs driven by the testbench directly.
      break;
    case PadKind::Vdd:
    case PadKind::Gnd:
      break;
  }
}

}  // namespace bb::elements
