#include "cell/cell.hpp"

#include "tech/rules.hpp"

#include <cassert>

namespace bb::cell {

std::string_view flavorName(BristleFlavor f) noexcept {
  switch (f) {
    case BristleFlavor::BusA: return "busA";
    case BristleFlavor::BusB: return "busB";
    case BristleFlavor::Control: return "control";
    case BristleFlavor::Power: return "power";
    case BristleFlavor::Ground: return "ground";
    case BristleFlavor::Clock1: return "phi1";
    case BristleFlavor::Clock2: return "phi2";
    case BristleFlavor::PadIn: return "pad-in";
    case BristleFlavor::PadOut: return "pad-out";
    case BristleFlavor::PadBidir: return "pad-bidir";
    case BristleFlavor::PadVdd: return "pad-vdd";
    case BristleFlavor::PadGnd: return "pad-gnd";
    case BristleFlavor::PadClock: return "pad-clock";
    case BristleFlavor::Microcode: return "microcode";
    case BristleFlavor::Probe: return "probe";
  }
  return "?";
}

bool isPadRequest(BristleFlavor f) noexcept {
  switch (f) {
    case BristleFlavor::PadIn:
    case BristleFlavor::PadOut:
    case BristleFlavor::PadBidir:
    case BristleFlavor::PadVdd:
    case BristleFlavor::PadGnd:
    case BristleFlavor::PadClock:
    case BristleFlavor::Microcode:
    case BristleFlavor::Probe:
      return true;
    default:
      return false;
  }
}

std::string_view sideName(Side s) noexcept {
  switch (s) {
    case Side::North: return "north";
    case Side::East: return "east";
    case Side::South: return "south";
    case Side::West: return "west";
  }
  return "?";
}

geom::Rect Shape::bbox() const noexcept {
  return std::visit(
      [](const auto& g) -> geom::Rect {
        using T = std::decay_t<decltype(g)>;
        if constexpr (std::is_same_v<T, geom::Rect>) {
          return g;
        } else {
          return g.bbox();
        }
      },
      geo);
}

void Cell::addContact(geom::Point c, tech::Layer lower, tech::Layer upper) {
  const auto& comp = tech::meadConwayRules().composite;
  const geom::Coord cut = comp.contactSize;
  const geom::Coord sur = comp.contactSurround;
  addRect(tech::Layer::Contact, geom::Rect::fromCenter(c, cut, cut));
  addRect(lower, geom::Rect::fromCenter(c, cut + 2 * sur, cut + 2 * sur));
  addRect(upper, geom::Rect::fromCenter(c, cut + 2 * sur, cut + 2 * sur));
}

void Cell::addInstance(const Cell* c, geom::Transform t, std::string instName) {
  assert(c != nullptr && "instance of null cell");
  assert(c != this && "self-instantiation");
  instances_.push_back(Instance{c, t, std::move(instName)});
}

void Cell::addStretch(StretchAxis axis, geom::Coord at, std::string sname) {
  stretches_.push_back(StretchLine{axis, at, std::move(sname)});
}

geom::Rect Cell::boundary() const noexcept {
  if (hasBoundary_) return boundary_;
  return shapeBBox();
}

geom::Rect Cell::shapeBBox() const noexcept {
  geom::Rect acc;
  bool first = true;
  auto grow = [&](const geom::Rect& r) {
    if (first) {
      acc = r;
      first = false;
    } else {
      acc = acc.unionWith(r);
    }
  };
  for (const Shape& s : shapes_) grow(s.bbox());
  for (const Instance& i : instances_) grow(i.placement(i.cell->boundary()));
  return acc;
}

double Cell::powerDemand() const noexcept {
  double total = ownPower_ua_;
  for (const Instance& i : instances_) total += i.cell->powerDemand();
  return total;
}

std::size_t Cell::totalShapeCount() const noexcept {
  std::size_t n = shapes_.size();
  for (const Instance& i : instances_) n += i.cell->totalShapeCount();
  return n;
}

}  // namespace bb::cell
