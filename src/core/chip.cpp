#include "core/chip.hpp"

#include "extract/extract.hpp"
#include "geom/text_buffer.hpp"

#include <unordered_map>
#include <variant>

namespace bb::core {

namespace {
double toLambda(geom::Coord v) { return static_cast<double>(v) / geom::kUnitsPerLambda; }
double toLambda2(geom::Coord v) {
  return static_cast<double>(v) / (geom::kUnitsPerLambda * geom::kUnitsPerLambda);
}
}  // namespace

std::string CompiledChip::statsText() const {
  geom::TextBuffer os;
  os << "chip '" << desc.name << "': " << desc.dataWidth << "-bit, " << placed.size()
     << " core elements, " << desc.buses.size() << " buses\n";
  os << "  pitch:        " << toLambda(stats.pitch) << "L (widest natural "
     << toLambda(stats.naturalPitchMax) << "L)\n";
  os << "  core:         " << toLambda(stats.coreWidth) << " x " << toLambda(stats.coreHeight)
     << "L = " << toLambda2(stats.coreArea) << " L^2\n";
  os << "  decoder:      " << toLambda2(stats.decoderArea) << " L^2, "
     << pla.termCount() << " terms, " << stats.controlCount << " control lines\n";
  os << "  pads:         " << stats.padCount << " (wire length "
     << toLambda(stats.padWireLength) << "L)\n";
  os << "  die:          " << toLambda(stats.dieWidth) << " x " << toLambda(stats.dieHeight)
     << "L = " << toLambda2(stats.dieArea) << " L^2\n";
  os << "  bus segments: " << stats.busSegments[0] << " + " << stats.busSegments[1] << " ("
     << stats.prechargeColumns << " precharge columns)\n";
  os << "  power:        " << stats.power_ua / 1000.0 << " mA static, rails "
     << toLambda(stats.powerRailWidth) << "L\n";
  os << "  logic:        " << stats.logicGates << " gates, " << stats.logicSignals
     << " signals\n";
  os << "  artwork:      " << stats.cellCount << " cells, " << stats.shapeCount
     << " flattened primitives\n";
  return os.take();
}

CompiledChip CompiledChip::clone() const {
  CompiledChip out;
  out.desc = desc;
  std::unordered_map<const cell::Cell*, cell::Cell*> map;
  out.lib = lib.clone(&map);
  const auto retarget = [&map](cell::Cell* p) -> cell::Cell* {
    if (p == nullptr) return nullptr;
    const auto it = map.find(p);
    return it == map.end() ? p : it->second;
  };
  out.top = retarget(top);
  out.core = retarget(core);
  out.bufferRow = retarget(bufferRow);
  out.decoder = retarget(decoder);
  out.placed = placed;
  for (PlacedElement& e : out.placed) e.column = retarget(e.column);
  out.controls = controls;
  out.pads = pads;
  out.logic = logic;
  out.pla = pla;
  out.tapeStats = tapeStats;
  out.stats = stats;
  return out;  // derived caches stay empty: rebuilt lazily on demand
}

std::size_t CompiledChip::approxBytes() const noexcept {
  std::size_t bytes = sizeof(CompiledChip);
  for (const cell::Cell* c : lib.all()) {
    bytes += sizeof(cell::Cell) + c->name().size();
    for (const cell::Shape& s : c->shapes()) {
      bytes += sizeof(cell::Shape);
      if (const auto* poly = std::get_if<geom::Polygon>(&s.geo)) {
        bytes += poly->pts.size() * sizeof(geom::Point);
      } else if (const auto* path = std::get_if<geom::Path>(&s.geo)) {
        bytes += path->pts.size() * sizeof(geom::Point);
      }
    }
    bytes += c->instances().size() * sizeof(cell::Instance);
    for (const cell::Bristle& b : c->bristles()) {
      bytes += sizeof(cell::Bristle) + b.name.size() + b.decode.size() + b.net.size();
    }
    bytes += c->stretchLines().size() * sizeof(cell::StretchLine);
  }
  bytes += placed.size() * sizeof(PlacedElement);
  bytes += controls.size() * sizeof(elements::ControlLine);
  bytes += pads.size() * sizeof(PadPlacement);
  bytes += logic.approxBytes();
  return bytes + stats.shapeCount * kDerivedBytesPerShape;
}

const cell::FlatLayout& CompiledChip::flatTop() const {
  return flatTop_.get([this] { return cell::flatten(*top); });
}

const cell::FlatLayout& CompiledChip::flatCore() const {
  return flatCore_.get([this] { return cell::flatten(*core); });
}

const cell::HierIndex& CompiledChip::hierTop() const {
  return hierTop_.get([this] { return cell::HierIndex(*top); });
}

const netlist::TransistorNetlist& CompiledChip::coreNetlist() const {
  return coreNetlist_.get(
      [this] { return extract::extractFlat(flatCore(), extract::labelsOf(*core)).netlist; });
}

}  // namespace bb::core
