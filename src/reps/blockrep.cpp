#include "reps/blockrep.hpp"

#include <algorithm>

namespace bb::reps {

void blockDiagram(geom::TextBuffer& os, const core::CompiledChip& chip) {
  std::size_t north = 0, south = 0, east = 0, west = 0;
  for (const core::PadPlacement& p : chip.pads) {
    switch (p.side) {
      case cell::Side::North: ++north; break;
      case cell::Side::South: ++south; break;
      case cell::Side::East: ++east; break;
      case cell::Side::West: ++west; break;
    }
  }
  os << "physical format — chip '" << chip.desc.name << "'\n";
  os << "+--------------------[ " << north << " pads ]--------------------+\n";
  os << "|                                                      |\n";
  os << "|   +----------------------------------------------+   |\n";
  os << "|   |                  DECODER (" << chip.pla.termCount() << " terms)"
     << std::string(std::max<int>(1, 14 - static_cast<int>(std::to_string(chip.pla.termCount()).size())), ' ')
     << "|   |\n";
  os << "|   +----------------------------------------------+   |\n";
  os << "|   |      control buffers (" << chip.controls.size() << " lines)              |   |\n";
  os << "| " << west << " +----------------------------------------------+ " << east << " |\n";
  os << "|   |                    CORE                      |   |\n";
  os << "|   |  ";
  std::string row;
  for (const core::PlacedElement& pe : chip.placed) {
    if (!row.empty()) row += "|";
    row += pe.name;
  }
  if (row.size() > 42) row = row.substr(0, 39) + "...";
  os << "[" << row << "]" << std::string(std::max<int>(1, 42 - static_cast<int>(row.size())), ' ')
     << "|   |\n";
  os << "|   +----------------------------------------------+   |\n";
  os << "|                                                      |\n";
  os << "+--------------------[ " << south << " pads ]--------------------+\n";
}

void logicalDiagram(geom::TextBuffer& os, const core::CompiledChip& chip) {
  os << "logical format — chip '" << chip.desc.name << "'\n\n";
  // Upper bus line.
  const std::string& busA = chip.desc.buses[0];
  const std::string busB = chip.desc.buses.size() > 1 ? chip.desc.buses[1] : "";
  os << "  " << busA << " ==";
  for (const core::PlacedElement& pe : chip.placed) {
    os << (pe.usesBus[0] ? "=[*]=" : "=====");
  }
  os << "==>\n";
  os << "       ";
  for (const core::PlacedElement& pe : chip.placed) {
    std::string n = pe.name.substr(0, 4);
    n.resize(5, ' ');
    os << n;
  }
  os << "\n";
  if (!busB.empty()) {
    os << "  " << busB << " ==";
    for (const core::PlacedElement& pe : chip.placed) {
      os << (pe.usesBus[1] ? "=[*]=" : "=====");
    }
    os << "==>\n";
  }
  os << "\n  control signals enter each element from the decoder above;\n";
  os << "  microcode (" << chip.desc.microcode.width
     << " bits) enters the decoder twice per clock cycle\n";
  os << "  (phi1-qualified and phi2-qualified control sets).\n";
}

}  // namespace bb::reps
