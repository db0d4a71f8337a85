/// \file textrep.cpp
/// The Text representation: "a hierarchical description of the chip that
/// can be used as a 'user's manual' for the completed chip."

#include "reps/textrep.hpp"

namespace bb::reps {

void userManual(geom::TextBuffer& os, const core::CompiledChip& chip) {
  os << "==========================================================\n";
  os << " USER'S MANUAL — chip '" << chip.desc.name << "'\n";
  os << " compiled by the Bristle Blocks silicon compiler\n";
  os << "==========================================================\n\n";

  os << "1. MICROCODE FORMAT (" << chip.desc.microcode.width << " bits)\n";
  for (const icl::FieldDecl& f : chip.desc.microcode.fields) {
    os << "   [" << f.hi << ":" << f.lo << "]  " << f.name << " (" << f.bits() << " bits)\n";
  }
  os << "\n2. DATA PATH\n";
  os << "   data width: " << chip.desc.dataWidth << " bits\n";
  os << "   buses:      ";
  for (std::size_t i = 0; i < chip.desc.buses.size(); ++i) {
    if (i) os << ", ";
    os << chip.desc.buses[i] << " (" << chip.stats.busSegments[i] << " segment"
       << (chip.stats.busSegments[i] > 1 ? "s" : "") << ")";
  }
  os << "\n\n3. CORE ELEMENTS (west to east)\n";
  for (const core::PlacedElement& pe : chip.placed) {
    os << "   " << pe.name << " [" << pe.kind << "] at x="
       << pe.x / geom::kUnitsPerLambda << "L\n";
    if (pe.column != nullptr && !pe.column->doc().empty()) {
      os << "      " << pe.column->doc() << "\n";
    }
    for (const elements::ControlLine& cl : pe.controls) {
      os << "      control " << cl.name << " (phi" << cl.phase << ") when [" << cl.decode
         << "]\n";
    }
  }
  os << "\n4. INSTRUCTION DECODER\n";
  os << "   " << chip.pla.termCount() << " product terms over " << chip.desc.microcode.width
     << " microcode bits driving " << chip.controls.size() << " control lines\n";
  os << "   (raw cubes " << chip.tapeStats.rawCubes << " -> shared "
     << chip.tapeStats.sharedTerms << " -> merged " << chip.tapeStats.finalTerms << " in "
     << chip.tapeStats.mergePasses << " passes)\n";
  os << "\n5. PADS (" << chip.pads.size() << ")\n";
  for (const core::PadPlacement& p : chip.pads) {
    os << "   " << p.name << " -> " << p.padCellName << " on " << cell::sideName(p.side)
       << " side, wire " << p.wireLength / geom::kUnitsPerLambda << "L\n";
  }
  os << "\n6. TIMING\n";
  os << "   two-phase non-overlapping clock; phi1 transfers data over the buses,\n";
  os << "   phi2 operates the processing elements while the buses precharge.\n";
  os << "   Microcode must be valid on the quarter preceding phi1.\n";
  os << "\n7. ELECTRICAL\n";
  os << "   static supply current " << chip.stats.power_ua / 1000.0 << " mA; supply rails "
     << chip.stats.powerRailWidth / geom::kUnitsPerLambda << "L wide\n";
}

}  // namespace bb::reps
