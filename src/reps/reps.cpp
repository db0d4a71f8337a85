#include "reps/reps.hpp"

#include "geom/text_buffer.hpp"
#include "layout/cif.hpp"
#include "layout/gds.hpp"
#include "layout/svg.hpp"
#include "reps/blockrep.hpp"
#include "reps/sticks.hpp"
#include "reps/textrep.hpp"

namespace bb::reps {

std::string_view representationName(Representation r) noexcept {
  switch (r) {
    case Representation::Layout: return "layout";
    case Representation::Sticks: return "sticks";
    case Representation::Transistors: return "transistors";
    case Representation::Logic: return "logic";
    case Representation::Text: return "text";
    case Representation::Simulation: return "simulation";
    case Representation::Block: return "block";
  }
  return "?";
}

int RepresentationSet::populatedCount() const noexcept {
  int n = 0;
  if (!cif.empty() && !gds.empty() && !layoutSvg.empty()) ++n;
  if (!sticksText.empty()) ++n;
  if (!transistorText.empty()) ++n;
  if (!logicText.empty()) ++n;
  if (!userManual.empty()) ++n;
  if (!simulationText.empty()) ++n;
  if (!blockText.empty()) ++n;
  return n;
}

namespace {

std::string simulationSummary(const core::CompiledChip& chip) {
  geom::TextBuffer os;
  os << "simulation model: " << chip.logic.gates().size() << " gates over "
     << chip.logic.signalCount() << " signals\n";
  for (const auto& [kind, n] : chip.logic.histogram()) {
    os << "  " << kind << ": " << n << "\n";
  }
  os << "drive mc0.." << chip.desc.microcode.width - 1
     << " and clock phi1/phi2 to execute microcode; buses busA<i>/busB<i>.\n";
  return os.take();
}

std::string transistorSummary(const core::CompiledChip& chip) {
  // The core's netlist (the decoder's stylized loads extract too, but the
  // core is the electrically faithful part).
  geom::TextBuffer os;
  os << "extracted from core artwork:\n" << chip.coreNetlist().toText();
  return os.take();
}

}  // namespace

RepresentationSet generateAll(const core::CompiledChip& chip) {
  RepresentationSet rs;
  rs.cif = layout::writeCif(*chip.top);
  rs.gds = layout::writeGds(*chip.top);
  layout::SvgOptions svgo;
  svgo.title = chip.desc.name;
  svgo.pixelsPerUnit = 0.25;
  rs.layoutSvg = layout::renderSvg(*chip.top, chip.flatTop(), svgo);
  const std::vector<Stick> sticks = sticksOf(chip.flatCore());
  rs.sticksText = sticksText(sticks);
  rs.sticksSvg = sticksSvg(sticks);
  rs.transistorText = transistorSummary(chip);
  rs.logicText = chip.logic.toText();
  rs.userManual = reps::userManual(chip);
  rs.simulationText = simulationSummary(chip);
  rs.blockText = blockDiagram(chip) + "\n" + logicalDiagram(chip);
  return rs;
}

std::string generateText(const core::CompiledChip& chip, Representation r) {
  switch (r) {
    case Representation::Layout: return layout::writeCif(*chip.top);
    case Representation::Sticks:
      return sticksText(sticksOf(chip.flatCore()));
    case Representation::Transistors: return transistorSummary(chip);
    case Representation::Logic: return chip.logic.toText();
    case Representation::Text: return userManual(chip);
    case Representation::Simulation: return simulationSummary(chip);
    case Representation::Block: return blockDiagram(chip) + "\n" + logicalDiagram(chip);
  }
  return {};
}

}  // namespace bb::reps
