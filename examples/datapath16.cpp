/// datapath16: the "fairly large chip" — a 16-bit datapath with a
/// register file, two working registers, ALU, shifter, constant and both
/// ports. Compiles it, runs the per-cell DRC discipline over every cell
/// in the library, extracts the core, and writes the SPICE deck plus the
/// mask set and diagrams through the emitter registry.
///
/// Run from the build tree:  ./examples/datapath16 [output-dir]

#include "core/samples.hpp"
#include "core/session.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "netlist/spice.hpp"
#include "reps/emitter.hpp"

#include <cstdio>
#include <fstream>

int main(int argc, char** argv) {
  const std::string outDir = argc > 1 ? argv[1] : ".";

  auto result = bb::core::compileChip(bb::core::samples::largeChip(16, 8));
  if (!result) {
    std::fprintf(stderr, "compile failed:\n%s", result.diagnostics().toString().c_str());
    return 1;
  }
  const auto chip = std::move(*result);
  std::printf("%s\n", chip->statsText().c_str());

  // Per-cell DRC — the paper's hierarchical discipline.
  std::size_t cellsChecked = 0, dirty = 0;
  for (const bb::cell::Cell* c : chip->lib.all()) {
    if (c == chip->top) continue;  // ring wiring is checked by its own pass
    const auto rep = bb::drc::checkCell(*c, bb::tech::meadConwayRules());
    ++cellsChecked;
    if (!rep.clean()) {
      ++dirty;
      std::printf("DRC: cell '%s': %s\n", c->name().c_str(), rep.summary().c_str());
    }
  }
  std::printf("DRC: %zu cells checked, %zu with violations\n", cellsChecked, dirty);

  // Extraction + SPICE. The registry's "spice" emitter extracts
  // internally; here the netlist is already in hand for the stats
  // line, so write the deck from it directly rather than extract twice.
  const auto ex = bb::extract::extractCell(*chip->core);
  std::printf("extracted: %zu transistors (%zu enh / %zu dep), %zu nets\n",
              ex.netlist.transistors().size(), ex.netlist.enhancementCount(),
              ex.netlist.depletionCount(), ex.netCount);
  {
    std::ofstream f(outDir + "/datapath16.sp");
    f << bb::netlist::writeSpice(ex.netlist);
  }

  // Mask set and diagrams to disk, each through its registered emitter.
  const struct {
    const char* file;
    const char* format;
  } outs[] = {
      {"datapath16.cif", "cif"},
      {"datapath16.svg", "svg"},
      {"datapath16_sticks.svg", "sticks-svg"},
      {"datapath16_logic.txt", "logic"},
      {"datapath16_manual.txt", "text"},
      {"datapath16_block.txt", "block"},
  };
  for (const auto& o : outs) {
    std::ofstream f(outDir + "/" + o.file, std::ios::binary);
    bb::reps::EmitterRegistry::global().emit(*chip, o.format, f);
  }
  std::printf("wrote mask set + diagrams to %s/\n", outDir.c_str());
  return dirty == 0 ? 0 : 1;
}
