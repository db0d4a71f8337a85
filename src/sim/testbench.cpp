#include "sim/testbench.hpp"

namespace bb::sim {

Testbench::Testbench(Simulator& sim, int mcBits, int dataBits)
    : sim_(sim), clk_(sim), mcBits_(mcBits), dataBits_(dataBits) {}

std::vector<TraceEntry> Testbench::run(const std::vector<unsigned long long>& program) {
  std::vector<TraceEntry> trace;
  trace.reserve(program.size());
  for (unsigned long long word : program) {
    // Present the microcode on the quarter preceding phi1 (the paper's
    // "phase preceding the phase when the instruction is to be executed").
    sim_.driveBus("mc", mcBits_, word);
    sim_.settle();
    // phi1: bus transfer happens; sample at the end of the quarter.
    clk_.toPhi1();
    TraceEntry e;
    e.cycle = clk_.cycleCount();
    e.microcode = word;
    e.busA = sim_.readBus("busA", dataBits_);
    e.busB = sim_.readBus("busB", dataBits_);
    trace.push_back(e);
    // phi2: elements operate; buses precharge.
    clk_.toPhi2();
    // Finish the cycle (both-low quarter) so the next word starts clean.
    clk_.quarter();
  }
  return trace;
}

}  // namespace bb::sim
