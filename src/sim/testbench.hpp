/// \file testbench.hpp
/// Microcode-driven testbench: feeds a program (a sequence of microcode
/// words) to a compiled chip's logic model and samples its buses — this
/// is how "software can be written for the chip to explore the
/// feasibility of the design" before masks are made.
///
/// Timing follows the paper: "instructions enter the control buffers
/// through the decoder logic on the clock phase preceding the phase when
/// the instruction is to be executed", so the word is presented before
/// the phi1 transfer quarter of each cycle.

#pragma once

#include "sim/clock.hpp"
#include "sim/simulator.hpp"

#include <string>
#include <vector>

namespace bb::sim {

struct TraceEntry {
  long long cycle = 0;
  unsigned long long microcode = 0;
  unsigned long long busA = 0;
  unsigned long long busB = 0;
};

class Testbench {
 public:
  /// `mcBits` microcode input signals named "mc<i>"; buses "busA<i>" /
  /// "busB<i>" of `dataBits` each.
  Testbench(Simulator& sim, int mcBits, int dataBits);

  /// Run the program; one microcode word per clock cycle. Returns the
  /// per-cycle trace (sampled at the end of phi1, when bus data is valid).
  std::vector<TraceEntry> run(const std::vector<unsigned long long>& program);

  [[nodiscard]] TwoPhaseClock& clock() noexcept { return clk_; }

 private:
  Simulator& sim_;
  TwoPhaseClock clk_;
  int mcBits_;
  int dataBits_;
};

}  // namespace bb::sim
