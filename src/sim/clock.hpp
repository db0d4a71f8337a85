/// \file clock.hpp
/// The two-phase non-overlapping clock of the Bristle Blocks temporal
/// format: phi1 transfers data over the buses, phi2 operates the
/// processing elements (and precharges the buses for the next transfer).

#pragma once

#include "sim/simulator.hpp"

#include <string>

namespace bb::sim {

/// Drives phi1/phi2 through the four quarter-states of one clock cycle:
///   [phi1 high] -> [both low] -> [phi2 high] -> [both low]
class TwoPhaseClock {
 public:
  TwoPhaseClock(Simulator& sim, std::string phi1 = "phi1", std::string phi2 = "phi2");

  /// Advance one quarter-cycle and settle the simulator.
  void quarter();
  /// Run a full cycle (4 quarters).
  void cycle();
  /// Advance until the start of the next phi1-high quarter.
  void toPhi1();
  /// Advance until the start of the next phi2-high quarter.
  void toPhi2();

  [[nodiscard]] long long cycleCount() const noexcept { return cycles_; }

 private:
  void apply();

  Simulator& sim_;
  std::string phi1_, phi2_;
  int q_ = 3;  ///< last applied quarter; first quarter() moves to 0
  long long cycles_ = 0;
};

}  // namespace bb::sim
