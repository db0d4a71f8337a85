/// \file simulator.hpp
/// Event-driven 4-state logic simulator over a LogicModel — the paper's
/// "Simulation" representation, "so that software can be written for the
/// chip to explore the feasibility of the design". The 1979 system only
/// had hooks for this; it is implemented in full here.
///
/// Semantics per settle step:
///   * combinational gates evaluate with unit delay to a fixpoint;
///   * bus signals resolve by wired logic: any active PullDown/Drive-low
///     wins over precharge; an active Precharge (clock high) raises the
///     bus; with no driver the bus holds its charge (dynamic storage);
///   * LATCH passes input while enabled, holds otherwise.

#pragma once

#include "netlist/logic.hpp"
#include "sim/signal.hpp"

#include <string>
#include <vector>

namespace bb::sim {

class Simulator {
 public:
  explicit Simulator(const netlist::LogicModel& model);

  /// Force an input signal to a level (stays until changed). An id or
  /// name the model does not have throws `std::out_of_range`.
  void set(int sig, Level v);
  void set(const std::string& name, Level v);
  void setBool(const std::string& name, bool v) { set(name, netlist::levelFromBool(v)); }

  /// Release a forced signal (reverts to model-driven); an id the model
  /// does not have throws `std::out_of_range`.
  void release(int sig);

  [[nodiscard]] Level get(int sig) const noexcept {
    return values_[static_cast<std::size_t>(sig)];
  }
  [[nodiscard]] Level get(const std::string& name) const noexcept;
  [[nodiscard]] bool getBool(const std::string& name) const noexcept {
    return isHigh(get(name));
  }

  /// Propagate until stable. Returns the number of evaluation sweeps;
  /// sweeps are capped (oscillation guard) at 4 + 2 * gate count.
  int settle();

  /// Convenience: read an n-bit vector named base0..base{n-1} as unsigned.
  [[nodiscard]] unsigned long long readBus(const std::string& base, int bits) const;
  /// Drive an n-bit vector.
  void driveBus(const std::string& base, int bits, unsigned long long value);

  [[nodiscard]] const netlist::LogicModel& model() const noexcept { return model_; }

 private:
  [[nodiscard]] std::size_t checked(int sig) const;
  void evalGate(const netlist::Gate& g, std::vector<Level>& next,
                std::vector<bool>& busPulledLow, std::vector<bool>& busDrivenHigh,
                std::vector<bool>& busPrecharged) const;

  const netlist::LogicModel& model_;
  std::vector<Level> values_;
  std::vector<bool> forced_;
};

}  // namespace bb::sim
