/// \file logic.hpp
/// Gate-level logic model — the paper's "Logic" representation ("a logic
/// diagram of the chip in the TTL style") and the substrate the simulator
/// executes. Element generators emit one LogicModel fragment per element;
/// the compiler links fragments over the shared buses and control lines.
///
/// The primitive set models the two-phase nMOS discipline directly:
/// precharged buses with wired pull-downs, clock-qualified pass latches,
/// and static inverting gates.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace bb::netlist {

/// Logic levels: unknown propagates, Z only appears on undriven buses.
enum class Level : std::uint8_t { L0, L1, LX, LZ };

[[nodiscard]] Level levelFromBool(bool b) noexcept;

/// Primitive kinds.
enum class GateKind : std::uint8_t {
  Inv,        ///< out = not in[0]
  Buf,        ///< out = in[0]
  Nand,       ///< out = not (and of inputs)
  Nor,        ///< out = not (or of inputs)
  And,        ///< out = and of inputs
  Or,         ///< out = or of inputs
  Xor,        ///< out = parity of inputs
  Latch,      ///< in[1] high -> out = in[0]; else hold (pass-gate latch)
  Precharge,  ///< in[0] (clock) high -> bus out precharges toward 1
  PullDown,   ///< in all high -> bus out pulled to 0 (series chain)
  Drive,      ///< in[1] high -> bus out driven to in[0] (pad / port driver)
  Const0,
  Const1,
};

struct Gate {
  GateKind kind = GateKind::Inv;
  std::vector<int> in;
  int out = -1;
  std::string name;  ///< for diagrams and debug
};

/// A gate-level netlist with named signals.
class LogicModel {
 public:
  /// Create or look up a signal.
  int signal(const std::string& name);
  /// Create an anonymous internal signal.
  int internalSignal(const std::string& hint = {});
  /// Mark a signal as a precharged bus wire (resolved by wired logic).
  void markBus(int sig);

  void add(GateKind kind, std::vector<int> in, int out, std::string name = {});

  [[nodiscard]] const std::vector<Gate>& gates() const noexcept { return gates_; }
  [[nodiscard]] std::size_t signalCount() const noexcept { return names_.size(); }
  [[nodiscard]] const std::string& signalName(int s) const noexcept {
    return names_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool isBus(int s) const noexcept { return isBus_[static_cast<std::size_t>(s)]; }
  [[nodiscard]] int findSignal(const std::string& name) const noexcept;

  /// Merge another model into this one, connecting signals by name
  /// (shared names unify; this is how elements link over buses).
  void merge(const LogicModel& other);

  /// TTL-style logic diagram (text).
  [[nodiscard]] std::string toText() const;

  /// Gate count by kind (for reports).
  [[nodiscard]] std::map<std::string, std::size_t> histogram() const;

 private:
  std::vector<std::string> names_;
  std::vector<bool> isBus_;
  std::unordered_map<std::string, int> byName_;  ///< name -> id; lookups only
  std::vector<Gate> gates_;
  int anon_ = 0;
};

}  // namespace bb::netlist
