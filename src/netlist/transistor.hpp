/// \file transistor.hpp
/// Transistor-level netlist — the paper's "Transistors" representation.
/// Produced by geometric extraction (src/extract) or directly by element
/// generators; consumed by the SPICE writer and LVS-lite cross-checks.

#pragma once

#include "geom/geometry.hpp"
#include "geom/text_buffer.hpp"

#include <map>
#include <string>
#include <vector>

namespace bb::netlist {

/// nMOS device kinds: enhancement switches and depletion pull-up loads.
enum class TransKind : std::uint8_t { Enhancement, Depletion };

[[nodiscard]] std::string_view kindName(TransKind k) noexcept;

/// A net (node) in the transistor netlist.
struct Net {
  std::string name;
  /// True for nets tied to a rail or clock (named by a bristle).
  bool isNamed = false;
};

/// One transistor with geometric W/L (grid units).
struct Transistor {
  TransKind kind = TransKind::Enhancement;
  int gate = -1;
  int source = -1;
  int drain = -1;
  geom::Coord width = 0;   ///< channel width, grid units
  geom::Coord length = 0;  ///< channel length, grid units
  geom::Point at;          ///< gate location (for diagrams/debug)
};

/// The transistor diagram of a cell or chip.
class TransistorNetlist {
 public:
  /// Create an anonymous net (named n<k>).
  int anonNet();
  void rename(int net, const std::string& name);

  void add(Transistor t) { trans_.push_back(t); }

  [[nodiscard]] const std::vector<Net>& nets() const noexcept { return nets_; }
  [[nodiscard]] const std::vector<Transistor>& transistors() const noexcept { return trans_; }
  [[nodiscard]] std::size_t enhancementCount() const noexcept;
  [[nodiscard]] std::size_t depletionCount() const noexcept;
  [[nodiscard]] int findNet(const std::string& name) const noexcept;

  /// Human-readable transistor diagram (one device per line), appended
  /// to `out`, sized first from the device count.
  void toText(geom::TextBuffer& out) const;
  [[nodiscard]] std::string toText() const;

 private:
  std::vector<Net> nets_;
  std::vector<Transistor> trans_;
  std::map<std::string, int> byName_;
  int anon_ = 0;
};

}  // namespace bb::netlist
