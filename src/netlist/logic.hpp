/// \file logic.hpp
/// Gate-level logic model — the paper's "Logic" representation ("a logic
/// diagram of the chip in the TTL style") and the substrate the simulator
/// executes. Every element generator, the decoder and the pads emit their
/// gates into the chip's one model, meeting over shared signal names (the
/// bus segments and the control lines).
///
/// The primitive set models the two-phase nMOS discipline directly:
/// precharged buses with wired pull-downs, clock-qualified pass latches,
/// and static inverting gates.

#pragma once

#include "geom/text_buffer.hpp"

#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
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

/// One gate. Its inputs and its name live in the owning model's shared
/// arrays; read them through `LogicModel::inputs` and `LogicModel::nameOf`.
struct Gate {
  GateKind kind = GateKind::Inv;
  int out = -1;
  std::uint32_t pinOffset = 0;  ///< first input in the model's pin array
  std::uint32_t pinCount = 0;
  std::uint32_t nameOffset = 0;  ///< name (for diagrams and debug) in the arena
  std::uint32_t nameLength = 0;
};

/// A gate-level netlist with named signals.
///
/// Storage is per model, not per gate or signal: signal and gate names
/// sit in one character arena, signals are found through an
/// open-addressing table of ids, and all gate inputs share one pin array
/// in which each gate owns a contiguous slice. Signal ids are handed out
/// in first-seen order and gates kept in call order. The model holds
/// only ids and offsets, so a plain copy is a complete, independent
/// model; the const members touch no scratch state, so any number of
/// threads may read one model at once.
class LogicModel {
 public:
  /// Create or look up a signal. `name` may view this model's own names.
  int signal(std::string_view name);
  /// Create or look up the signal named `stem` followed by the decimal
  /// `index` ("busA" and 3 name "busA3").
  int signal(std::string_view stem, int index);
  /// Create an anonymous internal signal named `hint$N` (`w$N` without a
  /// hint), N counting every call; a taken name gets `'` appended until
  /// it is free.
  int internalSignal(std::string_view hint = {});
  /// Mark a signal as a precharged bus wire (resolved by wired logic).
  /// Throws `std::out_of_range` when `sig` names no signal.
  void markBus(int sig);

  /// Append a gate. `in` and `name` may view this model's own pins and
  /// names (`inputs`, `nameOf`, `signalName`). Throws `std::out_of_range`
  /// when `out` or an input names no signal, and `std::invalid_argument`
  /// when an Inv, Buf or Precharge gets no input or a Latch or Drive
  /// fewer than two (its data and enable), so the simulator never reads
  /// past a gate's pins or its value arrays.
  void add(GateKind kind, std::span<const int> in, int out, std::string_view name = {});
  void add(GateKind kind, std::initializer_list<int> in, int out, std::string_view name = {}) {
    add(kind, std::span<const int>(in.begin(), in.size()), out, name);
  }

  [[nodiscard]] const std::vector<Gate>& gates() const noexcept { return gates_; }
  /// A gate's inputs; the view lasts until the next `add`.
  [[nodiscard]] std::span<const int> inputs(const Gate& g) const noexcept {
    return {pins_.data() + g.pinOffset, g.pinCount};
  }
  /// A gate's name; the view lasts until the next building call.
  [[nodiscard]] std::string_view nameOf(const Gate& g) const noexcept {
    return {chars_.data() + g.nameOffset, g.nameLength};
  }

  [[nodiscard]] std::size_t signalCount() const noexcept { return names_.size(); }
  /// A signal's name; the view lasts until the next building call.
  [[nodiscard]] std::string_view signalName(int s) const noexcept {
    const NameRef& n = names_[static_cast<std::size_t>(s)];
    return {chars_.data() + n.offset, n.length};
  }
  [[nodiscard]] bool isBus(int s) const noexcept { return isBus_[static_cast<std::size_t>(s)]; }
  /// The signal's id, or -1 when no signal has that name.
  [[nodiscard]] int findSignal(std::string_view name) const noexcept;

  /// TTL-style logic diagram (text), appended to `out`, sized first from
  /// the gate, pin and name counts.
  void toText(geom::TextBuffer& out) const;
  [[nodiscard]] std::string toText() const;

  /// Gate count by kind (for reports).
  [[nodiscard]] std::map<std::string, std::size_t> histogram() const;

  /// Bytes the model's arrays hold (their capacities).
  [[nodiscard]] std::size_t approxBytes() const noexcept;

 private:
  struct NameRef {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };
  /// One table entry: a signal id (-1 when empty) and its name's hash.
  struct Slot {
    int id = -1;
    std::uint32_t hash = 0;
  };

  /// The slot holding `name`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::string_view name, std::uint32_t hash) const noexcept;
  /// Append `name` as a new signal at the empty slot `at`.
  int insert(std::size_t at, std::string_view name, std::uint32_t hash);
  NameRef append(std::string_view text);

  std::string chars_;            ///< every signal and gate name, back to back
  std::vector<NameRef> names_;   ///< signal id -> its name in `chars_`
  std::vector<bool> isBus_;
  std::vector<Slot> slots_;      ///< open addressing, power-of-two size
  std::vector<int> pins_;        ///< every gate's inputs, gate after gate
  std::vector<Gate> gates_;
  std::string scratch_;          ///< name formatting for the building calls
  int anon_ = 0;
};

}  // namespace bb::netlist
