#include "netlist/logic.hpp"

#include "geom/text_buffer.hpp"

#include <charconv>
#include <functional>
#include <limits>
#include <stdexcept>

namespace bb::netlist {

Level levelFromBool(bool b) noexcept { return b ? Level::L1 : Level::L0; }

namespace {

std::string_view gateName(GateKind k) noexcept {
  switch (k) {
    case GateKind::Inv: return "INV";
    case GateKind::Buf: return "BUF";
    case GateKind::Nand: return "NAND";
    case GateKind::Nor: return "NOR";
    case GateKind::And: return "AND";
    case GateKind::Or: return "OR";
    case GateKind::Xor: return "XOR";
    case GateKind::Latch: return "LATCH";
    case GateKind::Precharge: return "PRECHG";
    case GateKind::PullDown: return "PULLDN";
    case GateKind::Drive: return "DRIVE";
    case GateKind::Const0: return "CONST0";
    case GateKind::Const1: return "CONST1";
  }
  return "?";
}

constexpr std::size_t kMinSlots = 64;
constexpr std::size_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();

std::uint32_t hashOf(std::string_view name) noexcept {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

/// Whether `sig` names one of `count` signals: the simulator indexes its
/// value arrays with it. A negative id converts to a value past any count.
bool isSignal(int sig, std::size_t count) noexcept {
  return static_cast<unsigned>(sig) < count;
}

[[noreturn]] void throwNoSignal(int sig) {
  geom::TextBuffer msg;
  msg << "LogicModel: no signal with id " << sig;
  throw std::out_of_range(msg.take());
}

/// The inputs the simulator reads of a gate of this kind (`in(0)`, and
/// `in(1)` for the enable of a latch or drive).
std::size_t minInputs(GateKind k) noexcept {
  switch (k) {
    case GateKind::Inv:
    case GateKind::Buf:
    case GateKind::Precharge: return 1;
    case GateKind::Latch:
    case GateKind::Drive: return 2;
    default: return 0;
  }
}

[[noreturn]] void throwTooFewInputs(GateKind kind, std::size_t got) {
  geom::TextBuffer msg;
  msg << "LogicModel: a " << gateName(kind) << " gate needs " << minInputs(kind)
      << " inputs, got " << got;
  throw std::invalid_argument(msg.take());
}

void appendDecimal(std::string& out, int n) {
  char digits[16];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, n).ptr);
}

}  // namespace

std::size_t LogicModel::probe(std::string_view name, std::uint32_t hash) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.id < 0 || (s.hash == hash && signalName(s.id) == name)) return i;
  }
}

LogicModel::NameRef LogicModel::append(std::string_view text) {
  if (text.size() > kMaxOffset - chars_.size()) {
    throw std::length_error("LogicModel: names past 4 GiB");
  }
  const NameRef ref{static_cast<std::uint32_t>(chars_.size()),
                    static_cast<std::uint32_t>(text.size())};
  chars_.append(text);  // safe when `text` views `chars_` itself
  return ref;
}

int LogicModel::insert(std::size_t at, std::string_view name, std::uint32_t hash) {
  const int id = static_cast<int>(names_.size());
  names_.push_back(append(name));
  isBus_.push_back(false);
  slots_[at] = Slot{id, hash};
  if (names_.size() * 2 > slots_.size()) {
    // Keep the table at most half full: double it and re-place every id
    // by its stored hash.
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id < 0) continue;
      std::size_t i = s.hash & mask;
      while (slots_[i].id >= 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }
  return id;
}

int LogicModel::signal(std::string_view name) {
  if (slots_.empty()) slots_.resize(kMinSlots);
  const std::uint32_t h = hashOf(name);
  const std::size_t at = probe(name, h);
  return slots_[at].id >= 0 ? slots_[at].id : insert(at, name, h);
}

int LogicModel::signal(std::string_view stem, int index) {
  scratch_.assign(stem);
  appendDecimal(scratch_, index);
  return signal(scratch_);
}

int LogicModel::internalSignal(std::string_view hint) {
  scratch_.assign(hint.empty() ? std::string_view("w") : hint);
  scratch_ += '$';
  appendDecimal(scratch_, anon_++);
  if (slots_.empty()) slots_.resize(kMinSlots);
  for (;;) {
    const std::uint32_t h = hashOf(scratch_);
    const std::size_t at = probe(scratch_, h);
    if (slots_[at].id < 0) return insert(at, scratch_, h);
    scratch_ += '\'';
  }
}

void LogicModel::markBus(int sig) {
  if (!isSignal(sig, names_.size())) throwNoSignal(sig);
  isBus_[static_cast<std::size_t>(sig)] = true;
}

void LogicModel::add(GateKind kind, std::span<const int> in, int out, std::string_view name) {
  const std::size_t count = names_.size();
  if (!isSignal(out, count)) throwNoSignal(out);
  for (const int s : in) {
    if (!isSignal(s, count)) throwNoSignal(s);
  }
  if (in.size() < minInputs(kind)) throwTooFewInputs(kind, in.size());
  const std::less<const int*> before;
  if (!in.empty() && !before(in.data(), pins_.data()) &&
      before(in.data(), pins_.data() + pins_.size())) {
    // `in` views this model's own pins, which growing them would free.
    const std::vector<int> copy(in.begin(), in.end());
    add(kind, copy, out, name);
    return;
  }
  if (in.size() > kMaxOffset - pins_.size()) {
    throw std::length_error("LogicModel: gate inputs past 2^32");
  }
  Gate g{kind, out, static_cast<std::uint32_t>(pins_.size()),
         static_cast<std::uint32_t>(in.size()), 0, 0};
  if (!name.empty()) {
    const NameRef ref = append(name);
    g.nameOffset = ref.offset;
    g.nameLength = ref.length;
  }
  pins_.insert(pins_.end(), in.begin(), in.end());
  gates_.push_back(g);
}

int LogicModel::findSignal(std::string_view name) const noexcept {
  return slots_.empty() ? -1 : slots_[probe(name, hashOf(name))].id;
}

void LogicModel::toText(geom::TextBuffer& os) const {
  // A line is its names plus under 24 bytes of kind and punctuation, and
  // an input's name is about as long as the average name.
  const std::size_t names = names_.size() + gates_.size();
  const std::size_t avgName = names == 0 ? 0 : chars_.size() / names + 1;
  os.reserve(gates_.size() * (24 + avgName) + pins_.size() * (2 + avgName) + 64);
  os << "logic diagram: " << gates_.size() << " gates, " << names_.size() << " signals\n";
  for (const Gate& g : gates_) {
    geom::Record rec(os);
    rec << "  " << gateName(g.kind) << ' ' << signalName(g.out) << " <- ";
    bool first = true;
    for (const int s : inputs(g)) {
      if (!first) rec << ", ";
      first = false;
      rec << signalName(s);
    }
    if (g.nameLength != 0) rec << "    (" << nameOf(g) << ')';
    rec << '\n';
    rec.flush();
  }
}

std::string LogicModel::toText() const {
  geom::TextBuffer out;
  toText(out);
  return out.take();
}

std::map<std::string, std::size_t> LogicModel::histogram() const {
  std::map<std::string, std::size_t> h;
  for (const Gate& g : gates_) ++h[std::string(gateName(g.kind))];
  return h;
}

std::size_t LogicModel::approxBytes() const noexcept {
  return chars_.capacity() + scratch_.capacity() + names_.capacity() * sizeof(NameRef) +
         isBus_.capacity() / 8 + slots_.capacity() * sizeof(Slot) +
         pins_.capacity() * sizeof(int) + gates_.capacity() * sizeof(Gate);
}

}  // namespace bb::netlist
