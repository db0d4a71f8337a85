#include "netlist/logic.hpp"

#include "geom/text_buffer.hpp"

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

}  // namespace

int LogicModel::signal(const std::string& name) {
  const auto [it, fresh] = byName_.try_emplace(name, static_cast<int>(names_.size()));
  if (fresh) {
    names_.push_back(name);
    isBus_.push_back(false);
  }
  return it->second;
}

int LogicModel::internalSignal(const std::string& hint) {
  std::string name = (hint.empty() ? "w" : hint) + "$" + std::to_string(anon_++);
  while (byName_.contains(name)) name += "'";
  return signal(name);
}

void LogicModel::markBus(int sig) { isBus_[static_cast<std::size_t>(sig)] = true; }

void LogicModel::add(GateKind kind, std::vector<int> in, int out, std::string name) {
  gates_.push_back(Gate{kind, std::move(in), out, std::move(name)});
}

int LogicModel::findSignal(const std::string& name) const noexcept {
  auto it = byName_.find(name);
  return it == byName_.end() ? -1 : it->second;
}

void LogicModel::merge(const LogicModel& other) {
  std::vector<int> remap(other.names_.size());
  for (std::size_t i = 0; i < other.names_.size(); ++i) {
    remap[i] = signal(other.names_[i]);
    if (other.isBus_[i]) markBus(remap[i]);
  }
  for (const Gate& g : other.gates_) {
    Gate ng = g;
    for (int& s : ng.in) s = remap[static_cast<std::size_t>(s)];
    ng.out = remap[static_cast<std::size_t>(g.out)];
    gates_.push_back(std::move(ng));
  }
}

std::string LogicModel::toText() const {
  geom::TextBuffer os;
  os << "logic diagram: " << gates_.size() << " gates, " << names_.size() << " signals\n";
  for (const Gate& g : gates_) {
    os << "  " << gateName(g.kind) << ' ' << names_[static_cast<std::size_t>(g.out)] << " <- ";
    for (std::size_t i = 0; i < g.in.size(); ++i) {
      if (i) os << ", ";
      os << names_[static_cast<std::size_t>(g.in[i])];
    }
    if (!g.name.empty()) os << "    (" << g.name << ')';
    os << "\n";
  }
  return os.take();
}

std::map<std::string, std::size_t> LogicModel::histogram() const {
  std::map<std::string, std::size_t> h;
  for (const Gate& g : gates_) ++h[std::string(gateName(g.kind))];
  return h;
}

}  // namespace bb::netlist
