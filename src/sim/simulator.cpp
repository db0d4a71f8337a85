#include "sim/simulator.hpp"

#include <stdexcept>

namespace bb::sim {

using netlist::Gate;
using netlist::GateKind;

Simulator::Simulator(const netlist::LogicModel& model)
    : model_(model),
      values_(model.signalCount(), Level::LX),
      forced_(model.signalCount(), false) {}

std::size_t Simulator::checked(int sig) const {
  if (sig < 0 || static_cast<std::size_t>(sig) >= values_.size()) {
    throw std::out_of_range("sim::Simulator: no signal with id " + std::to_string(sig));
  }
  return static_cast<std::size_t>(sig);
}

void Simulator::set(int sig, Level v) {
  const std::size_t s = checked(sig);
  values_[s] = v;
  forced_[s] = true;
}

void Simulator::set(const std::string& name, Level v) {
  const int sig = model_.findSignal(name);
  if (sig < 0) throw std::out_of_range("sim::Simulator: no signal named '" + name + "'");
  set(sig, v);
}

void Simulator::release(int sig) { forced_[checked(sig)] = false; }

Level Simulator::get(const std::string& name) const noexcept {
  const int sig = model_.findSignal(name);
  if (sig < 0) return Level::LX;
  return values_[static_cast<std::size_t>(sig)];
}

void Simulator::evalGate(const Gate& g, std::vector<Level>& next, std::vector<bool>& busPulledLow,
                         std::vector<bool>& busDrivenHigh,
                         std::vector<bool>& busPrecharged) const {
  const std::span<const int> pins = model_.inputs(g);
  auto in = [&](std::size_t i) { return values_[static_cast<std::size_t>(pins[i])]; };
  const std::size_t out = static_cast<std::size_t>(g.out);
  switch (g.kind) {
    case GateKind::Inv:
      next[out] = simNot(in(0));
      break;
    case GateKind::Buf:
      next[out] = in(0);
      break;
    case GateKind::Nand: {
      Level v = Level::L1;
      for (std::size_t i = 0; i < pins.size(); ++i) v = simAnd(v, in(i));
      next[out] = simNot(v);
      break;
    }
    case GateKind::Nor: {
      Level v = Level::L0;
      for (std::size_t i = 0; i < pins.size(); ++i) v = simOr(v, in(i));
      next[out] = simNot(v);
      break;
    }
    case GateKind::And: {
      Level v = Level::L1;
      for (std::size_t i = 0; i < pins.size(); ++i) v = simAnd(v, in(i));
      next[out] = v;
      break;
    }
    case GateKind::Or: {
      Level v = Level::L0;
      for (std::size_t i = 0; i < pins.size(); ++i) v = simOr(v, in(i));
      next[out] = v;
      break;
    }
    case GateKind::Xor: {
      Level v = Level::L0;
      for (std::size_t i = 0; i < pins.size(); ++i) v = simXor(v, in(i));
      next[out] = v;
      break;
    }
    case GateKind::Latch: {
      const Level en = in(1);
      if (isHigh(en)) {
        next[out] = in(0);
      } else if (!isKnown(en)) {
        // Unknown enable: output is unknown unless it already equals input.
        if (values_[out] != in(0)) next[out] = Level::LX;
      }
      // en low: hold.
      break;
    }
    case GateKind::Precharge: {
      if (isHigh(in(0))) busPrecharged[out] = true;
      break;
    }
    case GateKind::PullDown: {
      Level v = Level::L1;
      for (std::size_t i = 0; i < pins.size(); ++i) v = simAnd(v, in(i));
      if (isHigh(v)) busPulledLow[out] = true;
      break;
    }
    case GateKind::Drive: {
      if (isHigh(in(1))) {
        if (isHigh(in(0))) busDrivenHigh[out] = true;
        else if (isLow(in(0))) busPulledLow[out] = true;
        // Driving X: leave as-is; resolution marks X below via both flags?
        // Conservative: an enabled drive of X makes the bus X; model by
        // setting both flags so resolution yields X.
        else {
          busPulledLow[out] = true;
          busDrivenHigh[out] = true;
        }
      }
      break;
    }
    case GateKind::Const0:
      next[out] = Level::L0;
      break;
    case GateKind::Const1:
      next[out] = Level::L1;
      break;
  }
}

int Simulator::settle() {
  const int cap = 4 + 2 * static_cast<int>(model_.gates().size());
  int sweeps = 0;
  bool changed = true;
  while (changed && sweeps < cap) {
    ++sweeps;
    changed = false;
    std::vector<Level> next = values_;
    std::vector<bool> pulledLow(values_.size(), false);
    std::vector<bool> drivenHigh(values_.size(), false);
    std::vector<bool> precharged(values_.size(), false);
    for (const Gate& g : model_.gates()) {
      evalGate(g, next, pulledLow, drivenHigh, precharged);
    }
    // Resolve buses by wired logic.
    for (std::size_t s = 0; s < values_.size(); ++s) {
      if (!model_.isBus(static_cast<int>(s))) continue;
      const bool low = pulledLow[s];
      const bool high = drivenHigh[s] || precharged[s];
      if (low && high) {
        // Pull-down fights precharge: the ratioed pull-down wins in nMOS,
        // but a simultaneous active Drive-high is a conflict -> X.
        next[s] = drivenHigh[s] ? Level::LX : Level::L0;
      } else if (low) {
        next[s] = Level::L0;
      } else if (high) {
        next[s] = Level::L1;
      }
      // Neither: dynamic hold (keep next[s] as carried over).
    }
    // Forced signals override everything.
    for (std::size_t s = 0; s < values_.size(); ++s) {
      if (forced_[s]) next[s] = values_[s];
    }
    if (next != values_) {
      values_ = std::move(next);
      changed = true;
    }
  }
  return sweeps;
}

unsigned long long Simulator::readBus(const std::string& base, int bits) const {
  unsigned long long v = 0;
  for (int i = 0; i < bits; ++i) {
    const Level l = get(base + std::to_string(i));
    if (isHigh(l)) v |= 1ull << i;
  }
  return v;
}

void Simulator::driveBus(const std::string& base, int bits, unsigned long long value) {
  for (int i = 0; i < bits; ++i) {
    const int sig = model_.findSignal(base + std::to_string(i));
    if (sig >= 0) set(sig, netlist::levelFromBool((value >> i) & 1));
  }
}

}  // namespace bb::sim
