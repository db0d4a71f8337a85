/// Simulator unit tests: level algebra, gates, latches, precharged-bus
/// resolution and the two-phase clock discipline; and the logic model,
/// checked call for call against its previous per-gate implementation.

#include "geom/text_buffer.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <memory>
#include <random>
#include <stdexcept>
#include <unordered_map>

namespace bb::sim {
namespace {

using netlist::GateKind;
using netlist::Level;
using netlist::LogicModel;

TEST(Levels, Algebra) {
  EXPECT_EQ(simNot(Level::L0), Level::L1);
  EXPECT_EQ(simNot(Level::LX), Level::LX);
  EXPECT_EQ(simAnd(Level::L0, Level::LX), Level::L0);  // 0 dominates
  EXPECT_EQ(simAnd(Level::L1, Level::LX), Level::LX);
  EXPECT_EQ(simOr(Level::L1, Level::LX), Level::L1);   // 1 dominates
  EXPECT_EQ(simOr(Level::L0, Level::LX), Level::LX);
  EXPECT_EQ(simXor(Level::L1, Level::L1), Level::L0);
  EXPECT_EQ(simXor(Level::L1, Level::LX), Level::LX);
  EXPECT_EQ(simAnd(Level::LZ, Level::L1), Level::LX);  // Z reads as X
}

TEST(Simulator, CombinationalChain) {
  LogicModel lm;
  const int a = lm.signal("a");
  const int b = lm.signal("b");
  const int n = lm.signal("n");
  const int out = lm.signal("out");
  lm.add(GateKind::Nand, {a, b}, n);
  lm.add(GateKind::Inv, {n}, out);
  Simulator sim(lm);
  sim.set(a, Level::L1);
  sim.set(b, Level::L1);
  sim.settle();
  EXPECT_EQ(sim.get(out), Level::L1);
  sim.set(b, Level::L0);
  sim.settle();
  EXPECT_EQ(sim.get(out), Level::L0);
}

TEST(Simulator, XorParity) {
  LogicModel lm;
  const int a = lm.signal("a"), b = lm.signal("b"), c = lm.signal("c");
  const int out = lm.signal("out");
  lm.add(GateKind::Xor, {a, b, c}, out);
  Simulator sim(lm);
  for (int v = 0; v < 8; ++v) {
    sim.set(a, netlist::levelFromBool(v & 1));
    sim.set(b, netlist::levelFromBool(v & 2));
    sim.set(c, netlist::levelFromBool(v & 4));
    sim.settle();
    EXPECT_EQ(sim.get(out), netlist::levelFromBool(__builtin_parity(v))) << v;
  }
}

TEST(Simulator, LatchHoldsWhenDisabled) {
  LogicModel lm;
  const int d = lm.signal("d"), en = lm.signal("en"), q = lm.signal("q");
  lm.add(GateKind::Latch, {d, en}, q);
  Simulator sim(lm);
  sim.set(d, Level::L1);
  sim.set(en, Level::L1);
  sim.settle();
  EXPECT_EQ(sim.get(q), Level::L1);
  sim.set(en, Level::L0);
  sim.set(d, Level::L0);
  sim.settle();
  EXPECT_EQ(sim.get(q), Level::L1);  // held
  sim.set(en, Level::L1);
  sim.settle();
  EXPECT_EQ(sim.get(q), Level::L0);
}

TEST(Simulator, PrechargedBusWiredLogic) {
  LogicModel lm;
  const int bus = lm.signal("bus");
  lm.markBus(bus);
  const int pre = lm.signal("pre");
  const int g1 = lm.signal("g1"), g2 = lm.signal("g2");
  lm.add(GateKind::Precharge, {pre}, bus);
  lm.add(GateKind::PullDown, {g1, g2}, bus);  // series chain: both high
  Simulator sim(lm);
  sim.set(pre, Level::L1);
  sim.set(g1, Level::L0);
  sim.set(g2, Level::L0);
  sim.settle();
  EXPECT_EQ(sim.get(bus), Level::L1);
  // Precharge off: dynamic hold.
  sim.set(pre, Level::L0);
  sim.settle();
  EXPECT_EQ(sim.get(bus), Level::L1);
  // One gate high: still held (series chain).
  sim.set(g1, Level::L1);
  sim.settle();
  EXPECT_EQ(sim.get(bus), Level::L1);
  // Both: pulled low.
  sim.set(g2, Level::L1);
  sim.settle();
  EXPECT_EQ(sim.get(bus), Level::L0);
  // Pull-down beats simultaneous precharge (ratioed nMOS).
  sim.set(pre, Level::L1);
  sim.settle();
  EXPECT_EQ(sim.get(bus), Level::L0);
}

TEST(Simulator, DriveConflictsGoX) {
  LogicModel lm;
  const int bus = lm.signal("bus");
  lm.markBus(bus);
  const int v1 = lm.signal("v1"), v0 = lm.signal("v0"), en = lm.signal("en");
  lm.add(GateKind::Drive, {v1, en}, bus);
  lm.add(GateKind::Drive, {v0, en}, bus);
  Simulator sim(lm);
  sim.set(v1, Level::L1);
  sim.set(v0, Level::L0);
  sim.set(en, Level::L1);
  sim.settle();
  EXPECT_EQ(sim.get(bus), Level::LX);
}

TEST(Simulator, OscillationGuardTerminates) {
  LogicModel lm;
  const int a = lm.signal("a");
  lm.add(GateKind::Inv, {a}, a);  // ring of one
  Simulator sim(lm);
  const int sweeps = sim.settle();
  EXPECT_LE(sweeps, 4 + 2 * static_cast<int>(lm.gates().size()) + 1);
}

TEST(Clock, PhasesNonOverlapping) {
  LogicModel lm;
  const int p1 = lm.signal("phi1");
  const int p2 = lm.signal("phi2");
  Simulator sim(lm);
  TwoPhaseClock clk(sim);
  for (int q = 0; q < 12; ++q) {
    clk.quarter();
    EXPECT_FALSE(isHigh(sim.get(p1)) && isHigh(sim.get(p2)))
        << "clock overlap at quarter " << q;
  }
  EXPECT_EQ(clk.cycleCount(), 3);
}

TEST(Clock, PhaseOrdering) {
  LogicModel lm;
  lm.signal("phi1");
  lm.signal("phi2");
  Simulator sim(lm);
  TwoPhaseClock clk(sim);
  clk.toPhi1();
  EXPECT_TRUE(sim.getBool("phi1"));
  EXPECT_FALSE(sim.getBool("phi2"));
  clk.toPhi2();
  EXPECT_FALSE(sim.getBool("phi1"));
  EXPECT_TRUE(sim.getBool("phi2"));
}

TEST(Simulator, UnknownSignalsThrowInEveryBuild) {
  LogicModel lm;
  const int a = lm.signal("a");
  lm.add(GateKind::Inv, {a}, lm.signal("b"));
  Simulator sim(lm);
  try {
    sim.set("nosuch", Level::L1);
    ADD_FAILURE() << "set of an unknown name did not throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("'nosuch'"), std::string::npos) << e.what();
  }
  EXPECT_THROW(sim.setBool("nosuch", true), std::out_of_range);
  EXPECT_THROW(sim.set(-1, Level::L1), std::out_of_range);
  EXPECT_THROW(sim.set(2, Level::L1), std::out_of_range);
  EXPECT_THROW(sim.release(2), std::out_of_range);
  EXPECT_THROW(sim.release(-1), std::out_of_range);
  // Nothing was forced: the model still settles from its own inputs.
  sim.set(a, Level::L0);
  sim.settle();
  EXPECT_EQ(sim.get("b"), Level::L1);
  sim.release(a);
}

TEST(LogicModel, GatesAndBusMarksNamingNoSignalAreRejected) {
  // A one-signal model with an inverter driving id 5: the simulator used
  // to write past its value arrays when it settled such a gate.
  LogicModel lm;
  const int a = lm.signal("a");
  EXPECT_THROW(lm.add(GateKind::Inv, {a}, 5), std::out_of_range);
  EXPECT_THROW(lm.add(GateKind::Inv, {a}, -1), std::out_of_range);
  EXPECT_THROW(lm.add(GateKind::Nand, {a, 1}, a), std::out_of_range);
  EXPECT_THROW(lm.add(GateKind::Or, {-2}, a), std::out_of_range);
  EXPECT_THROW(lm.markBus(1), std::out_of_range);
  EXPECT_THROW(lm.markBus(-1), std::out_of_range);
  // Too few inputs for what the simulator reads of the gate.
  const int b = lm.signal("b");
  for (const GateKind k : {GateKind::Inv, GateKind::Buf, GateKind::Precharge}) {
    EXPECT_THROW(lm.add(k, {}, b), std::invalid_argument);
  }
  for (const GateKind k : {GateKind::Latch, GateKind::Drive}) {
    EXPECT_THROW(lm.add(k, {}, b), std::invalid_argument);
    EXPECT_THROW(lm.add(k, {a}, b), std::invalid_argument);
  }
  // Nothing rejected was added, and the model still simulates.
  EXPECT_TRUE(lm.gates().empty());
  EXPECT_FALSE(lm.isBus(a));
  lm.add(GateKind::Inv, {a}, b);
  lm.add(GateKind::Const1, {}, lm.signal("one"));
  lm.markBus(lm.signal("bus"));
  Simulator sim(lm);
  sim.set(a, Level::L1);
  sim.settle();
  EXPECT_EQ(sim.get("b"), Level::L0);
  EXPECT_EQ(sim.get("one"), Level::L1);
}

TEST(Simulator, ReadDriveBusHelpers) {
  LogicModel lm;
  for (char i = '0'; i < '4'; ++i) lm.signal(std::string{'v', i});
  Simulator sim(lm);
  sim.driveBus("v", 4, 0b1010);
  sim.settle();
  EXPECT_EQ(sim.readBus("v", 4), 0b1010u);
}

// ------------------------------------------- differential model tests

/// The logic model as it was before its storage moved into shared arrays
/// (one vector of inputs and one string name per gate, names in a hash
/// map), kept verbatim as the reference the arena model must match.
namespace reference {

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

struct Gate {
  GateKind kind = GateKind::Inv;
  std::vector<int> in;
  int out = -1;
  std::string name;
};

class LogicModel {
 public:
  int signal(const std::string& name) {
    const auto [it, fresh] = byName_.try_emplace(name, static_cast<int>(names_.size()));
    if (fresh) {
      names_.push_back(name);
      isBus_.push_back(false);
    }
    return it->second;
  }
  int internalSignal(const std::string& hint = {}) {
    std::string name = (hint.empty() ? "w" : hint) + "$" + std::to_string(anon_++);
    while (byName_.contains(name)) name += "'";
    return signal(name);
  }
  void markBus(int sig) { isBus_[static_cast<std::size_t>(sig)] = true; }
  void add(GateKind kind, std::vector<int> in, int out, std::string name = {}) {
    gates_.push_back(Gate{kind, std::move(in), out, std::move(name)});
  }
  [[nodiscard]] const std::vector<Gate>& gates() const noexcept { return gates_; }
  [[nodiscard]] std::size_t signalCount() const noexcept { return names_.size(); }
  [[nodiscard]] const std::string& signalName(int s) const noexcept {
    return names_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool isBus(int s) const noexcept { return isBus_[static_cast<std::size_t>(s)]; }
  [[nodiscard]] int findSignal(const std::string& name) const noexcept {
    auto it = byName_.find(name);
    return it == byName_.end() ? -1 : it->second;
  }
  [[nodiscard]] std::string toText() const {
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

 private:
  std::vector<std::string> names_;
  std::vector<bool> isBus_;
  std::unordered_map<std::string, int> byName_;
  std::vector<Gate> gates_;
  int anon_ = 0;
};

}  // namespace reference

/// `stem` followed by decimal `n` (built by appending: GCC 12 reports a
/// false -Werror=restrict on `"literal" + std::string` in Release).
std::string numbered(std::string_view stem, long long n) {
  std::string s(stem);
  s += std::to_string(n);
  return s;
}

/// The inputs `LogicModel::add` requires of a gate of this kind.
std::size_t minInputs(GateKind k) {
  switch (k) {
    case GateKind::Inv:
    case GateKind::Buf:
    case GateKind::Precharge: return 1;
    case GateKind::Latch:
    case GateKind::Drive: return 2;
    default: return 0;
  }
}

/// Drives the arena model and the reference with one seeded sequence of
/// building calls and checks that every call returns the same id.
class ModelPair {
 public:
  explicit ModelPair(std::uint64_t seed) : rng_(seed) {}

  void step(LogicModel& lm, reference::LogicModel& ref) {
    switch (pick(9)) {
      case 0:
      case 1: {
        const std::string name = anyName();
        ASSERT_EQ(lm.signal(name), ref.signal(name)) << name;
        break;
      }
      case 2: {
        const std::string stem = kStems[pick(std::size(kStems))];
        const int i = anyIndex();
        ASSERT_EQ(lm.signal(stem, i), ref.signal(numbered(stem, i))) << stem << i;
        break;
      }
      case 3: {
        const std::string hint = kHints[pick(std::size(kHints))];
        ASSERT_EQ(lm.internalSignal(hint), ref.internalSignal(hint)) << hint;
        break;
      }
      case 4: {
        if (ref.signalCount() == 0) break;
        const int s = anyId(ref);
        lm.markBus(s);
        ref.markBus(s);
        break;
      }
      case 5:
      case 6: {
        if (ref.signalCount() == 0) break;
        std::vector<int> in(pick(71));
        for (int& s : in) s = anyId(ref);
        const int out = anyId(ref);
        const std::string name = pick(3) == 0 ? std::string() : anyName();
        const auto kind = static_cast<GateKind>(pick(13));
        if (in.size() < minInputs(kind)) {
          // The model rejects a gate the simulator could not evaluate;
          // the reference never checked.
          EXPECT_THROW(lm.add(kind, in, out, name), std::invalid_argument);
          break;
        }
        lm.add(kind, in, out, name);
        ref.add(kind, in, out, name);
        break;
      }
      case 7: {
        // Names and inputs that view the model's own arrays.
        if (ref.signalCount() == 0) break;
        const int k = anyId(ref);
        const int i = anyIndex();
        ASSERT_EQ(lm.signal(lm.signalName(k), i), ref.signal(numbered(ref.signalName(k), i)));
        ASSERT_EQ(lm.internalSignal(lm.signalName(k)), ref.internalSignal(ref.signalName(k)));
        if (ref.gates().empty()) break;
        const std::size_t g = pick(ref.gates().size());
        const netlist::Gate& mine = lm.gates()[g];
        lm.add(mine.kind, lm.inputs(mine), mine.out, lm.nameOf(mine));
        const reference::Gate theirs = ref.gates()[g];
        ref.add(theirs.kind, theirs.in, theirs.out, theirs.name);
        if (ref.gates().size() > 1) {
          // A gate name that is no signal's, taken as a new signal's name.
          const std::string name = ref.gates()[g].name + "#";
          ASSERT_EQ(lm.signal(lm.nameOf(lm.gates()[g])), ref.signal(ref.gates()[g].name));
          ASSERT_EQ(lm.signal(name), ref.signal(name));
        }
        break;
      }
      default: {
        const std::string name = anyName();
        ASSERT_EQ(lm.findSignal(name), ref.findSignal(name)) << name;
        break;
      }
    }
  }

  /// Every observable of the two models agrees.
  static void expectSame(const LogicModel& lm, const reference::LogicModel& ref) {
    ASSERT_EQ(lm.signalCount(), ref.signalCount());
    ASSERT_EQ(lm.gates().size(), ref.gates().size());
    for (int k = 0; k < static_cast<int>(ref.signalCount()); ++k) {
      ASSERT_EQ(lm.signalName(k), ref.signalName(k)) << k;
      ASSERT_EQ(lm.isBus(k), ref.isBus(k)) << k;
      ASSERT_EQ(lm.findSignal(ref.signalName(k)), k);
      ASSERT_EQ(lm.findSignal(ref.signalName(k) + "?"), ref.findSignal(ref.signalName(k) + "?"));
    }
    for (std::size_t g = 0; g < ref.gates().size(); ++g) {
      const netlist::Gate& mine = lm.gates()[g];
      const reference::Gate& theirs = ref.gates()[g];
      ASSERT_EQ(mine.kind, theirs.kind);
      ASSERT_EQ(mine.out, theirs.out);
      ASSERT_EQ(std::vector<int>(lm.inputs(mine).begin(), lm.inputs(mine).end()), theirs.in);
      ASSERT_EQ(lm.nameOf(mine), theirs.name);
    }
    ASSERT_EQ(lm.toText(), ref.toText());
  }

 private:
  static constexpr const char* kStems[] = {"", "busA", "busB#2", "R0.m", "mc", "x$", "w$"};
  static constexpr const char* kHints[] = {"", "w", "A.pc", "A.f", "x"};

  std::size_t pick(std::size_t n) { return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_); }
  int anyId(const reference::LogicModel& ref) { return static_cast<int>(pick(ref.signalCount())); }

  int anyIndex() {
    static constexpr int kEdges[] = {INT_MIN, -1000, -7, -1, 0, 0, 1, 9, 10, 42, 12345, INT_MAX};
    if (pick(2) == 0) return kEdges[pick(std::size(kEdges))];
    return static_cast<int>(pick(40));
  }

  /// Plain names, and names an `internalSignal` call will also make, so
  /// later calls collide and take the `'` suffix.
  std::string anyName() {
    switch (pick(4)) {
      case 0: return numbered(kStems[pick(std::size(kStems))], static_cast<long long>(pick(30)));
      case 1: {
        std::string name = numbered(std::string(kHints[1 + pick(std::size(kHints) - 1)]) + "$",
                                    static_cast<long long>(pick(60)));
        if (pick(3) == 0) name += '\'';
        return name;
      }
      case 2: return numbered("w$", static_cast<long long>(pick(60)));
      default: {
        std::string name(pick(40), 'a');
        for (char& c : name) c = static_cast<char>('a' + pick(26));
        return name;
      }
    }
  }

  std::mt19937_64 rng_;
};

TEST(LogicModel, MatchesTheReferenceModelCallForCall) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    LogicModel lm;
    reference::LogicModel ref;
    ModelPair pair(seed);
    for (int i = 0; i < 1500; ++i) {
      pair.step(lm, ref);
      if (HasFatalFailure()) return;
      if (i % 250 == 0) ModelPair::expectSame(lm, ref);
      if (HasFatalFailure()) return;
    }
    ModelPair::expectSame(lm, ref);
    if (HasFatalFailure()) return;
    // A name viewing the model's own arena resolves to its own id.
    for (int k = 0; k < static_cast<int>(lm.signalCount()); ++k) {
      ASSERT_EQ(lm.signal(lm.signalName(k)), k);
    }
    EXPECT_EQ(lm.signalCount(), ref.signalCount());
  }
}

TEST(LogicModel, CopyAnswersLikeTheOriginalAfterItIsGone) {
  auto original = std::make_unique<LogicModel>();
  reference::LogicModel ref;
  ModelPair pair(99);
  for (int i = 0; i < 1200; ++i) {
    pair.step(*original, ref);
    if (HasFatalFailure()) return;
  }
  LogicModel copy = *original;  // as CompiledChip::clone() copies the chip's model
  original.reset();
  ModelPair::expectSame(copy, ref);
  if (HasFatalFailure()) return;
  // The copy keeps building independently, in step with the reference.
  for (int i = 0; i < 400; ++i) {
    pair.step(copy, ref);
    if (HasFatalFailure()) return;
  }
  ModelPair::expectSame(copy, ref);
}

TEST(LogicModel, ManyNamesKeepDistinctIds) {
  // Enough names that some share their table hash: each must still get
  // its own id, in first-seen order.
  constexpr int kNames = 1 << 18;
  LogicModel lm;
  for (int i = 0; i < kNames; ++i) ASSERT_EQ(lm.signal("n", i), i);
  ASSERT_EQ(lm.signalCount(), static_cast<std::size_t>(kNames));
  for (int i = 0; i < kNames; ++i) ASSERT_EQ(lm.findSignal(numbered("n", i)), i);
  EXPECT_EQ(lm.findSignal(numbered("n", kNames)), -1);
}

TEST(LogicModel, EmptyModelFindsNothing) {
  const LogicModel lm;
  EXPECT_EQ(lm.findSignal(""), -1);
  EXPECT_EQ(lm.findSignal("a"), -1);
  EXPECT_EQ(lm.signalCount(), 0u);
  EXPECT_EQ(lm.toText(), "logic diagram: 0 gates, 0 signals\n");
}

}  // namespace
}  // namespace bb::sim
