/// Simulator unit tests: level algebra, gates, latches, precharged-bus
/// resolution and the two-phase clock discipline.

#include "sim/clock.hpp"
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

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

TEST(LogicModel, MergeUnifiesByName) {
  LogicModel a;
  const int x = a.signal("shared");
  a.add(GateKind::Inv, {x}, a.signal("aout"));
  LogicModel b;
  const int y = b.signal("shared");
  b.markBus(y);
  b.add(GateKind::Inv, {y}, b.signal("bout"));
  a.merge(b);
  EXPECT_EQ(a.gates().size(), 2u);
  EXPECT_TRUE(a.isBus(a.findSignal("shared")));
  EXPECT_GE(a.findSignal("bout"), 0);
}

TEST(Simulator, ReadDriveBusHelpers) {
  LogicModel lm;
  for (char i = '0'; i < '4'; ++i) lm.signal(std::string{'v', i});
  Simulator sim(lm);
  sim.driveBus("v", 4, 0b1010);
  sim.settle();
  EXPECT_EQ(sim.readBus("v", 4), 0b1010u);
}

}  // namespace
}  // namespace bb::sim
