/// \file samples.hpp
/// Canonical one-page chip descriptions, shared by tests, benches and
/// examples. Each is a complete Bristle Blocks input — microcode format,
/// data/bus section, core element list — built programmatically with
/// `icl::ChipBuilder` and returned as a typed `icl::ChipDesc`, ready for
/// `CompileSession` / `compileChip` / `BatchCompiler` without parsing text.
/// The `*Source()` wrappers render the same descriptions as ICL text for
/// parser round-trip tests (`parseChip(smallChipSource()) == smallChip()`).

#pragma once

#include "icl/builder.hpp"

#include <string>

namespace bb::core::samples {

/// A small accumulator machine: 2 registers, ALU, I/O — the "small chip"
/// of the paper's timing claim.
///
/// Instruction set (op field):
///   1 LOADRA   pads -> bus A -> RA
///   2 LOADACC  pads -> bus A -> ACC (via ALU passa on the next STORE)
///   3 OPERANDS pads -> bus A -> ALU.a; RA -> bus B -> ALU.b; compute
///   4 STORE    ALU result -> bus A -> ACC
///   5 OUT      ACC -> bus B -> output pads
inline icl::ChipDesc smallChip(int dataWidth = 4) {
  using namespace bb::icl;
  return ChipBuilder("small")
      .microcode(8, {field("op", 0, 2), field("sel", 3, 3),
                     field("misc", 4, 7)})  // misc: ALU operation select
      .dataWidth(dataWidth)
      .buses({"A", "B"})
      .element("inport", "IN",
               {{"bus", sym("A")}, {"drive", expr("op==1 | op==2 | op==3")}})
      .element("register", "RA",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==1")},
                {"drive", expr("op==3")}})
      .element("alu", "ALU",
               {{"a", sym("A")}, {"b", sym("B")}, {"out", sym("A")},
                {"op", sym("misc")}, {"ops", syms({"add", "and", "or", "passa"})},
                {"load", expr("op==3")}, {"drive", expr("op==4")}})
      .element("register", "ACC",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==4")},
                {"drive", expr("op==5")}})
      .element("outport", "OUT", {{"bus", sym("B")}, {"sample", expr("op==5")}})
      .buildOrDie();
}

/// A "fairly large" chip: register file, two working registers, ALU,
/// shifter, constants and both ports.
inline icl::ChipDesc largeChip(int dataWidth = 16, int regs = 8) {
  using namespace bb::icl;
  return ChipBuilder("large")
      .var("PROTOTYPE", false)
      .microcode(16, {field("op", 0, 3), field("rsel", 4, 7), field("aluop", 8, 10),
                      field("shc", 11, 11), field("misc", 12, 15)})
      .dataWidth(dataWidth)
      .buses({"A", "B"})
      .element("inport", "IN", {{"bus", sym("A")}, {"drive", expr("op==1 | op==2")}})
      .element("regfile", "RF",
               {{"n", num(regs)}, {"select", sym("rsel")}, {"in", sym("A")},
                {"out", sym("B")}, {"write", expr("op==2")}, {"read", expr("op==3")}})
      .element("register", "T1",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==4")},
                {"drive", expr("op==5")}})
      .element("register", "T2",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==6")},
                {"drive", expr("op==7")}})
      .element("alu", "ALU",
               {{"a", sym("A")}, {"b", sym("B")}, {"out", sym("A")},
                {"op", sym("aluop")},
                {"ops", syms({"add", "sub", "and", "or", "xor", "passa"})},
                {"load", expr("op==8")}, {"drive", expr("op==9")}})
      .element("shifter", "SH",
               {{"in", sym("A")}, {"out", sym("B")}, {"dist", num(1)},
                {"load", expr("op==10")}, {"drive", expr("op==11")}})
      .element("constant", "ONE",
               {{"bus", sym("B")}, {"value", num(1)}, {"drive", expr("op==12")}})
      .element("outport", "OUT", {{"bus", sym("B")}, {"sample", expr("op==13")}})
      .when("PROTOTYPE", {item("probe", "PC", {{"bus", sym("A")}, {"bit", num(0)}})})
      .buildOrDie();
}

/// The conditional-assembly demo of the paper: a PROTOTYPE flag that
/// routes internal state to pads on prototype chips only.
inline icl::ChipDesc prototypeChip() {
  using namespace bb::icl;
  return ChipBuilder("proto")
      .var("PROTOTYPE", true)
      .microcode(8, {field("op", 0, 2), field("x", 3, 7)})
      .dataWidth(8)
      .buses({"A", "B"})
      .element("inport", "IN", {{"bus", sym("A")}, {"drive", expr("op==1")}})
      .element("register", "R0",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==2")},
                {"drive", expr("op==3")}})
      .element("outport", "OUT", {{"bus", sym("B")}, {"sample", expr("op==3")}})
      .when("PROTOTYPE", {item("probe", "P0", {{"bus", sym("A")}, {"bit", num(0)}}),
                          item("probe", "P1", {{"bus", sym("A")}, {"bit", num(7)}})})
      .buildOrDie();
}

/// A chip exercising bus stops: the B bus is segmented in the middle.
inline icl::ChipDesc segmentedChip(int dataWidth = 8) {
  using namespace bb::icl;
  return ChipBuilder("segmented")
      .microcode(8, {field("op", 0, 3), field("x", 4, 7)})
      .dataWidth(dataWidth)
      .buses({"A", "B"})
      .element("inport", "IN", {{"bus", sym("A")}, {"drive", expr("op==1")}})
      .element("register", "R0",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==2")},
                {"drive", expr("op==3")}})
      .element("outport", "O1", {{"bus", sym("B")}, {"sample", expr("op==3")}})
      .element("busstop", "BS", {{"bus", sym("B")}})
      .element("register", "R1",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==4")},
                {"drive", expr("op==5")}})
      .element("outport", "O2", {{"bus", sym("B")}, {"sample", expr("op==5")}})
      .buildOrDie();
}

// ---- textual forms ------------------------------------------------------
// Thin wrappers for the parser path: the same descriptions rendered as
// ICL source. Kept for parser/round-trip tests and the string-frontend
// benches; everything else should take the typed values above.

inline std::string smallChipSource(int dataWidth = 4) {
  return smallChip(dataWidth).toString();
}
inline std::string largeChipSource(int dataWidth = 16, int regs = 8) {
  return largeChip(dataWidth, regs).toString();
}
inline std::string prototypeChipSource() { return prototypeChip().toString(); }
inline std::string segmentedChipSource(int dataWidth = 8) {
  return segmentedChip(dataWidth).toString();
}

}  // namespace bb::core::samples
