/// \file pass2_tapes.hpp
/// The two-tape machine of Pass 2. Quoting the paper: "a text array is
/// constructed which specifies the decode functions needed for each
/// buffer. A two-tape Turing machine operates on one 'tape', which
/// contains the text array, and writes the second 'tape', producing
/// compiled silicon code. When it has finished operating on the array,
/// the Turing machine will have generated and optimized the instruction
/// decoder, and created pad connections for the inputs to the decoder."
///
/// Tape one holds the text array (one decode function per control
/// buffer); tape two receives silicon-code instructions that the PLA
/// renderer in pass2_control.cpp interprets into mask geometry.

#pragma once

#include "core/pla.hpp"
#include "icl/diagnostics.hpp"

#include <string>
#include <vector>

namespace bb::core {

/// One entry of the text array.
struct TextArrayEntry {
  std::string control;  ///< control line name
  std::string decode;   ///< decode function text
  int phase = 1;
};

/// Silicon-code instruction set written to the output tape.
enum class SilOp : std::uint8_t {
  Header,     ///< a = input width, b = output count
  InputCol,   ///< a = microcode bit (true+complement column pair)
  Term,       ///< a = term index: begin a PLA row
  CrossAnd,   ///< a = microcode bit, b = required value (AND-plane point)
  TermLoad,   ///< row pull-up at the end of a term row
  CrossOr,    ///< a = term index, b = output index (OR-plane point)
  OutputCol,  ///< a = output index (control column + output inverter)
  PadConn,    ///< a = microcode bit: create the pad connection point
  End,
};

struct SilInstr {
  SilOp op = SilOp::End;
  int a = 0;
  int b = 0;
};

/// Machine statistics — evidence that the optimizer did its passes.
struct TapeStats {
  std::size_t inputEntries = 0;
  std::size_t rawCubes = 0;       ///< cubes before optimization
  std::size_t sharedTerms = 0;    ///< terms after sharing, before merging
  std::size_t finalTerms = 0;     ///< terms after merge passes
  int mergePasses = 0;
  long long headMoves = 0;        ///< total tape-head movement
  std::size_t outputInstrs = 0;
};

/// Run the machine: read the text array, compile each decode function
/// against the microcode format, build + optimize the PLA, and write the
/// silicon-code tape. Decode errors are diagnosed per entry.
class TwoTapeMachine {
 public:
  TwoTapeMachine(std::vector<TextArrayEntry> textArray, const icl::MicrocodeDecl& mc);

  /// Execute to completion. Returns false if any decode failed.
  bool run(icl::DiagnosticList& diags);

  [[nodiscard]] const Pla& pla() const noexcept { return pla_; }
  [[nodiscard]] const std::vector<SilInstr>& outputTape() const noexcept { return out_; }
  [[nodiscard]] const TapeStats& stats() const noexcept { return stats_; }

 private:
  void emit(SilOp op, int a = 0, int b = 0) {
    out_.push_back({op, a, b});
    ++stats_.outputInstrs;
  }

  std::vector<TextArrayEntry> tape1_;
  const icl::MicrocodeDecl& mc_;
  Pla pla_;
  std::vector<SilInstr> out_;
  TapeStats stats_;
};

}  // namespace bb::core
