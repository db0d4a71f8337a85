/// Input-language tests: lexer, parser, semantic checks (through the
/// compile session, which validates what the parser read), conditional
/// assembly, and the decode-expression compiler (with exhaustive
/// parameterized sweeps — decode correctness is the decoder's contract).

#include "core/session.hpp"
#include "icl/eval.hpp"
#include "icl/parser.hpp"

#include <gtest/gtest.h>

namespace bb::icl {
namespace {

const char* kGood = R"(
chip demo;
var PROTO = true;
microcode width 8 {
  field op  [0:2];
  field sel [3:4];
  field imm [5:7];
}
data width 8;
buses A, B;
core {
  register R0 (in = A, out = B, load = "op==1", drive = "op==2");
  if PROTO {
    probe P (bus = A, bit = 0);
  } else {
    constant C (bus = A, value = 3, drive = "op==3");
  }
}
)";

TEST(Lexer, TokensAndComments) {
  DiagnosticList d;
  auto toks = tokenize("foo 0x1F 42 == != ! & | # comment\n\"str\" ;", d);
  ASSERT_FALSE(d.hasErrors());
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, TokKind::Ident);
  EXPECT_EQ(toks[1].number, 31);
  EXPECT_EQ(toks[2].number, 42);
  EXPECT_EQ(toks[3].kind, TokKind::EqEq);
  EXPECT_EQ(toks[4].kind, TokKind::BangEq);
  EXPECT_EQ(toks[5].kind, TokKind::Bang);
  EXPECT_EQ(toks[8].kind, TokKind::String);
  EXPECT_EQ(toks[8].text, "str");
}

TEST(Lexer, ErrorsReported) {
  DiagnosticList d;
  (void)tokenize("\"unterminated", d);
  EXPECT_TRUE(d.hasErrors());
  DiagnosticList d2;
  (void)tokenize("@", d2);
  EXPECT_TRUE(d2.hasErrors());
}

TEST(Parser, GoodChipParses) {
  DiagnosticList d;
  auto chip = parseChip(kGood, d);
  ASSERT_TRUE(chip.has_value()) << d.toString();
  EXPECT_EQ(chip->name, "demo");
  EXPECT_EQ(chip->microcode.width, 8);
  EXPECT_EQ(chip->microcode.fields.size(), 3u);
  EXPECT_EQ(chip->dataWidth, 8);
  EXPECT_EQ(chip->buses.size(), 2u);
  EXPECT_EQ(chip->core.size(), 2u);
  EXPECT_TRUE(chip->vars.at("PROTO"));
}

/// The diagnostics of compiling `src`, which must fail. `parseChip`
/// checks syntax only; the compile session's parse stage runs the one
/// description validator on what it parsed.
std::string compileErrors(std::string_view src) {
  auto result = core::compileChip(src);
  EXPECT_FALSE(result.hasValue());
  EXPECT_TRUE(result.diagnostics().hasErrors());
  return result.diagnostics().toString();
}

/// `kGood` with its `data width 8` replaced by `data width <width>`.
std::string withDataWidth(std::string_view width) {
  std::string src = kGood;
  const std::string from = "data width 8";
  return src.replace(src.find(from), from.size(), "data width " + std::string(width));
}

TEST(Parser, ReportsOverlappingFields) {
  const char* src =
      "chip x; microcode width 8 { field a [0:3]; field b [3:5]; } data width 4; buses A; "
      "core { register R (in=A, out=A, load=\"a==0\", drive=\"a==1\"); }";
  DiagnosticList d;
  EXPECT_TRUE(parseChip(src, d).has_value()) << d.toString();  // syntax is fine
  EXPECT_NE(compileErrors(src).find("overlaps"), std::string::npos);
}

TEST(Parser, ReportsFieldOutOfRange) {
  EXPECT_NE(compileErrors("chip x; microcode width 4 { field a [0:5]; } data width 4; "
                          "buses A; core { }")
                .find("exceed"),
            std::string::npos);
}

TEST(Parser, ReportsDuplicateElementNames) {
  EXPECT_NE(compileErrors("chip x; microcode width 4 { field a [0:1]; } data width 4; "
                          "buses A; core { register R (load=\"a==0\", drive=\"a==1\"); "
                          "register R; }")
                .find("duplicate element"),
            std::string::npos);
}

TEST(Parser, ReportsMissingSections) {
  DiagnosticList d;
  auto chip = parseChip("chip x;", d);
  EXPECT_FALSE(chip.has_value());
  const std::string s = d.toString();
  EXPECT_NE(s.find("microcode"), std::string::npos);
  EXPECT_NE(s.find("buses"), std::string::npos);
}

TEST(Parser, RecoversToReportMultipleErrors) {
  auto result = core::compileChip(
      "chip x; microcode width 4 { field a [0:9]; field a [0:1]; } data width 999; buses A; "
      "core { }");
  ASSERT_FALSE(result.hasValue());
  EXPECT_GE(result.diagnostics().count(Severity::Error), 3u) << result.diagnostics().toString();
}

TEST(Parser, SyntaxErrorsHideSemanticOnes) {
  // A missing ';' stops the compile at parsing: the duplicate bus is
  // never reported, because only a parsed description is validated.
  std::string src = kGood;
  src.replace(src.find("buses A, B;"), 11, "buses A, A");
  const std::string errors = compileErrors(src);
  EXPECT_NE(errors.find("expected ';'"), std::string::npos) << errors;
  EXPECT_EQ(errors.find("duplicate bus"), std::string::npos) << errors;
}

TEST(Parser, ReportsNumbersPastLongLong) {
  for (const char* width : {"99999999999999999999999", "0x10000000000000000"}) {
    DiagnosticList d;
    EXPECT_FALSE(parseChip(withDataWidth(width), d).has_value()) << width;
    EXPECT_NE(d.toString().find("too large for a 64-bit integer"), std::string::npos)
        << d.toString();
  }
}

TEST(Parser, ReportsNumbersPastInt) {
  // Narrowed to `int`, 4294967300 would read as a 4-bit data path.
  EXPECT_NE(compileErrors(withDataWidth("4294967300"))
                .find("data width 4294967300 is out of range"),
            std::string::npos);
  std::string src = kGood;
  src.replace(src.find("[0:2]"), 5, "[999999999990:2]");
  EXPECT_NE(compileErrors(src).find("low bit 999999999990 is out of range"), std::string::npos);
}

TEST(Parser, KeepsBitRangesAsWritten) {
  // `[5:3]` is not silently read as `[3:5]`: the validator rejects it,
  // exactly as it rejects the same field built with ChipBuilder.
  std::string src = kGood;
  src.replace(src.find("[5:7]"), 5, "[7:5]");
  DiagnosticList d;
  auto chip = parseChip(src, d);
  ASSERT_TRUE(chip.has_value()) << d.toString();
  EXPECT_EQ(chip->microcode.fields[2].lo, 7);
  EXPECT_NE(compileErrors(src).find("bad bit range [7:5]"), std::string::npos);
}

TEST(CondAssembly, SelectsArmByVariable) {
  DiagnosticList d;
  auto chip = parseChip(kGood, d);
  ASSERT_TRUE(chip.has_value());
  auto withProto = assembleCore(*chip, {}, d);
  ASSERT_FALSE(d.hasErrors());
  ASSERT_EQ(withProto.size(), 2u);
  EXPECT_EQ(withProto[1].kind, "probe");
  auto without = assembleCore(*chip, {{"PROTO", false}}, d);
  ASSERT_EQ(without.size(), 2u);
  EXPECT_EQ(without[1].kind, "constant");
}

TEST(CondAssembly, UnknownVariableDiagnosed) {
  DiagnosticList d;
  auto chip = parseChip(
      "chip x; microcode width 4 { field a [0:1]; } data width 4; buses A; "
      "core { if NOPE { register R (load=\"a==0\", drive=\"a==1\"); } }",
      d);
  ASSERT_TRUE(chip.has_value()) << d.toString();
  (void)assembleCore(*chip, {}, d);
  EXPECT_TRUE(d.hasErrors());
}

// --- decode expressions ---------------------------------------------------

MicrocodeDecl mc8() {
  MicrocodeDecl m;
  m.width = 8;
  m.fields = {{"op", 0, 2, {}}, {"flag", 3, 3, {}}, {"sel", 4, 6, {}}};
  return m;
}

/// Reference evaluator: parse-independent semantics of the expression
/// language over a concrete word.
bool refOp(unsigned long long w, int lo, int hi, long long v) {
  const unsigned long long field = (w >> lo) & ((1ull << (hi - lo + 1)) - 1);
  return field == static_cast<unsigned long long>(v);
}

class DecodeSweep : public ::testing::TestWithParam<unsigned long long> {};

TEST_P(DecodeSweep, MatchesReference) {
  const MicrocodeDecl m = mc8();
  DiagnosticList d;
  const unsigned long long w = GetParam();
  struct Case {
    const char* expr;
    bool expected;
  };
  const Case cases[] = {
      {"op==3", refOp(w, 0, 2, 3)},
      {"op!=3", !refOp(w, 0, 2, 3)},
      {"flag", refOp(w, 3, 3, 1)},
      {"!flag", refOp(w, 3, 3, 0)},
      {"op==1 & sel==5", refOp(w, 0, 2, 1) && refOp(w, 4, 6, 5)},
      {"op==1 | op==2", refOp(w, 0, 2, 1) || refOp(w, 0, 2, 2)},
      {"(op==1 | op==2) & !flag",
       (refOp(w, 0, 2, 1) || refOp(w, 0, 2, 2)) && refOp(w, 3, 3, 0)},
      {"1", true},
      {"0", false},
      {"op==1 & op==2", false},  // contradiction
  };
  for (const Case& c : cases) {
    const SumOfProducts sop = compileDecode(c.expr, m, d);
    ASSERT_FALSE(d.hasErrors()) << c.expr << ": " << d.toString();
    EXPECT_EQ(sop.matches(w), c.expected) << c.expr << " on word " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWords, DecodeSweep,
                         ::testing::Range<unsigned long long>(0, 256));

TEST(Decode, ErrorsDiagnosed) {
  const MicrocodeDecl m = mc8();
  {
    DiagnosticList d;
    (void)compileDecode("nosuch==1", m, d);
    EXPECT_TRUE(d.hasErrors());
  }
  {
    DiagnosticList d;
    (void)compileDecode("op", m, d);  // bare multi-bit field
    EXPECT_TRUE(d.hasErrors());
  }
  {
    DiagnosticList d;
    (void)compileDecode("op==9", m, d);  // out of range
    EXPECT_TRUE(d.hasErrors());
  }
}

TEST(Cube, IntersectAndLiterals) {
  const MicrocodeDecl m = mc8();
  DiagnosticList d;
  const SumOfProducts a = compileDecode("op==1", m, d);
  ASSERT_EQ(a.cubes.size(), 1u);
  EXPECT_EQ(a.cubes[0].literals(), 3);
  const SumOfProducts b = compileDecode("flag", m, d);
  auto i = a.cubes[0].intersect(b.cubes[0]);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(i->literals(), 4);
  // Conflicting cubes have no intersection.
  const SumOfProducts c = compileDecode("op==2", m, d);
  EXPECT_FALSE(a.cubes[0].intersect(c.cubes[0]).has_value());
}

}  // namespace
}  // namespace bb::icl
