/// Tests for the programmatic ChipBuilder frontend: fluent construction,
/// build-time validation (Expected + diagnostics, never an assert), and
/// the two-frontend contract — for every sample and a builder edge-case
/// chip, `parseChip(desc.toString())` reproduces an equivalent ChipDesc
/// and compiles a bit-identical chip (CIF bytes) to the string path.

#include "core/digest.hpp"
#include "core/fingerprint.hpp"
#include "core/samples.hpp"
#include "core/session.hpp"
#include "icl/builder.hpp"
#include "icl/parser.hpp"
#include "reps/emitter.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace bb {
namespace {

using namespace bb::icl;

std::string cifOf(const core::CompiledChip& chip) {
  std::ostringstream os;
  EXPECT_TRUE(reps::EmitterRegistry::global().emit(chip, "cif", os));
  return os.str();
}

/// The contract of the two frontends, asserted per description:
///  - toString() parses back to an equivalent description, and
///  - the typed path and the string path compile bit-identical masks.
void expectRoundTrip(const ChipDesc& desc, core::CompileOptions opts = {}) {
  const std::string src = desc.toString();

  DiagnosticList diags;
  auto parsed = parseChip(src, diags);
  ASSERT_TRUE(parsed.has_value()) << desc.name << ":\n" << diags.toString() << src;
  EXPECT_EQ(parsed->toString(), src) << desc.name;
  EXPECT_EQ(parsed->name, desc.name);
  EXPECT_EQ(parsed->dataWidth, desc.dataWidth);
  EXPECT_EQ(parsed->buses, desc.buses);
  EXPECT_EQ(parsed->vars, desc.vars);
  EXPECT_EQ(parsed->microcode.width, desc.microcode.width);
  ASSERT_EQ(parsed->microcode.fields.size(), desc.microcode.fields.size());
  for (std::size_t i = 0; i < desc.microcode.fields.size(); ++i) {
    EXPECT_EQ(parsed->microcode.fields[i].name, desc.microcode.fields[i].name);
    EXPECT_EQ(parsed->microcode.fields[i].lo, desc.microcode.fields[i].lo);
    EXPECT_EQ(parsed->microcode.fields[i].hi, desc.microcode.fields[i].hi);
  }

  auto viaDesc = core::compileChip(desc, opts);
  ASSERT_TRUE(viaDesc) << desc.name << ":\n" << viaDesc.diagnostics().toString();
  auto viaText = core::compileChip(src, opts);
  ASSERT_TRUE(viaText) << desc.name << ":\n" << viaText.diagnostics().toString();
  EXPECT_EQ(cifOf(**viaDesc), cifOf(**viaText))
      << desc.name << ": typed and string frontends diverge";
}

TEST(BuilderRoundTrip, EverySample) {
  expectRoundTrip(core::samples::smallChip(4));
  expectRoundTrip(core::samples::smallChip(16));
  expectRoundTrip(core::samples::largeChip(16, 8));
  expectRoundTrip(core::samples::largeChip(8, 4));
  expectRoundTrip(core::samples::prototypeChip());
  expectRoundTrip(core::samples::segmentedChip(8));
}

TEST(BuilderRoundTrip, SampleSourceWrappersRenderTheSameDescription) {
  EXPECT_EQ(core::samples::smallChipSource(4),
            core::samples::smallChip(4).toString());
  EXPECT_EQ(core::samples::largeChipSource(16, 8),
            core::samples::largeChip(16, 8).toString());
  EXPECT_EQ(core::samples::prototypeChipSource(),
            core::samples::prototypeChip().toString());
  EXPECT_EQ(core::samples::segmentedChipSource(8),
            core::samples::segmentedChip(8).toString());
}

TEST(BuilderRoundTrip, ConditionalEdgeCases) {
  // else branches, negated conditions, and a nested conditional — the
  // full shape of the paper's conditional assembly, built fluently.
  const ChipDesc desc =
      ChipBuilder("edges")
          .var("PROTOTYPE", true)
          .var("WIDE", false)
          .microcode(8, {field("op", 0, 3), field("x", 4, 7)})
          .dataWidth(4)
          .buses({"A", "B"})
          .element("inport", "IN", {{"bus", sym("A")}, {"drive", expr("op==1")}})
          .element("register", "R0",
                   {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==2")},
                    {"drive", expr("op==3")}})
          .when("PROTOTYPE",
                {item("probe", "P0", {{"bus", sym("A")}, {"bit", num(0)}}),
                 cond("WIDE", {item("probe", "PW", {{"bus", sym("B")}, {"bit", num(3)}})})})
          .elseItems({item("probe", "PP", {{"bus", sym("B")}, {"bit", num(1)}})})
          .whenNot("WIDE", {item("probe", "PN", {{"bus", sym("A")}, {"bit", num(2)}})})
          .element("outport", "OUT", {{"bus", sym("B")}, {"sample", expr("op==3")}})
          .buildOrDie();

  expectRoundTrip(desc);
  expectRoundTrip(desc, core::CompileOptions::builder().var("PROTOTYPE", false).build());
  expectRoundTrip(desc, core::CompileOptions::builder().var("WIDE", true).build());
}

TEST(BuilderRoundTrip, CanonicalToStringIgnoresConstructionOrder) {
  // toString() is the hashing contract of the content-addressed chip
  // cache: the same design built with vars and element parameters in
  // different orders must render byte-identically and digest equally.
  const ChipDesc a =
      ChipBuilder("canon")
          .var("ALPHA", true)
          .var("BETA", false)
          .microcode(4, {field("op", 0, 3)})
          .dataWidth(4)
          .buses({"A", "B"})
          .element("register", "R0",
                   {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==1")},
                    {"drive", expr("op==2")}})
          .buildOrDie();
  const ChipDesc b =
      ChipBuilder("canon")
          .var("BETA", false)
          .var("ALPHA", true)
          .microcode(4, {field("op", 0, 3)})
          .dataWidth(4)
          .buses({"A", "B"})
          .element("register", "R0",
                   {{"drive", expr("op==2")}, {"load", expr("op==1")},
                    {"out", sym("B")}, {"in", sym("A")}})
          .buildOrDie();
  EXPECT_EQ(a.toString(), b.toString());
  EXPECT_EQ(core::Digest::of(a.toString()), core::Digest::of(b.toString()));
  EXPECT_EQ(core::requestDigest(a, {}), core::requestDigest(b, {}));

  // Order that carries meaning must keep changing the rendering: buses
  // index columns and element order is placement order.
  const ChipDesc swapped =
      ChipBuilder("canon")
          .var("ALPHA", true)
          .var("BETA", false)
          .microcode(4, {field("op", 0, 3)})
          .dataWidth(4)
          .buses({"B", "A"})
          .element("register", "R0",
                   {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==1")},
                    {"drive", expr("op==2")}})
          .buildOrDie();
  EXPECT_NE(a.toString(), swapped.toString());
  EXPECT_NE(core::requestDigest(a, {}), core::requestDigest(swapped, {}));
}

TEST(BuilderRoundTrip, SameNameInBothBranchesIsAllowed) {
  // The two branches of one conditional are mutually exclusive: the
  // same instance name on both sides is a valid description.
  auto result = ChipBuilder("twin")
                    .microcode(4, {field("op", 0, 3)})
                    .dataWidth(4)
                    .bus("A")
                    .element("inport", "IN", {{"bus", sym("A")}, {"drive", expr("op==1")}})
                    .when("FAST", {item("probe", "P", {{"bus", sym("A")}, {"bit", num(0)}})})
                    .elseItems({item("probe", "P", {{"bus", sym("A")}, {"bit", num(1)}})})
                    .build();
  ASSERT_TRUE(result.hasValue()) << result.diagnostics().toString();
  // Its text is just as valid: it parses and, with either arm
  // assembled, compiles bit-identically to the typed description.
  for (const bool fast : {true, false}) {
    expectRoundTrip(*result, core::CompileOptions::builder().var("FAST", fast).build());
  }

  // ...but reusing a branch name afterwards is a duplicate.
  auto dup = ChipBuilder("twin")
                 .microcode(4, {field("op", 0, 3)})
                 .dataWidth(4)
                 .bus("A")
                 .when("FAST", {item("probe", "P", {{"bus", sym("A")}, {"bit", num(0)}})})
                 .element("probe", "P", {{"bus", sym("A")}, {"bit", num(1)}})
                 .build();
  EXPECT_FALSE(dup.hasValue());
  EXPECT_NE(dup.diagnostics().toString().find("duplicate element name 'P'"),
            std::string::npos)
      << dup.diagnostics().toString();
}

// ---- validation: invalid input surfaces diagnostics ---------------------

/// Expects a failed build whose diagnostics mention `needle`.
void expectBuildError(const core::Expected<ChipDesc>& result, std::string_view needle) {
  ASSERT_FALSE(result.hasValue());
  EXPECT_TRUE(result.diagnostics().hasErrors());
  EXPECT_NE(result.diagnostics().toString().find(needle), std::string::npos)
      << "diagnostics do not mention '" << needle << "':\n"
      << result.diagnostics().toString();
}

/// A minimal valid chip to perturb in each negative test.
ChipBuilder validChip() {
  ChipBuilder b("ok");
  b.microcode(8, {field("op", 0, 3)})
      .dataWidth(4)
      .bus("A")
      .element("inport", "IN", {{"bus", sym("A")}, {"drive", expr("op==1")}})
      .element("outport", "OUT", {{"bus", sym("A")}, {"sample", expr("op==2")}});
  return b;
}

TEST(BuilderValidation, MinimalChipBuilds) {
  auto result = validChip().build();
  ASSERT_TRUE(result.hasValue()) << result.diagnostics().toString();
  EXPECT_FALSE(result.diagnostics().hasErrors());
}

TEST(BuilderValidation, DuplicateFieldName) {
  auto result = ChipBuilder("c")
                    .microcode(8, {field("op", 0, 3), field("op", 4, 7)})
                    .dataWidth(4)
                    .bus("A")
                    .element("inport", "IN", {{"bus", sym("A")}, {"drive", expr("op==1")}})
                    .build();
  expectBuildError(result, "duplicate microcode field 'op'");
}

TEST(BuilderValidation, BadBitRanges) {
  expectBuildError(validChip().field("rev", 5, 2).build(), "bad bit range [5:2]");
  expectBuildError(validChip().field("neg", -1, 2).build(), "bad bit range [-1:2]");
  expectBuildError(validChip().field("wide", 4, 8).build(),
                   "exceed microcode width 8");
}

TEST(BuilderValidation, EmptyCore) {
  auto result =
      ChipBuilder("hollow").microcode(8, {field("op", 0, 3)}).dataWidth(4).bus("A").build();
  expectBuildError(result, "core is empty");
}

TEST(BuilderValidation, EmptySectionsAndNames) {
  expectBuildError(ChipBuilder("").microcode(8).dataWidth(4).bus("A")
                       .element("inport", "IN", {})
                       .build(),
                   "chip name is empty");
  expectBuildError(validChip().microcode(0).build(), "microcode width must be positive");
  expectBuildError(validChip().dataWidth(0).build(), "data width must be positive");
  expectBuildError(ChipBuilder("nobus").microcode(8, {field("op", 0, 3)})
                       .dataWidth(4)
                       .element("inport", "IN", {})
                       .build(),
                   "declares no buses");
  expectBuildError(validChip().element("", "X", {}).build(), "empty kind");
  expectBuildError(validChip().element("probe", "", {}).build(), "empty name");
}

TEST(BuilderValidation, DuplicatesEverywhere) {
  expectBuildError(validChip().bus("A").build(), "duplicate bus 'A'");
  expectBuildError(validChip().var("V", true).var("V", false).build(),
                   "variable 'V' declared twice");
  expectBuildError(validChip().element("probe", "IN", {{"bus", sym("A")}}).build(),
                   "duplicate element name 'IN'");
  expectBuildError(
      validChip().element("probe", "P", {{"bit", num(0)}, {"bit", num(1)}}).build(),
      "parameter 'bit' given twice");
  // Duplicate keys are caught through every construction path, not just
  // element(): items nested in conditionals and else branches too.
  expectBuildError(
      validChip()
          .when("V", {item("probe", "P", {{"bit", num(0)}, {"bit", num(7)}})})
          .build(),
      "parameter 'bit' given twice");
  expectBuildError(
      validChip()
          .when("V", {cond("W", {item("probe", "P", {{"bus", sym("A")}, {"bus", sym("A")}})})})
          .build(),
      "parameter 'bus' given twice");
  expectBuildError(
      validChip()
          .when("V", {item("probe", "P1", {})})
          .elseItems({item("probe", "P2", {{"bit", num(0)}, {"bit", num(1)}})})
          .build(),
      "parameter 'bit' given twice");
}

TEST(BuilderValidation, ElseWithoutWhen) {
  expectBuildError(validChip().elseItems({item("probe", "P", {})}).build(),
                   "elseItems() without a preceding when()");
  // An elseItems after a plain element is just as wrong.
  auto result = validChip()
                    .element("probe", "P", {{"bus", sym("A")}, {"bit", num(0)}})
                    .elseItems({})
                    .build();
  EXPECT_FALSE(result.hasValue());
  // A second else on the same conditional is rejected too.
  auto twice = validChip()
                   .when("V", {item("probe", "P1", {})})
                   .elseItems({item("probe", "P2", {})})
                   .elseItems({item("probe", "P3", {})})
                   .build();
  expectBuildError(twice, "already has an else branch");
}

TEST(BuilderValidation, ErrorsAreCollectedNotShortCircuited) {
  // Several independent problems surface in one build() call, like the
  // parser's error recovery reporting multiple errors in one run.
  auto result = ChipBuilder("")
                    .microcode(0, {field("op", 0, 3), field("op", 0, 3)})
                    .dataWidth(-2)
                    .build();
  ASSERT_FALSE(result.hasValue());
  const std::string text = result.diagnostics().toString();
  for (const char* needle :
       {"chip name is empty", "microcode width must be positive",
        "duplicate microcode field 'op'", "data width must be positive",
        "declares no buses", "core is empty"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << " missing in:\n" << text;
  }
}

TEST(BuilderValidation, ValidateChipDescWorksOnHandMadeDescriptions) {
  ChipDesc desc;  // default-constructed: everything missing
  DiagnosticList diags;
  EXPECT_FALSE(validateChipDesc(desc, diags));
  EXPECT_TRUE(diags.hasErrors());

  DiagnosticList clean;
  EXPECT_TRUE(validateChipDesc(core::samples::smallChip(4), clean));
  EXPECT_FALSE(clean.hasErrors());
}

}  // namespace
}  // namespace bb
