/// Element generator tests: structure, controls, pads, power, voting and
/// per-kind behaviour (parameterized over data widths).

#include "elements/generators.hpp"
#include "elements/slicekit.hpp"
#include "icl/parser.hpp"

#include <gtest/gtest.h>

namespace bb::elements {
namespace {

icl::ChipDesc descFor(int dataWidth) {
  icl::DiagnosticList d;
  auto chip = icl::parseChip(
      "chip t; microcode width 8 { field op [0:3]; field sel [4:7]; } data width " +
          std::to_string(dataWidth) +
          "; buses A, B; core { register R (in=A,out=B,load=\"op==1\",drive=\"op==2\"); }",
      d);
  EXPECT_TRUE(chip.has_value()) << d.toString();
  return *chip;
}

icl::ElementDecl declOf(const std::string& src, const icl::ChipDesc& chip) {
  icl::DiagnosticList d;
  auto full = icl::parseChip(
      "chip t; microcode width 8 { field op [0:3]; field sel [4:7]; } data width " +
          std::to_string(chip.dataWidth) + "; buses A, B; core { " + src + " }",
      d);
  EXPECT_TRUE(full.has_value()) << d.toString();
  return std::get<icl::ElementDecl>(full->core.at(0).node);
}

class ElementsW : public ::testing::TestWithParam<int> {
 protected:
  GeneratedElement gen(const std::string& src) {
    chip_ = descFor(GetParam());
    decl_ = declOf(src, chip_);
    icl::DiagnosticList d;
    elem_ = makeElement(decl_, chip_, d);
    EXPECT_NE(elem_, nullptr) << d.toString();
    ctx_.dataWidth = chip_.dataWidth;
    ctx_.busCount = 2;
    ctx_.microcode = &chip_.microcode;
    ctx_.lib = &lib_;
    ctx_.pitch = elem_->naturalPitch(ctx_);
    return elem_->generate(ctx_);
  }

  icl::ChipDesc chip_;
  icl::ElementDecl decl_;
  std::unique_ptr<Element> elem_;
  cell::CellLibrary lib_;
  ElementContext ctx_;
};

TEST_P(ElementsW, RegisterStructure) {
  const GeneratedElement ge =
      gen("register R (in=A, out=B, load=\"op==1\", drive=\"op==2\");");
  ASSERT_NE(ge.column, nullptr);
  EXPECT_EQ(ge.column->height(), ctx_.pitch * GetParam());
  ASSERT_EQ(ge.controls.size(), 3u);  // ld, ph2, dr
  EXPECT_TRUE(ge.usesBus[0]);
  EXPECT_TRUE(ge.usesBus[1]);
  EXPECT_GT(ge.power_ua, 0);  // one load per bit
  // Control bristles on the north edge, inside the column width.
  for (const cell::Bristle& b : ge.column->bristles()) {
    if (b.flavor != cell::BristleFlavor::Control) continue;
    EXPECT_EQ(b.pos.y, ge.column->height());
    EXPECT_GE(b.pos.x, 0);
    EXPECT_LE(b.pos.x, ge.column->width());
  }
}

TEST_P(ElementsW, InportPadBristlesAtLanes) {
  const GeneratedElement ge = gen("inport IN (bus=A, drive=\"op==1\");");
  int pads = 0;
  geom::Coord lastX = -1;
  for (const cell::Bristle& b : ge.column->bristles()) {
    if (b.flavor != cell::BristleFlavor::PadIn) continue;
    ++pads;
    EXPECT_EQ(b.pos.y, 0) << "inport pads exit south";
    EXPECT_GT(b.pos.x, lastX) << "lane x must grow with bit index";
    lastX = b.pos.x;
  }
  EXPECT_EQ(pads, GetParam());
}

TEST_P(ElementsW, RegfileControlsPerRow) {
  const GeneratedElement ge =
      gen("regfile RF (n=4, select=sel, in=A, out=B, write=\"op==1\", read=\"op==2\");");
  EXPECT_EQ(ge.controls.size(), 3u * 4u);
  // Row decodes embed the select comparison.
  EXPECT_NE(ge.controls[0].decode.find("sel==0"), std::string::npos);
  EXPECT_NE(ge.controls[3].decode.find("sel==1"), std::string::npos);
}

TEST_P(ElementsW, ConstantUsesNoSiliconForOnes) {
  const GeneratedElement allOnes = gen("constant C (bus=A, value=" +
                                       std::to_string((1ll << GetParam()) - 1) +
                                       ", drive=\"op==3\");");
  EXPECT_DOUBLE_EQ(allOnes.power_ua, 0.0);
  cell::CellLibrary lib2;
  ctx_.lib = &lib2;
  // All zeros: every bit needs a pull chain (non-zero shapes).
  icl::DiagnosticList d;
  auto z = makeElement(declOf("constant Z (bus=A, value=0, drive=\"op==3\");", chip_),
                       chip_, d);
  ASSERT_NE(z, nullptr);
  const GeneratedElement zeros = z->generate(ctx_);
  EXPECT_GT(zeros.column->totalShapeCount(), allOnes.column->totalShapeCount());
}

TEST_P(ElementsW, ShifterCrossBitLogic) {
  const GeneratedElement ge =
      gen("shifter S (in=A, out=B, dist=2, load=\"op==1\", drive=\"op==2\");");
  (void)ge;
  netlist::LogicModel lm;
  elem_->emitLogic(lm, ctx_);
  // Bit j of the output bus is driven from bit j-2 (left shift).
  const int D = GetParam();
  for (int j = 2; j < D; ++j) {
    bool found = false;
    for (const netlist::Gate& g : lm.gates()) {
      if (g.kind != netlist::GateKind::PullDown) continue;
      if (lm.signalName(g.out) != "busB" + std::to_string(j)) continue;
      for (int in : lm.inputs(g)) {
        found |= lm.signalName(in) == "S.vb" + std::to_string(j - 2);
      }
    }
    EXPECT_TRUE(found) << "bit " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ElementsW, ::testing::Values(2, 4, 8, 16));

TEST(Elements, UnknownKindDiagnosed) {
  const icl::ChipDesc chip = descFor(4);
  icl::DiagnosticList d;
  icl::ElementDecl decl;
  decl.kind = "frobnicator";
  decl.name = "F";
  EXPECT_EQ(makeElement(decl, chip, d), nullptr);
  EXPECT_TRUE(d.hasErrors());
}

TEST(Elements, MissingDecodeDiagnosed) {
  const icl::ChipDesc chip = descFor(4);
  icl::DiagnosticList d;
  auto e = makeElement(declOf("register R (in=A, out=B);", chip), chip, d);
  (void)e;
  EXPECT_TRUE(d.hasErrors());
}

TEST(Elements, BadBusDiagnosed) {
  const icl::ChipDesc chip = descFor(4);
  icl::DiagnosticList d;
  (void)makeElement(
      declOf("register R (in=C, out=B, load=\"op==1\", drive=\"op==2\");", chip), chip, d);
  EXPECT_TRUE(d.hasErrors());
}

TEST(Elements, VoteReportsNaturalPitch) {
  const icl::ChipDesc chip = descFor(4);
  icl::DiagnosticList d;
  auto reg = makeElement(declOf("register R (in=A,out=B,load=\"op==1\",drive=\"op==2\");",
                                chip),
                         chip, d);
  auto alu = makeElement(
      declOf("alu U (a=A,b=B,out=A,op=sel,load=\"op==1\",drive=\"op==2\");", chip), chip, d);
  ASSERT_TRUE(reg && alu) << d.toString();
  ElementContext ctx;
  ParameterBallot ballot;
  reg->vote(ballot, ctx);
  EXPECT_EQ(ballot.maxOf("pitch"), contract().naturalPitch);
  alu->vote(ballot, ctx);
  EXPECT_GT(ballot.maxOf("pitch"), contract().naturalPitch);
}

TEST(Elements, FitSliceStretchesAndWidensRails) {
  cell::CellLibrary lib;
  ElementContext ctx;
  ctx.dataWidth = 1;
  ctx.lib = &lib;
  ctx.pitch = contract().naturalPitch + lam(12);
  ctx.railWiden = lam(3);
  SliceBuilder sb(lib, "fit_t", contract().naturalPitch);
  sb.addPass();
  cell::Cell* raw = sb.finish();
  cell::Cell* fitted = fitSlice(ctx, raw);
  EXPECT_EQ(fitted->height(), ctx.pitch + 2 * ctx.railWiden);
}

}  // namespace
}  // namespace bb::elements
