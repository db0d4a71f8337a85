/// The seven representations: every compiled chip must produce all of
/// them through the emitter registry, and each must reflect the chip it
/// came from.

#include "core/samples.hpp"
#include "core/session.hpp"
#include "reps/emitter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

namespace bb {
namespace {

class Reps : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto compiled = core::compileChip(core::samples::smallChip(4));
    ASSERT_TRUE(compiled) << compiled.diagnostics().toString();
    chip_ = std::move(*compiled).release();
  }
  static void TearDownTestSuite() {
    delete chip_;
    chip_ = nullptr;
  }
  /// The chip in one registered format (empty, and a failure, when no
  /// emitter has that name).
  static std::string emit(std::string_view format) {
    const reps::Emitter* e = reps::EmitterRegistry::global().find(format);
    EXPECT_NE(e, nullptr) << format;
    return e == nullptr ? std::string{} : e->emitToString(*chip_);
  }
  static core::CompiledChip* chip_;
};

core::CompiledChip* Reps::chip_ = nullptr;

TEST_F(Reps, AllSevenProducedThroughTheRegistry) {
  // Each representation and the emitters that write it; together they
  // are every built-in format.
  const struct {
    const char* representation;
    std::vector<std::string_view> formats;
  } seven[] = {
      {"layout", {"cif", "gds", "svg"}},
      {"sticks", {"sticks", "sticks-svg"}},
      {"transistors", {"transistors", "spice"}},
      {"logic", {"logic"}},
      {"text", {"text"}},
      {"simulation", {"simulation"}},
      {"block", {"block"}},
  };
  std::vector<std::string_view> covered;
  for (const auto& r : seven) {
    for (const std::string_view f : r.formats) {
      EXPECT_FALSE(emit(f).empty()) << r.representation << " via " << f;
      covered.push_back(f);
    }
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, reps::EmitterRegistry::global().names());
}

TEST_F(Reps, LayoutIsValidCifAndGds) {
  const std::string cif = emit("cif");
  EXPECT_NE(cif.find("DS 1"), std::string::npos);
  EXPECT_NE(cif.find("E\n"), std::string::npos);
  EXPECT_GT(emit("gds").size(), 100u);
  EXPECT_NE(emit("svg").find("<svg"), std::string::npos);
}

TEST_F(Reps, SticksReduceToLines) {
  EXPECT_NE(emit("sticks").find("sticks diagram"), std::string::npos);
  EXPECT_NE(emit("sticks-svg").find("<line"), std::string::npos);
}

TEST_F(Reps, TransistorDiagramHasDevices) {
  const std::string transistors = emit("transistors");
  EXPECT_NE(transistors.find("devices"), std::string::npos);
  // The core of the small chip has hundreds of transistors.
  EXPECT_NE(transistors.find("enh"), std::string::npos);
  EXPECT_NE(emit("spice").find("* " + chip_->desc.name + " extracted netlist"),
            std::string::npos);
}

TEST_F(Reps, LogicDiagramListsGates) {
  const std::string logic = emit("logic");
  EXPECT_NE(logic.find("LATCH"), std::string::npos);
  EXPECT_NE(logic.find("PULLDN"), std::string::npos);
}

TEST_F(Reps, SimulationSummaryCountsGates) {
  EXPECT_NE(emit("simulation").find("simulation model: " +
                                    std::to_string(chip_->logic.gates().size()) + " gates"),
            std::string::npos);
}

TEST_F(Reps, UserManualDocumentsEverySection) {
  const std::string m = emit("text");
  EXPECT_NE(m.find("MICROCODE FORMAT"), std::string::npos);
  EXPECT_NE(m.find("CORE ELEMENTS"), std::string::npos);
  EXPECT_NE(m.find("INSTRUCTION DECODER"), std::string::npos);
  EXPECT_NE(m.find("PADS"), std::string::npos);
  EXPECT_NE(m.find("TIMING"), std::string::npos);
  // Every element appears by name.
  for (const core::PlacedElement& pe : chip_->placed) {
    EXPECT_NE(m.find(pe.name), std::string::npos) << pe.name;
  }
}

TEST_F(Reps, BlockDiagramShowsStructure) {
  const std::string block = emit("block");
  EXPECT_NE(block.find("DECODER"), std::string::npos);
  EXPECT_NE(block.find("CORE"), std::string::npos);
  EXPECT_NE(block.find("pads"), std::string::npos);
}

}  // namespace
}  // namespace bb
