/// Seeded description mutator. Each iteration takes one of the sample
/// chips, applies 1-3 random mutations — microcode width, a field's
/// bounds, data width, the bus list, dropping or duplicating a core item
/// or a field — and compiles the result through both frontends: the
/// typed `ChipDesc` and its ICL text. Every compile must either succeed
/// or come back with errors, and the two frontends must agree on which.
/// The seeds are fixed, so a failure reproduces; CI runs this under
/// ASan+UBSan, where a crash or undefined behaviour fails the job.

#include "core/samples.hpp"
#include "core/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace bb {
namespace {

constexpr int kIterationsPerSeed = 300;

class DescMutator {
 public:
  explicit DescMutator(std::uint64_t seed) : rng_(seed) {}

  /// A uniform value in [lo, hi]; the modulo keeps the sequence the same
  /// on every standard library.
  int pick(int lo, int hi) {
    return lo + static_cast<int>(rng_() % static_cast<std::uint64_t>(hi - lo + 1));
  }

  icl::ChipDesc sample() {
    switch (pick(0, 3)) {
      case 0: return core::samples::smallChip();
      case 1: return core::samples::largeChip(8, 4);
      case 2: return core::samples::prototypeChip();
      default: return core::samples::segmentedChip(4);
    }
  }

  void mutate(icl::ChipDesc& d) {
    std::vector<icl::FieldDecl>& fields = d.microcode.fields;
    switch (pick(0, 7)) {
      case 0:  // microcode width: degenerate, or around the fields' span
        d.microcode.width = pick(0, 1) == 0 ? pick(-1, 2) : d.microcode.width + pick(-4, 60);
        break;
      case 1:  // one bound of one field: anywhere near the word, or 62 wider
        if (!fields.empty()) {
          icl::FieldDecl& f = fields[index(fields.size())];
          int& bound = pick(0, 1) == 0 ? f.lo : f.hi;
          bound = pick(0, 3) == 0 ? bound + 62 : pick(-2, std::max(d.microcode.width, 0) + 3);
        }
        break;
      case 2:  // data width: degenerate, small, or around the 64-bit limit
        switch (pick(0, 2)) {
          case 0: d.dataWidth = pick(-1, 1); break;
          case 1: d.dataWidth = pick(2, 16); break;
          default: d.dataWidth = pick(62, 66); break;
        }
        break;
      case 3:  // the bus list: a new bus, a repeated one, one fewer, or no name
        switch (pick(0, 3)) {
          case 0: d.buses.push_back("C"); break;
          case 1:
            if (!d.buses.empty()) d.buses.push_back(d.buses[index(d.buses.size())]);
            break;
          case 2:
            if (!d.buses.empty()) d.buses.pop_back();
            break;
          default:
            if (!d.buses.empty()) d.buses[index(d.buses.size())].clear();
            break;
        }
        break;
      case 4:  // drop a core item
        if (!d.core.empty()) d.core.erase(d.core.begin() + offset(d.core.size()));
        break;
      case 5:  // duplicate a core item
        if (!d.core.empty()) {
          const icl::CoreItem copy = d.core[index(d.core.size())];
          d.core.insert(d.core.begin() + offset(d.core.size() + 1), copy);
        }
        break;
      case 6:  // drop a field
        if (!fields.empty()) fields.erase(fields.begin() + offset(fields.size()));
        break;
      default:  // duplicate a field
        if (!fields.empty()) fields.push_back(fields[index(fields.size())]);
        break;
    }
  }

 private:
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(pick(0, static_cast<int>(n) - 1));
  }
  std::ptrdiff_t offset(std::size_t n) { return static_cast<std::ptrdiff_t>(index(n)); }

  std::mt19937_64 rng_;
};

class FuzzDesc : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDesc, TypedAndTextFrontendsAgree) {
  DescMutator m(GetParam());
  int compiled = 0;
  for (int iter = 0; iter < kIterationsPerSeed; ++iter) {
    icl::ChipDesc desc = m.sample();
    for (int k = m.pick(1, 3); k > 0; --k) m.mutate(desc);
    const std::string text = desc.toString();
    SCOPED_TRACE("iteration " + std::to_string(iter) + ":\n" + text);

    auto typed = core::compileChip(desc);
    auto fromText = core::compileChip(text);
    EXPECT_NE(typed.hasValue(), typed.diagnostics().hasErrors())
        << typed.diagnostics().toString();
    EXPECT_NE(fromText.hasValue(), fromText.diagnostics().hasErrors())
        << fromText.diagnostics().toString();
    ASSERT_EQ(typed.hasValue(), fromText.hasValue())
        << "typed:\n" << typed.diagnostics().toString() << "text:\n"
        << fromText.diagnostics().toString();
    if (typed.hasValue()) ++compiled;
  }
  // Both outcomes occur, so neither frontend passes by rejecting
  // (or accepting) everything.
  EXPECT_GT(compiled, 0);
  EXPECT_LT(compiled, kIterationsPerSeed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDesc, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace bb
