/// PCT80 — the paper's completeness statement: "Given a high level
/// description of the chip and definitions for core elements, the system
/// produces a complete layout, sticks diagram, transistor diagram, logic
/// diagram, and block diagram" (5 of the 7 representations in 1979; the
/// simulator and text manual were hooks). This implementation completes
/// all seven; the bench emits each through the emitter registry, verifies
/// it and times the full set.

#include "bench_util.hpp"

#include "reps/emitter.hpp"

#include <string_view>
#include <vector>

using namespace bb;

namespace {

/// Each representation and the registered formats that write it.
const struct {
  const char* representation;
  std::vector<std::string_view> formats;
} kSeven[] = {
    {"layout", {"cif", "gds", "svg"}},
    {"sticks", {"sticks", "sticks-svg"}},
    {"transistors", {"transistors", "spice"}},
    {"logic", {"logic"}},
    {"text", {"text"}},
    {"simulation", {"simulation"}},
    {"block", {"block"}},
};

void printTable() {
  std::printf("== PCT80: representations produced per chip (paper: 5 of 7 in 1979) ==\n");
  auto chip = bench::compile(core::samples::smallChip(8));
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  std::printf("%-14s %-12s %10s %12s\n", "representation", "emitter", "produced", "bytes");
  int populated = 0;
  for (const auto& r : kSeven) {
    bool all = true;
    for (const std::string_view f : r.formats) {
      const reps::Emitter* e = reg.find(f);
      const std::size_t bytes = e == nullptr ? 0 : e->emitToString(*chip).size();
      all = all && bytes > 0;
      std::printf("%-14s %-12s %10s %12zu\n", r.representation, std::string(f).c_str(),
                  bytes > 0 ? "yes" : "NO", bytes);
    }
    if (all) ++populated;
  }
  std::printf("populated: %d/7 (1979 system: 5/7 at ~80%% implementation)\n\n", populated);
}

void BM_EmitAllFormats(benchmark::State& state) {
  auto chip = bench::compile(core::samples::smallChip(8));
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  for (auto _ : state) {
    std::size_t bytes = 0;
    for (const std::string_view name : reg.names()) {
      bytes += reg.find(name)->emitToString(*chip).size();
    }
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_EmitAllFormats);

void BM_CifOnly(benchmark::State& state) {
  auto chip = bench::compile(core::samples::smallChip(8));
  const reps::Emitter* cif = reps::EmitterRegistry::global().find("cif");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cif->emitToString(*chip).size());
  }
}
BENCHMARK(BM_CifOnly);

}  // namespace

int main(int argc, char** argv) {
  printTable();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
