/// TIME — the paper's compile-time claim: "The compiler takes
/// approximately 4 minutes to generate a small chip, in all five of the
/// current representations. The time needed to generate a fairly large
/// chip should be in the neighborhood of 10-15 minutes."
///
/// Absolute 1979 PDP-10 minutes are meaningless on modern hardware; the
/// claim's *shape* is the large/small ratio (~2.5-4x) and near-linear
/// scaling with chip size. This bench measures full compilation plus all
/// representations (every format in the emitter registry), and
/// compilation alone.
///
/// Perf rows land in BENCH.json as the `compile_` family:
/// `compile_only_{small4,large16x8,large64x16}` (parse -> finalize;
/// items are chips, so items_per_sec is chips/s; 64x16 is the largest
/// design of the perfbench sweep grid) and
/// `compile_all_reps_{small4,large16x8}` (compile plus every registered
/// format, all 11 emitters; the spice deck is among them, which rows
/// recorded before the registry became the only emission surface did not
/// include), and `compile_stage_{pass1,pass2,pass3}_{large16x8,large64x16}`
/// (one pass alone, timed by the pipeline's own `core::TimingObserver`
/// over the compile-only runs' chip count; items are chips, so
/// items_per_sec is chips/s through that pass). Env knob:
/// BB_BENCH_SMOKE=1 runs fewer iterations and skips the google-benchmark
/// timings. Exits nonzero when no row lands.

#include "bench_util.hpp"

#include "reps/emitter.hpp"

#include <chrono>
#include <cstdlib>
#include <string>
#include <string_view>

using namespace bb;

namespace {

double compileOnlySeconds(const icl::ChipDesc& desc, int iters) {
  return bench::meanSeconds(iters, [&] {
    auto chip = bench::compile(desc);
    benchmark::DoNotOptimize(chip->stats.shapeCount);
  });
}

/// Per-stage times summed over `iters` compiles, through the pipeline's
/// own observer hook.
core::TimingObserver stageTimes(const icl::ChipDesc& desc, int iters) {
  core::TimingObserver timing;
  for (int i = 0; i < iters; ++i) {
    core::CompileSession session(desc);
    session.addObserver(&timing);
    auto result = session.run();
    if (!result) {
      std::fprintf(stderr, "bench compile failed:\n%s\n",
                   result.diagnostics().toString().c_str());
      std::abort();
    }
  }
  return timing;
}

/// Emit every registered format; the total size, so the work is kept.
std::size_t emitAllFormats(const core::CompiledChip& chip) {
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  std::size_t bytes = 0;
  for (const std::string_view name : reg.names()) {
    bytes += reg.find(name)->emitToString(chip).size();
  }
  return bytes;
}

double fullCompileSeconds(const icl::ChipDesc& desc, int iters = 5) {
  return bench::meanSeconds(iters, [&] {
    auto chip = bench::compile(desc);
    benchmark::DoNotOptimize(emitAllFormats(*chip));
  });
}

/// One row per timed run: n chips, so items_per_sec is chips/s.
void recordChips(const std::string& row, int chips, double secondsPerChip) {
  bench::BenchJson::instance().recordRun(row, chips, secondsPerChip * chips);
}

void printTable(bool smoke) {
  const int iters = smoke ? 3 : 20;
  std::printf("== TIME: full compile incl. all representations ==\n");
  const double tSmall = fullCompileSeconds(core::samples::smallChip(4), iters);
  const double tLarge = fullCompileSeconds(core::samples::largeChip(16, 8), iters);
  recordChips("compile_all_reps_small4", iters, tSmall);
  recordChips("compile_all_reps_large16x8", iters, tLarge);
  std::printf("%-24s %12s\n", "chip", "seconds");
  std::printf("%-24s %12.4f   (paper: ~4 min on a PDP-10)\n", "small (5 elem, 4-bit)",
              tSmall);
  std::printf("%-24s %12.4f   (paper: 10-15 min)\n", "large (9 elem, 16-bit)", tLarge);
  std::printf("large/small ratio: %.2fx (paper's claim implies ~2.5-4x)\n", tLarge / tSmall);

  std::printf("\ncompile only (parse -> finalize):\n");
  std::printf("%-24s %12s\n", "chip", "chips/s");
  const struct {
    const char* row;
    const char* label;
    icl::ChipDesc desc;
  } only[] = {
      {"compile_only_small4", "small (4-bit)", core::samples::smallChip(4)},
      {"compile_only_large16x8", "large (16-bit, 8 regs)", core::samples::largeChip(16, 8)},
      {"compile_only_large64x16", "sweep max (64-bit, 16)", core::samples::largeChip(64, 16)},
  };
  for (const auto& c : only) {
    const double t = compileOnlySeconds(c.desc, iters * 5);
    recordChips(c.row, iters * 5, t);
    std::printf("%-24s %12.1f\n", c.label, 1.0 / t);
  }

  // Which of the paper's three passes the time goes to.
  std::printf("\nper-stage breakdown (ms per chip, via PassObserver):\n");
  std::printf("%-24s", "chip");
  for (const core::Stage s : core::kAllStages) {
    std::printf(" %9s", std::string(core::stageName(s)).c_str());
  }
  std::printf("\n");
  const struct {
    const char* suffix;
    const char* label;
    icl::ChipDesc desc;
  } staged[] = {
      {"large16x8", "large (16-bit, 8 regs)", core::samples::largeChip(16, 8)},
      {"large64x16", "sweep max (64-bit, 16)", core::samples::largeChip(64, 16)},
  };
  const int chips = iters * 5;
  for (const auto& c : staged) {
    const core::TimingObserver timing = stageTimes(c.desc, chips);
    std::printf("%-24s", c.label);
    for (const core::Stage s : core::kAllStages) {
      const double perChip = std::chrono::duration<double>(timing.elapsed(s)).count() / chips;
      std::printf(" %9.4f", perChip * 1e3);
      if (s == core::Stage::Pass1 || s == core::Stage::Pass2 || s == core::Stage::Pass3) {
        recordChips("compile_stage_" + std::string(core::stageName(s)) + "_" + c.suffix, chips,
                    perChip);
      }
    }
    std::printf("\n");
  }
  if (smoke) {
    std::printf("\n");
    return;
  }

  std::printf("\nscaling in chip size (elements x width):\n");
  std::printf("%8s %8s %12s\n", "bits", "regs", "seconds");
  for (int width : {4, 8, 16}) {
    for (int regs : {4, 8}) {
      const double t = fullCompileSeconds(core::samples::largeChip(width, regs), 3);
      std::printf("%8d %8d %12.4f\n", width, regs, t);
    }
  }
  std::printf("\n");
}

void BM_FullCompileSmall(benchmark::State& state) {
  const icl::ChipDesc desc = core::samples::smallChip(4);
  for (auto _ : state) {
    auto chip = bench::compile(desc);
    benchmark::DoNotOptimize(emitAllFormats(*chip));
  }
}
BENCHMARK(BM_FullCompileSmall);

void BM_FullCompileLarge(benchmark::State& state) {
  const icl::ChipDesc desc = core::samples::largeChip(16, 8);
  for (auto _ : state) {
    auto chip = bench::compile(desc);
    benchmark::DoNotOptimize(emitAllFormats(*chip));
  }
}
BENCHMARK(BM_FullCompileLarge);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("BB_BENCH_SMOKE") != nullptr;
  printTable(smoke);
  if (!bench::BenchJson::instance().write()) {
    std::fprintf(stderr, "FATAL: failed to land perf rows in BENCH.json (cause above)\n");
    return 1;
  }
  if (smoke) return 0;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
