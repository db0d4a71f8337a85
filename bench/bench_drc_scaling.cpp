/// DRC-SCALING — the spatial-index DRC engine against the reference
/// all-pairs scan, on synthetic flat artwork swept from 1k to 100k
/// rects. The table is the paper-artifact: brute-force seconds grow
/// quadratically while the indexed checker stays near-linear (the
/// acceptance bar is >=10x at 50k rects; in practice it is orders of
/// magnitude). Every row where both engines run also asserts the
/// violation lists are bit-identical, so the speedup is never bought
/// with a wrong answer.
///
/// The chip table then times the two layers `verify` spends its DRC in,
/// on warm compiled chips (flatTop and its indexes built): building the
/// seven flatTop layer indexes anew (`drc_chip_index_build`) and one
/// `DeckChecker::check` of the die (`drc_chip_check`), n = flatTop
/// rects.
///
/// Env knobs: BB_BENCH_SMOKE=1 caps the sweep for CI (and skips the
/// google-benchmark timings); BB_BENCH_FULL=1 extends brute-force to
/// the largest sizes.

#include "bench_util.hpp"

#include "cell/flatten.hpp"
#include "drc/drc.hpp"
#include "tech/rules.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

using namespace bb;

namespace {

using geom::Coord;
using geom::lambda;
using geom::Rect;
using tech::Layer;

/// ~n metal tiles on a square grid at 7L pitch (4L gaps — clean), with
/// every 101st tile nudged 2L left (gap 2L < 3L: spacing violation) and
/// every 97th thinned to 2L (< 3L min width: width violation). Violation
/// density stays constant as n grows, so the engines chase real work.
cell::FlatLayout makeFlat(std::size_t n) {
  cell::FlatLayout flat;
  auto& metal = flat.on(Layer::Metal);
  metal.reserve(n);
  const Coord pitch = lambda(7);
  const Coord size = lambda(3);
  const auto k = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::size_t placed = 0;
  for (std::size_t j = 0; j < k && placed < n; ++j) {
    for (std::size_t i = 0; i < k && placed < n; ++i, ++placed) {
      Coord x = static_cast<Coord>(i) * pitch;
      const Coord y = static_cast<Coord>(j) * pitch;
      Coord h = size;
      if (placed % 101 == 13) x -= lambda(2);
      if (placed % 97 == 7) h = lambda(2);
      metal.emplace_back(x, y, x + size, y + h);
    }
  }
  return flat;
}

struct Run {
  double seconds = 0;
  std::size_t violations = 0;
  std::string fingerprint;  ///< rule@where per violation, order-sensitive
};

Run runDrc(const cell::FlatLayout& flat, bool useIndex, unsigned threads) {
  drc::DrcOptions opts;
  opts.useSpatialIndex = useIndex;
  opts.threads = threads;
  opts.boundaryConditions = false;
  const auto t0 = std::chrono::steady_clock::now();
  const drc::DrcReport rep =
      drc::checkFlat(flat, flat.bbox(), tech::meadConwayRules(), opts);
  Run run;
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  run.violations = rep.violations.size();
  for (const drc::Violation& v : rep.violations) {
    run.fingerprint += v.rule + "@" + geom::toString(v.where) + ";";
  }
  return run;
}

void recordRow(const char* name, std::size_t n, const Run& run) {
  bench::BenchJson::instance().recordRun(name, static_cast<long long>(n), run.seconds);
}

void printTable(bool smoke) {
  const bool full = std::getenv("BB_BENCH_FULL") != nullptr;
  std::vector<std::size_t> sizes = smoke ? std::vector<std::size_t>{1000, 5000}
                                         : std::vector<std::size_t>{1000, 5000, 20000,
                                                                    50000, 100000};
  // Brute-force is quadratic; keep its largest run a few seconds unless
  // explicitly asked for the full curve.
  const std::size_t bruteCap = full ? sizes.back() : 50000;

  std::printf("== DRC-SCALING: indexed vs brute-force checkFlat ==\n");
  std::printf("%8s %12s %12s %12s %10s %11s\n", "rects", "brute_ms", "indexed_ms",
              "indexed4_ms", "speedup", "violations");
  for (const std::size_t n : sizes) {
    const cell::FlatLayout flat = makeFlat(n);
    const Run indexed = runDrc(flat, true, 1);
    const Run indexed4 = runDrc(flat, true, 4);
    recordRow("drc_indexed", n, indexed);
    recordRow("drc_indexed_mt4", n, indexed4);
    if (n <= bruteCap) {
      const Run brute = runDrc(flat, false, 1);
      recordRow("drc_brute", n, brute);
      if (brute.fingerprint != indexed.fingerprint ||
          brute.fingerprint != indexed4.fingerprint) {
        std::fprintf(stderr, "FATAL: indexed DRC diverged from brute force at n=%zu\n", n);
        std::abort();
      }
      std::printf("%8zu %12.2f %12.2f %12.2f %9.1fx %11zu\n", n, brute.seconds * 1e3,
                  indexed.seconds * 1e3, indexed4.seconds * 1e3,
                  brute.seconds / indexed.seconds, indexed.violations);
    } else {
      std::printf("%8zu %12s %12.2f %12.2f %10s %11zu\n", n, "-", indexed.seconds * 1e3,
                  indexed4.seconds * 1e3, "-", indexed.violations);
    }
  }
  std::printf("(brute force capped at %zu rects%s)\n\n", bruteCap,
              full ? "" : "; BB_BENCH_FULL=1 for the full curve");
}

void printChipTable(bool smoke) {
  const int iters = smoke ? 2 : 20;
  std::printf("== DRC-CHIP: index build and check on a warm compiled chip (mean of %d) ==\n",
              iters);
  std::printf("%-18s %8s %14s %10s %11s\n", "chip", "rects", "index_build_ms", "check_ms",
              "violations");
  const drc::DeckChecker checker(tech::meadConwayRules());
  const struct {
    const char* label;
    icl::ChipDesc desc;
  } chips[] = {{"largeChip(16,8)", core::samples::largeChip(16, 8)},
               {"largeChip(64,16)", core::samples::largeChip(64, 16)}};
  for (const auto& c : chips) {
    const auto chip = bench::compile(c.desc);
    const cell::FlatLayout& flat = chip->flatTop();
    flat.buildIndexes();
    const auto n = static_cast<long long>(flat.totalCount());
    const double buildS = bench::meanSeconds(iters, [&] {
      std::array<geom::RectIndex, tech::kLayerCount> idx;
      for (std::size_t l = 0; l < tech::kLayerCount; ++l) idx[l] = geom::RectIndex(flat.rects[l]);
      benchmark::DoNotOptimize(idx);
    });
    std::size_t violations = 0;
    const double checkS = bench::meanSeconds(iters, [&] {
      violations = checker.check(flat, chip->top->boundary()).violations.size();
    });
    bench::BenchJson::instance().recordRun("drc_chip_index_build", n, buildS);
    bench::BenchJson::instance().recordRun("drc_chip_check", n, checkS);
    std::printf("%-18s %8lld %14.3f %10.3f %11zu\n", c.label, n, buildS * 1e3, checkS * 1e3,
                violations);
  }
  std::printf("\n");
}

void BM_DrcIndexed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const cell::FlatLayout flat = makeFlat(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runDrc(flat, true, 1).violations);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DrcIndexed)->RangeMultiplier(4)->Range(1024, 65536)->Unit(benchmark::kMillisecond);

void BM_DrcBrute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const cell::FlatLayout flat = makeFlat(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runDrc(flat, false, 1).violations);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DrcBrute)->RangeMultiplier(4)->Range(1024, 16384)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("BB_BENCH_SMOKE") != nullptr;
  printTable(smoke);
  printChipTable(smoke);
  if (!bench::BenchJson::instance().write()) {
    std::fprintf(stderr, "FATAL: failed to land perf rows in BENCH.json (cause above)\n");
    return 1;
  }
  if (smoke) return 0;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
