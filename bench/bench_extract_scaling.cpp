/// EXTRACT-SCALING — spatial-index extraction vs the reference all-pairs
/// piece merging, on a synthetic transistor array swept from 1k to 100k
/// rects (4 rects per device: diffusion strip, poly gate, metal strap,
/// contact cut). Rows where both engines run assert the extracted
/// netlists are bit-identical.
///
/// The chip table then times the core extraction `verify`'s lint runs,
/// on warm compiled chips (flatCore and its indexes built):
/// `extractFlat` of the core with its bristle labels and its boundary
/// (`extract_chip_core`), n = flatCore rects.
///
/// Env knobs: BB_BENCH_SMOKE=1 caps the sweep for CI (and skips the
/// google-benchmark timings); BB_BENCH_FULL=1 extends brute-force to
/// the largest sizes.

#include "bench_util.hpp"

#include "cell/flatten.hpp"
#include "extract/extract.hpp"

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

/// ~n rects forming isolated transistors on a 12L-pitch square grid.
/// Each device: a 2L diffusion strip crossed by a poly gate (2L overhang
/// both sides), a metal strap over the drain end and a contact cut
/// joining them — one enhancement device and a handful of nets per unit.
cell::FlatLayout makeFlat(std::size_t n) {
  cell::FlatLayout flat;
  const std::size_t units = std::max<std::size_t>(n / 4, 1);
  auto& diff = flat.on(Layer::Diffusion);
  auto& poly = flat.on(Layer::Poly);
  auto& metal = flat.on(Layer::Metal);
  auto& cuts = flat.on(Layer::Contact);
  diff.reserve(units);
  poly.reserve(units);
  metal.reserve(units);
  cuts.reserve(units);
  const Coord pitch = lambda(12);
  const auto k = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(units))));
  std::size_t placed = 0;
  for (std::size_t j = 0; j < k && placed < units; ++j) {
    for (std::size_t i = 0; i < k && placed < units; ++i, ++placed) {
      const Coord x = static_cast<Coord>(i) * pitch;
      const Coord y = static_cast<Coord>(j) * pitch;
      diff.emplace_back(x + lambda(2), y, x + lambda(4), y + lambda(10));
      poly.emplace_back(x, y + lambda(4), x + lambda(6), y + lambda(6));
      metal.emplace_back(x + lambda(1), y + lambda(8), x + lambda(5), y + lambda(10));
      cuts.emplace_back(x + lambda(2), y + lambda(8), x + lambda(4), y + lambda(10));
    }
  }
  return flat;
}

struct Run {
  double seconds = 0;
  std::size_t devices = 0;
  std::size_t nets = 0;
  std::string netlistText;
};

Run runExtract(const cell::FlatLayout& flat, bool useIndex) {
  extract::ExtractOptions opts;
  opts.useSpatialIndex = useIndex;
  const auto t0 = std::chrono::steady_clock::now();
  const extract::ExtractResult ex = extract::extractFlat(flat, {}, opts);
  Run run;
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  run.devices = ex.netlist.transistors().size();
  run.nets = ex.netCount;
  run.netlistText = ex.netlist.toText();
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
  const std::size_t bruteCap = full ? sizes.back() : 20000;

  std::printf("== EXTRACT-SCALING: indexed vs brute-force extractFlat ==\n");
  std::printf("%8s %12s %12s %10s %10s %10s\n", "rects", "brute_ms", "indexed_ms",
              "speedup", "devices", "nets");
  for (const std::size_t n : sizes) {
    const cell::FlatLayout flat = makeFlat(n);
    const Run indexed = runExtract(flat, true);
    recordRow("extract_indexed", n, indexed);
    if (n <= bruteCap) {
      const Run brute = runExtract(flat, false);
      recordRow("extract_brute", n, brute);
      if (brute.netlistText != indexed.netlistText || brute.nets != indexed.nets) {
        std::fprintf(stderr, "FATAL: indexed extraction diverged from brute force at n=%zu\n",
                     n);
        std::abort();
      }
      std::printf("%8zu %12.2f %12.2f %9.1fx %10zu %10zu\n", n, brute.seconds * 1e3,
                  indexed.seconds * 1e3, brute.seconds / indexed.seconds, indexed.devices,
                  indexed.nets);
    } else {
      std::printf("%8zu %12s %12.2f %10s %10zu %10zu\n", n, "-", indexed.seconds * 1e3, "-",
                  indexed.devices, indexed.nets);
    }
  }
  std::printf("(brute force capped at %zu rects%s)\n\n", bruteCap,
              full ? "" : "; BB_BENCH_FULL=1 for the full curve");
}

void printChipTable(bool smoke) {
  const int iters = smoke ? 2 : 20;
  std::printf("== EXTRACT-CHIP: core extraction on a warm compiled chip (mean of %d) ==\n",
              iters);
  std::printf("%-18s %8s %10s %10s %10s\n", "chip", "rects", "ms", "devices", "nets");
  const struct {
    const char* label;
    icl::ChipDesc desc;
  } chips[] = {{"largeChip(16,8)", core::samples::largeChip(16, 8)},
               {"largeChip(64,16)", core::samples::largeChip(64, 16)}};
  for (const auto& c : chips) {
    const auto chip = bench::compile(c.desc);
    const cell::FlatLayout& flat = chip->flatCore();
    flat.buildIndexes();
    const std::vector<extract::NetLabel> labels = extract::labelsOf(*chip->core);
    extract::ExtractOptions opts;
    opts.boundary = chip->core->boundary();
    const auto n = static_cast<long long>(flat.totalCount());
    std::size_t devices = 0, nets = 0;
    const double s = bench::meanSeconds(iters, [&] {
      const extract::ExtractResult ex = extract::extractFlat(flat, labels, opts);
      devices = ex.netlist.transistors().size();
      nets = ex.netCount;
    });
    bench::BenchJson::instance().recordRun("extract_chip_core", n, s);
    std::printf("%-18s %8lld %10.3f %10zu %10zu\n", c.label, n, s * 1e3, devices, nets);
  }
  std::printf("\n");
}

void BM_ExtractIndexed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const cell::FlatLayout flat = makeFlat(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runExtract(flat, true).devices);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ExtractIndexed)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
    ->Unit(benchmark::kMillisecond);

void BM_ExtractBrute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const cell::FlatLayout flat = makeFlat(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runExtract(flat, false).devices);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ExtractBrute)
    ->RangeMultiplier(4)
    ->Range(1024, 16384)
    ->Unit(benchmark::kMillisecond);

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
