/// EMIT-SCALING — windowed layout emission through `layout::View`
/// against full-chip emission, on synthetic multi-layer artwork swept
/// from 1k to 100k rects. Three configurations per row:
///   * full: whole-artwork CIF emission (the window == bbox special
///     case; asserted byte-identical to an explicit-bbox window on
///     every run),
///   * window: a fixed small viewport (1/8 x 1/8 of the bbox), tiled —
///     the acceptance bar is output-sensitivity: its cost must track
///     the viewport's geometry, not the chip size,
///   * merged: whole-artwork emission with per-tile unionRects merging
///     (asserted area-identical to the unmerged mask per layer via
///     sweep::unionArea).
/// SVG rendering is timed for the full and windowed configurations as a
/// second writer family. Every row where two configurations must agree
/// asserts exact equivalence, so streaming is never bought with a wrong
/// mask.
///
/// A second table times every registered format on warm compiled chips,
/// largeChip(16,8) and largeChip(64,16): `emit_chip_<format>` rows (n is
/// the chip's flat shape count, so items_per_sec is shapes/s) and one
/// `emit_chip_all_over_compile` row per chip whose items_per_sec is the
/// time of all formats over the time of one compile, then sticks-svg over
/// a windowed, tiled view of the core and a merged one
/// (`emit_chip_sticks_svg_window_tiles`, `emit_chip_sticks_svg_merge`).
///
/// Env knobs: BB_BENCH_SMOKE=1 caps the sweep for CI (and skips the
/// google-benchmark timings).

#include "bench_util.hpp"

#include "geom/sweep.hpp"
#include "layout/cif.hpp"
#include "layout/svg.hpp"
#include "layout/view.hpp"
#include "reps/emitter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

using namespace bb;

namespace {

using cell::FlatLayout;
using geom::Coord;
using geom::lambda;
using geom::Rect;
using layout::ViewOptions;

/// ~n jittered tiles over four layers with overlapping blobs, half in
/// negative space — the union-scaling recipe spread across a layer
/// stack so per-layer indexes and the tile stream all do real work.
FlatLayout makeFlat(std::size_t n) {
  FlatLayout flat;
  const tech::Layer layers[] = {tech::Layer::Diffusion, tech::Layer::Poly, tech::Layer::Metal,
                                tech::Layer::Contact};
  const Coord pitch = lambda(9);
  const auto k = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const Coord shift = static_cast<Coord>(k / 2) * pitch;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;  // fixed seed: runs are reproducible
  const auto jitter = [&lcg](Coord range) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<Coord>((lcg >> 33) % static_cast<std::uint64_t>(range));
  };
  std::size_t placed = 0;
  for (std::size_t j = 0; j < k && placed < n; ++j) {
    for (std::size_t i = 0; i < k && placed < n; ++i, ++placed) {
      const Coord x = static_cast<Coord>(i) * pitch - shift + jitter(pitch);
      const Coord y = static_cast<Coord>(j) * pitch - shift + jitter(pitch);
      Coord s = lambda(7) + jitter(lambda(2));
      if (placed % 7 == 3) s = lambda(12);
      flat.on(layers[placed % 4]).emplace_back(x, y, x + s, y + s);
    }
  }
  return flat;
}

/// The fixed small viewport: 1/8 x 1/8 of the bbox, centered.
Rect viewportOf(const Rect& bb) {
  const Coord w = bb.width() / 8;
  const Coord h = bb.height() / 8;
  const geom::Point c = bb.center();
  return Rect{c.x - w / 2, c.y - h / 2, c.x + w / 2, c.y + h / 2};
}

template <typename F>
double timeIt(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void printTable(bool smoke) {
  const std::vector<std::size_t> sizes = smoke
      ? std::vector<std::size_t>{1000, 5000}
      : std::vector<std::size_t>{1000, 5000, 20000, 50000, 100000};
  const Coord tile = lambda(200);

  std::printf("== EMIT-SCALING: windowed/tiled layout emission vs full-chip ==\n");
  std::printf("%8s %12s %12s %10s %12s %12s %12s\n", "rects", "full_ms", "window_ms",
              "speedup", "merged_ms", "svg_full_ms", "svg_win_ms");
  for (const std::size_t n : sizes) {
    const FlatLayout flat = makeFlat(n);
    flat.buildIndexes();  // prewarm so rows time emission, not index builds
    const Rect bb = flat.bbox();
    const Rect vp = viewportOf(bb);

    std::string full;
    const double fullS = timeIt([&] { full = layout::writeCif(layout::View{flat}); });
    bench::BenchJson::instance().recordRun("emit_full_cif", static_cast<long long>(n), fullS);

    // The golden invariant: full emission IS the window == bbox case.
    ViewOptions atBbox;
    atBbox.window = bb;
    if (layout::writeCif(layout::View{flat, atBbox}) != full) {
      std::fprintf(stderr, "FATAL: window==bbox CIF diverged from full emission at n=%zu\n", n);
      std::abort();
    }

    ViewOptions windowed;
    windowed.window = vp;
    windowed.tileSize = tile;
    std::string win;
    const double winS = timeIt([&] { win = layout::writeCif(layout::View{flat, windowed}); });
    bench::BenchJson::instance().recordRun("emit_window_cif", static_cast<long long>(n), winS);
    if (win.size() >= full.size()) {
      std::fprintf(stderr, "FATAL: windowed CIF not smaller than full at n=%zu\n", n);
      std::abort();
    }

    ViewOptions mergedOpts;
    mergedOpts.merge = true;
    mergedOpts.tileSize = tile;
    std::string merged;
    const double mergedS =
        timeIt([&] { merged = layout::writeCif(layout::View{flat, mergedOpts}); });
    bench::BenchJson::instance().recordRun("emit_merged_cif", static_cast<long long>(n),
                                           mergedS);
    // Merging must preserve the mask: per-layer union area of the merged
    // View equals the raw layer's union area exactly.
    {
      const layout::View mv{flat, mergedOpts};
      for (tech::Layer l : tech::kAllLayers) {
        if (geom::sweep::unionArea(mv.rectsOn(l)) != geom::sweep::unionArea(flat.on(l))) {
          std::fprintf(stderr, "FATAL: merged emission changed the %s mask at n=%zu\n",
                       std::string(tech::layerName(l)).c_str(), n);
          std::abort();
        }
      }
    }

    layout::SvgOptions svgFull;
    const double svgFullS =
        timeIt([&] { benchmark::DoNotOptimize(layout::renderSvg(flat, {}, svgFull)); });
    bench::BenchJson::instance().recordRun("emit_full_svg", static_cast<long long>(n),
                                           svgFullS);
    layout::SvgOptions svgWin;
    svgWin.view.window = vp;
    svgWin.view.tileSize = tile;
    const double svgWinS =
        timeIt([&] { benchmark::DoNotOptimize(layout::renderSvg(flat, {}, svgWin)); });
    bench::BenchJson::instance().recordRun("emit_window_svg", static_cast<long long>(n),
                                           svgWinS);

    std::printf("%8zu %12.2f %12.2f %9.1fx %12.2f %12.2f %12.2f\n", n, fullS * 1e3, winS * 1e3,
                fullS / (winS > 0 ? winS : 1e-9), mergedS * 1e3, svgFullS * 1e3, svgWinS * 1e3);
  }
  std::printf("(viewport 1/8 x 1/8 of bbox, tile pitch 200L)\n\n");
}

void printChipTable(bool smoke) {
  const int iters = smoke ? 2 : 20;
  const reps::EmitterRegistry& reg = reps::EmitterRegistry::global();
  std::printf("== EMIT-CHIP: every format on a warm compiled chip (mean of %d) ==\n", iters);
  const struct {
    const char* label;
    icl::ChipDesc desc;
  } chips[] = {{"largeChip(16,8)", core::samples::largeChip(16, 8)},
               {"largeChip(64,16)", core::samples::largeChip(64, 16)}};
  for (const auto& c : chips) {
    std::unique_ptr<core::CompiledChip> chip;
    const double compileS = bench::meanSeconds(iters, [&] { chip = bench::compile(c.desc); });
    // Warm: a first emit of every format builds what the emitters read
    // (the flattens, the core netlist), so the rows time the writers.
    for (const std::string_view name : reg.names()) {
      benchmark::DoNotOptimize(reg.find(name)->emitToString(*chip));
    }
    const auto shapes = static_cast<long long>(chip->stats.shapeCount);
    std::printf("%s: %lld flat shapes, compile %.2f ms\n", c.label, shapes, compileS * 1e3);
    std::printf("  %-12s %10s %12s\n", "format", "ms", "bytes");
    double allS = 0;
    for (const std::string_view name : reg.names()) {
      const reps::Emitter* e = reg.find(name);
      std::size_t bytes = 0;
      const double s = bench::meanSeconds(iters, [&] { bytes = e->emitToString(*chip).size(); });
      allS += s;
      std::string row = "emit_chip_" + std::string(name);
      std::replace(row.begin(), row.end(), '-', '_');
      bench::BenchJson::instance().recordRun(row, shapes, s);
      std::printf("  %-12s %10.3f %12zu\n", std::string(name).c_str(), s * 1e3, bytes);
    }
    bench::BenchJson::instance().record("emit_chip_all_over_compile", shapes, 0,
                                        allS / compileS);
    std::printf("  all %zu formats: %.2f ms = %.1fx compile\n", reg.names().size(), allS * 1e3,
                allS / compileS);
    // sticks-svg over a windowed, tiled view and a merged one: there the
    // writer pays every index query and tile merge itself, which the
    // whole-artwork rows above never do.
    const Rect core = chip->flatCore().bbox();
    reps::EmitterOptions windowTiles;
    windowTiles.window = Rect{core.x0 + core.width() / 4, core.y0 + core.height() / 4,
                              core.x1 - core.width() / 4, core.y1 - core.height() / 4};
    windowTiles.tileSize = std::max<Coord>(core.width() / 16, 1);
    reps::EmitterOptions merged;
    merged.merge = true;
    const reps::Emitter* sticks = reg.find("sticks-svg");
    for (const auto& [row, opts] : {std::pair{"emit_chip_sticks_svg_window_tiles", windowTiles},
                                    std::pair{"emit_chip_sticks_svg_merge", merged}}) {
      benchmark::DoNotOptimize(sticks->emitToString(*chip, opts));  // builds the indexes
      std::size_t bytes = 0;
      const double s =
          bench::meanSeconds(iters, [&] { bytes = sticks->emitToString(*chip, opts).size(); });
      bench::BenchJson::instance().recordRun(row, shapes, s);
      std::printf("  %-34s %10.3f %12zu\n", row, s * 1e3, bytes);
    }
  }
  std::printf("\n");
}

void BM_EmitFullCif(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const FlatLayout flat = makeFlat(n);
  flat.buildIndexes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout::writeCif(layout::View{flat}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EmitFullCif)->RangeMultiplier(4)->Range(1024, 65536)->Unit(benchmark::kMillisecond);

void BM_EmitWindowCif(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const FlatLayout flat = makeFlat(n);
  flat.buildIndexes();
  ViewOptions windowed;
  windowed.window = viewportOf(flat.bbox());
  windowed.tileSize = lambda(200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout::writeCif(layout::View{flat, windowed}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EmitWindowCif)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
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
