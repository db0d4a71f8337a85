/// Hierarchical compile demo: the paper's "rather than on fully
/// instantiated artwork" premise, end to end on one page.
///
///   1. compile a datapath chip from a fluent ChipBuilder description,
///   2. tile the compiled top cell into an NxN array — the repeated-cell
///      regime every Bristle Blocks chip lives in (bit slices, decoder
///      columns, pad rings),
///   3. decompose the array with cell::HierIndex (unique cells flattened
///      once + a placement table) and run DRC both ways: the flat oracle
///      over the fully instantiated artwork vs drc::DeckChecker::checkHier
///      over the index, printing the timings side by side,
///   4. emit the mask set hierarchically — CIF symbol calls and a GDS
///      AREF instead of N^2 flattened copies — and compare file sizes,
///   5. open a lazy viewport: a layout::View built from the HierIndex
///      resolves only the instances whose boxes touch the window
///      (watch cell::HierIndex::instancesMaterialized).
///
/// Run from the build tree:  ./hier_demo [n]   (default 6 -> 6x6 array)

#include "cell/hier_index.hpp"
#include "core/session.hpp"
#include "drc/drc.hpp"
#include "icl/builder.hpp"
#include "layout/cif.hpp"
#include "layout/gds.hpp"
#include "layout/view.hpp"
#include "tech/rules.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

/// A small datapath slice: two registers and an ALU between two buses.
bb::icl::ChipDesc datapathChip() {
  using namespace bb::icl;
  return ChipBuilder("hier_datapath")
      .microcode(8, {field("op", 0, 2)})
      .dataWidth(4)
      .buses({"A", "B"})
      .element("register", "R0",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==1")},
                {"drive", expr("op==2")}})
      .element("alu", "ALU",
               {{"a", sym("A")}, {"b", sym("B")}, {"out", sym("A")},
                {"op", sym("op")}, {"ops", syms({"add", "and", "passa"})},
                {"load", expr("op==2")}, {"drive", expr("op==3")}})
      .element("register", "R1",
               {{"in", sym("A")}, {"out", sym("B")}, {"load", expr("op==3")},
                {"drive", expr("op==4")}})
      .buildOrDie();
}

double ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 6;
  if (n < 2 || n > 64) {
    std::fprintf(stderr, "usage: hier_demo [n]  (2 <= n <= 64)\n");
    return 1;
  }

  // 1. One compiled chip = the repeated cell.
  bb::core::CompileSession session(datapathChip());
  auto result = session.run();
  if (!result) {
    std::fprintf(stderr, "compile failed:\n%s", result.diagnostics().toString().c_str());
    return 1;
  }
  const auto chip = std::move(*result);
  bb::cell::Cell* unit = chip->top;
  const bb::geom::Rect ub = unit->boundary();
  std::printf("unit chip '%s': %zu flattened primitives, %lld x %lld units\n",
              chip->desc.name.c_str(), chip->stats.shapeCount,
              static_cast<long long>(ub.width()), static_cast<long long>(ub.height()));

  // 2. Tile it into an n x n array inside the same cell library.
  bb::cell::Cell* array = chip->lib.create("hier_demo_array");
  array->setBoundary({0, 0, ub.width() * n, ub.height() * n});
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      array->addInstance(unit, bb::geom::Transform::translate(
                                   {ub.width() * i - ub.x0, ub.height() * j - ub.y0}));
    }
  }

  // 3. Decompose once; DRC flat vs hierarchical.
  auto t0 = std::chrono::steady_clock::now();
  const bb::cell::FlatLayout flat = bb::cell::flatten(*array);
  const double flattenMs = ms(t0);
  t0 = std::chrono::steady_clock::now();
  const bb::cell::HierIndex hier(*array);
  const double indexMs = ms(t0);
  std::printf("\n%dx%d array: %zu instances, %zu flat primitives\n", n, n,
              hier.placements().size(), hier.flatCount());
  std::printf("  flatten %.1f ms (%zu rects resident)  |  HierIndex %.1f ms "
              "(%zu unique resident)\n",
              flattenMs, hier.flatCount(), indexMs, hier.uniqueCount());

  const bb::drc::DeckChecker checker(bb::tech::meadConwayRules());
  t0 = std::chrono::steady_clock::now();
  const bb::drc::DrcReport flatRep = checker.check(flat, array->boundary());
  const double flatMs = ms(t0);
  t0 = std::chrono::steady_clock::now();
  const bb::drc::DrcReport hierRep = checker.checkHier(hier);
  const double hierMs = ms(t0);
  std::printf("  DRC flat %.1f ms, hier %.1f ms (%.1fx) — %zu vs %zu violations\n", flatMs,
              hierMs, flatMs / hierMs, flatRep.violations.size(), hierRep.violations.size());

  // 4. Hierarchical mask emission: symbol calls + AREF vs flat copies.
  const std::string cifFlat = bb::layout::writeCif(bb::layout::View{flat});
  const std::string cifHier = bb::layout::writeCif(*array);
  const auto gdsFlat = bb::layout::writeGds(bb::layout::View{flat});
  const auto gdsHier = bb::layout::writeGdsHier(*array);
  const bb::layout::GdsStats gs = bb::layout::gdsStats(gdsHier);
  std::printf("  CIF %zu -> %zu bytes (%.1fx); GDS %zu -> %zu bytes (%.1fx, %zu AREF %zu "
              "SREF)\n",
              cifFlat.size(), cifHier.size(),
              static_cast<double>(cifFlat.size()) / static_cast<double>(cifHier.size()),
              gdsFlat.size(), gdsHier.size(),
              static_cast<double>(gdsFlat.size()) / static_cast<double>(gdsHier.size()),
              gs.arefs, gs.srefs);

  // 5. Lazy viewport: a corner window resolves a corner's instances.
  bb::layout::ViewOptions w;
  const bb::geom::Rect& ab = hier.bbox();
  w.window = bb::geom::Rect{ab.x0, ab.y0, ab.x0 + ab.width() / n, ab.y0 + ab.height() / n};
  const bb::layout::View view(hier, w);
  std::printf("  viewport %s: materialized %llu of %zu instances, %zu metal rects in "
              "window\n",
              bb::geom::toString(*w.window).c_str(),
              static_cast<unsigned long long>(hier.instancesMaterialized()),
              hier.placements().size(), view.rectsOn(bb::tech::Layer::Metal).size());
  return 0;
}
