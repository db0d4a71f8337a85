/// HIER-SCALING — the hierarchical compile paths (cell-level DRC and
/// extraction reuse, SREF/AREF mask emission) against their flat
/// oracles, on NxN arrays of a DRC-clean transistor leaf swept from
/// 4x4 to 64x64. The table is the paper-artifact: the hierarchy is the
/// paper's whole premise ("rather than on fully instantiated artwork"),
/// so flat cost grows with N^2 instances while the hierarchical paths
/// check/extract one unique cell plus interaction regions and emit one
/// symbol plus an AREF. Acceptance bars: >=10x DRC items/sec and >=10x
/// smaller CIF/GDS at 32x32.
///
/// Every row is also an equivalence gate, aborting on divergence:
///   * DRC: identical violation sets (both empty — the leaf is clean);
///   * extraction: `netlistsEquivalent` (same circuit up to renaming);
///   * emission: hierarchical CIF parses back (`parseCif`) and its
///     flattened per-layer union areas equal the flat artwork's, and the
///     GDS AREF stream stays well-formed with exactly one AREF.
///
/// Env knobs: BB_BENCH_SMOKE=1 caps the sweep for CI (and skips the
/// google-benchmark timings).

#include "bench_util.hpp"

#include "cell/flatten.hpp"
#include "cell/hier_index.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/sweep.hpp"
#include "layout/cif.hpp"
#include "layout/cif_parser.hpp"
#include "layout/gds.hpp"
#include "tech/rules.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

using namespace bb;

namespace {

using geom::Coord;
using geom::lambda;
using geom::Rect;
using tech::Layer;

constexpr Coord kMotifSide = 20;                 // lambda
constexpr std::size_t kMotifsPerSide = 4;        // leaf = 4x4 motifs
constexpr Coord kLeafSide = kMotifSide * static_cast<Coord>(kMotifsPerSide);

/// A DRC-clean 80Lx80L leaf built from a 4x4 tiling of a transistor
/// motif: one enhancement transistor (poly crossing diffusion, generous
/// gate extensions), a poly/metal contact stack, and a full-width metal
/// strip that reaches both side edges so horizontally abutting motifs —
/// and abutting leaf instances — merge into one net per row (the stitch
/// the hierarchical extractor must reproduce). 96 primitives per leaf:
/// the interior-work-dominates regime the per-cell DRC reuse targets (a
/// real Bristle-Blocks slice cell, not a degenerate 6-rect tile).
cell::Cell* makeLeaf(cell::CellLibrary& lib) {
  cell::Cell* c = lib.create("hier_leaf");
  c->setBoundary({0, 0, lambda(kLeafSide), lambda(kLeafSide)});
  for (std::size_t mj = 0; mj < kMotifsPerSide; ++mj) {
    for (std::size_t mi = 0; mi < kMotifsPerSide; ++mi) {
      const Coord x = lambda(kMotifSide) * static_cast<Coord>(mi);
      const Coord y = lambda(kMotifSide) * static_cast<Coord>(mj);
      const auto at = [x, y](Coord x0, Coord y0, Coord x1, Coord y1) {
        return Rect{x + x0, y + y0, x + x1, y + y1};
      };
      c->addRect(Layer::Diffusion, at(lambda(8), lambda(2), lambda(10), lambda(18)));
      c->addRect(Layer::Poly, at(lambda(2), lambda(9), lambda(18), lambda(11)));
      // Contact stack: 4L poly and metal pads with a 2L cut, 1L surround.
      c->addRect(Layer::Poly, at(lambda(3), lambda(8), lambda(7), lambda(12)));
      c->addRect(Layer::Metal, at(lambda(3), lambda(8), lambda(7), lambda(12)));
      c->addRect(Layer::Contact, at(lambda(4), lambda(9), lambda(6), lambda(11)));
      // Interface wiring: metal strip across the full motif width.
      c->addRect(Layer::Metal, at(0, lambda(15), lambda(kMotifSide), lambda(18)));
    }
  }
  return c;
}

cell::Cell* makeArray(cell::CellLibrary& lib, std::size_t n) {
  cell::Cell* leaf = makeLeaf(lib);
  cell::Cell* top = lib.create("hier_array");
  const Coord pitch = lambda(kLeafSide);
  top->setBoundary({0, 0, static_cast<Coord>(n) * pitch, static_cast<Coord>(n) * pitch});
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      top->addInstance(leaf, geom::Transform{geom::Orientation::R0,
                                             {static_cast<Coord>(i) * pitch,
                                              static_cast<Coord>(j) * pitch}});
    }
  }
  return top;
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

[[noreturn]] void die(const char* what, std::size_t n, const std::string& detail = {}) {
  std::fprintf(stderr, "FATAL: hierarchical %s diverged from flat at n=%zux%zu%s%s\n", what,
               n, n, detail.empty() ? "" : ": ", detail.c_str());
  std::abort();
}

/// Violations as an order-insensitive fingerprint set.
std::vector<std::string> violationSet(const drc::DrcReport& rep) {
  std::vector<std::string> v;
  v.reserve(rep.violations.size());
  for (const drc::Violation& x : rep.violations) {
    v.push_back(x.rule + "@" + geom::toString(x.where));
  }
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<Coord> layerAreas(const cell::FlatLayout& flat) {
  std::vector<Coord> areas;
  for (Layer l : tech::kAllLayers) {
    areas.push_back(geom::sweep::unionArea(flat.rects[static_cast<std::size_t>(l)]));
  }
  return areas;
}

void printTable(bool smoke) {
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{4, 8} : std::vector<std::size_t>{4, 8, 16, 32, 64};
  const tech::RuleDeck& deck = tech::meadConwayRules();
  drc::DrcOptions dopts;  // defaults: indexed, boundary conditions on
  const drc::DeckChecker checker(deck, dopts);

  std::printf("== HIER-SCALING: cell-level reuse vs fully instantiated artwork ==\n");
  std::printf("%6s %9s %12s %12s %9s %12s %12s %9s %11s %11s %9s\n", "array", "rects",
              "drc_flat_ms", "drc_hier_ms", "drc_x", "ext_flat_ms", "ext_hier_ms", "ext_x",
              "cif_flat_b", "cif_hier_b", "cif_x");
  for (const std::size_t n : sizes) {
    cell::CellLibrary lib;
    cell::Cell* top = makeArray(lib, n);
    const cell::FlatLayout flat = cell::flatten(*top);
    const cell::HierIndex hier(*top);
    const auto rects = static_cast<long long>(hier.flatCount());

    // --- DRC: flat oracle vs hierarchical, identical violation sets.
    auto t0 = std::chrono::steady_clock::now();
    const drc::DrcReport flatRep = checker.check(flat, top->boundary());
    const double drcFlatS = secondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    const drc::DrcReport hierRep = checker.checkHier(hier);
    const double drcHierS = secondsSince(t0);
    if (violationSet(flatRep) != violationSet(hierRep)) {
      die("DRC", n,
          "flat=" + std::to_string(flatRep.violations.size()) +
              " hier=" + std::to_string(hierRep.violations.size()));
    }
    bench::BenchJson::instance().recordRun("hier_drc_flat", rects, drcFlatS);
    bench::BenchJson::instance().recordRun("hier_drc", rects, drcHierS);

    // --- Extraction: one netlist per unique cell, stitched; must be the
    // same circuit as the flat oracle up to renaming.
    t0 = std::chrono::steady_clock::now();
    const extract::ExtractResult flatEx = extract::extractFlat(flat, {});
    const double extFlatS = secondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    const extract::ExtractResult hierEx = extract::extractHier(hier, {});
    const double extHierS = secondsSince(t0);
    std::string why;
    if (!extract::netlistsEquivalent(flatEx, hierEx, &why)) die("extraction", n, why);
    bench::BenchJson::instance().recordRun("hier_extract_flat", rects, extFlatS);
    bench::BenchJson::instance().recordRun("hier_extract", rects, extHierS);

    // --- Emission: symbol calls + AREF vs flattened copies. Size is the
    // metric; correctness is the CIF round-trip (parse the hierarchical
    // file back, flatten, compare per-layer union areas) and the GDS
    // structure walk (well-formed, exactly one AREF, no SREF flood).
    t0 = std::chrono::steady_clock::now();
    const std::string cifFlat = layout::writeCif(layout::View{flat});
    const std::vector<std::uint8_t> gdsFlat = layout::writeGds(layout::View{flat});
    const double emitFlatS = secondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    const std::string cifHier = layout::writeCif(*top);
    const std::vector<std::uint8_t> gdsHier = layout::writeGdsHier(*top);
    const double emitHierS = secondsSince(t0);

    {
      cell::CellLibrary rt;
      const layout::CifParseResult parsed = layout::parseCif(cifHier, rt);
      if (!parsed.ok) die("CIF round-trip", n, parsed.error);
      const cell::FlatLayout rtFlat = cell::flatten(*parsed.top);
      if (layerAreas(rtFlat) != layerAreas(flat)) die("CIF area", n);
    }
    const layout::GdsStats gs = layout::gdsStats(gdsHier);
    if (!gs.wellFormed || gs.arefs != 1 || gs.srefs != 0) {
      die("GDS AREF", n,
          "arefs=" + std::to_string(gs.arefs) + " srefs=" + std::to_string(gs.srefs));
    }
    bench::BenchJson::instance().recordRun("hier_emit_flat", rects, emitFlatS);
    bench::BenchJson::instance().recordRun("hier_emit", rects, emitHierS);
    const double cifRatio =
        static_cast<double>(cifFlat.size()) / static_cast<double>(cifHier.size());
    const double gdsRatio =
        static_cast<double>(gdsFlat.size()) / static_cast<double>(gdsHier.size());
    bench::BenchJson::instance().record("hier_cif_ratio", rects, 0, cifRatio);
    bench::BenchJson::instance().record("hier_gds_ratio", rects, 0, gdsRatio);

    // --- Acceptance bars at 32x32: >=10x DRC throughput, >=10x smaller
    // masks. (Timing bar only off smoke — smoke never reaches n=32.)
    if (n >= 32) {
      if (drcFlatS < 10.0 * drcHierS) {
        std::fprintf(stderr, "FATAL: hier DRC speedup %.1fx below 10x bar at %zux%zu\n",
                     drcFlatS / drcHierS, n, n);
        std::abort();
      }
      if (cifRatio < 10.0 || gdsRatio < 10.0) {
        std::fprintf(stderr, "FATAL: mask shrink below 10x bar at %zux%zu (cif %.1fx, gds %.1fx)\n",
                     n, n, cifRatio, gdsRatio);
        std::abort();
      }
    }

    std::printf("%3zux%-3zu %9lld %12.2f %12.2f %8.1fx %12.2f %12.2f %8.1fx %11zu %11zu %8.1fx\n",
                n, n, rects, drcFlatS * 1e3, drcHierS * 1e3, drcFlatS / drcHierS,
                extFlatS * 1e3, extHierS * 1e3, extFlatS / extHierS, cifFlat.size(),
                cifHier.size(), cifRatio);
  }
  std::printf("(every row gated on flat/hier equivalence: DRC sets, netlists, mask areas)\n\n");
}

void BM_HierDrc(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cell::CellLibrary lib;
  cell::Cell* top = makeArray(lib, n);
  const cell::HierIndex hier(*top);
  const drc::DeckChecker checker(tech::meadConwayRules());
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.checkHier(hier).violations.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(hier.flatCount()));
}
BENCHMARK(BM_HierDrc)->RangeMultiplier(2)->Range(4, 32)->Unit(benchmark::kMillisecond);

void BM_FlatDrc(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cell::CellLibrary lib;
  cell::Cell* top = makeArray(lib, n);
  const cell::FlatLayout flat = cell::flatten(*top);
  const drc::DeckChecker checker(tech::meadConwayRules());
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(flat, top->boundary()).violations.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flat.totalCount()));
}
BENCHMARK(BM_FlatDrc)->RangeMultiplier(2)->Range(4, 16)->Unit(benchmark::kMillisecond);

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
