/// BATCH — throughput of the concurrent BatchCompiler: chips/sec at
/// 1/4/8 worker threads against a sequential CompileSession loop over
/// the same job mix, for both frontends: ICL source (every job parses)
/// and pre-built `icl::ChipDesc` jobs (the parse stage is skipped, the
/// ChipBuilder/typed path). The pipeline shares nothing mutable between
/// sessions, so the batch should scale with cores until memory
/// bandwidth takes over (on a single-core box the table degenerates to
/// "no speedup", which is itself the interesting datum).
///
/// A second table runs the *mixed-size* workload (many small chips plus
/// a few large ones, every job DRC-checked at `DrcOptions::threads = 0`,
/// so the last big chips' rule units spread over the idle tail). The
/// interesting number is the p99 of per-job sojourn time
/// (`BatchResult::finishedAfter`): small chips that queue behind
/// stragglers show up there.
///
/// Env knobs: BB_BENCH_SMOKE=1 caps the job mix for CI (and skips the
/// google-benchmark timings). Perf rows land in BENCH.json as
/// `batch_src_t{N}` / `batch_desc_t{N}` plus `batch_mixed_t{N}` /
/// `batch_mixed_p99_t{N}`.

#include "bench_util.hpp"

#include "core/batch.hpp"
#include "tech/rules.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace bb;

namespace {

std::vector<icl::ChipDesc> descMix(int copies) {
  std::vector<icl::ChipDesc> descs;
  for (int i = 0; i < copies; ++i) {
    descs.push_back(core::samples::smallChip(4));
    descs.push_back(core::samples::smallChip(8));
    descs.push_back(core::samples::segmentedChip(8));
    descs.push_back(core::samples::largeChip(16, 8));
  }
  return descs;
}

std::vector<std::string> sourcesOf(const std::vector<icl::ChipDesc>& descs) {
  std::vector<std::string> sources;
  sources.reserve(descs.size());
  for (const icl::ChipDesc& d : descs) sources.push_back(d.toString());
  return sources;
}

double sequentialSeconds(const std::vector<std::string>& sources) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string& src : sources) {
    auto result = core::CompileSession(src).run();
    if (!result) std::abort();
    benchmark::DoNotOptimize(result->get()->stats.dieArea);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

template <typename Jobs>
double batchSeconds(const Jobs& jobs, unsigned threads) {
  const core::BatchCompiler batch({}, threads);
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = batch.compileAll(jobs);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const core::BatchResult& r : results) {
    if (!r.ok()) std::abort();
  }
  return s;
}

void printTable(bool smoke) {
  const std::vector<icl::ChipDesc> descs = descMix(smoke ? 2 : 6);
  const std::vector<std::string> sources = sourcesOf(descs);
  const auto jobs = static_cast<long long>(descs.size());
  const double n = static_cast<double>(jobs);

  std::printf("== BATCH: chips/sec through the staged pipeline (%lld jobs) ==\n", jobs);
  std::printf("%-28s %10s %12s %10s\n", "configuration", "seconds", "chips/sec",
              "speedup");
  const double tSeq = sequentialSeconds(sources);
  std::printf("%-28s %10.3f %12.1f %9.2fx\n", "sequential session", tSeq, n / tSeq, 1.0);
  for (const unsigned threads : {1u, 4u, 8u}) {
    // Source jobs: every worker parses its chip before compiling.
    const double tSrc = batchSeconds(sources, threads);
    std::printf("batch src,  %2u thread%s      %10.3f %12.1f %9.2fx\n", threads,
                threads == 1 ? " " : "s", tSrc, n / tSrc, tSeq / tSrc);
    bench::BenchJson::instance().recordRun("batch_src_t" + std::to_string(threads),
                                           jobs, tSrc);
    // Pre-built descriptions: the parse stage is skipped entirely.
    const double tDesc = batchSeconds(descs, threads);
    std::printf("batch desc, %2u thread%s      %10.3f %12.1f %9.2fx\n", threads,
                threads == 1 ? " " : "s", tDesc, n / tDesc, tSeq / tDesc);
    bench::BenchJson::instance().recordRun("batch_desc_t" + std::to_string(threads),
                                           jobs, tDesc);
  }
  std::printf("(hardware concurrency: %u)\n\n", std::thread::hardware_concurrency());
}

/// The tail-latency workload: mostly small chips with a few big ones
/// mixed in, every job DRC-checked against the shared Mead-Conway deck.
std::vector<icl::ChipDesc> mixedMix(int copies) {
  std::vector<icl::ChipDesc> descs;
  for (int i = 0; i < copies; ++i) {
    for (int w : {2, 4, 6, 8}) descs.push_back(core::samples::smallChip(w));
    descs.push_back(core::samples::segmentedChip(8));
    descs.push_back(core::samples::largeChip(16, 8));
  }
  return descs;
}

double p99Seconds(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  std::size_t idx = (xs.size() * 99) / 100;
  if (idx >= xs.size()) idx = xs.size() - 1;
  return xs[idx];
}

struct MixedRun {
  double totalSeconds = 0;
  double p99 = 0;  ///< p99 of per-job sojourn (finishedAfter), seconds
};

MixedRun runMixed(const std::vector<icl::ChipDesc>& descs, unsigned threads) {
  core::BatchCompiler batch({}, threads);
  drc::DrcOptions dopts;
  dopts.threads = 0;  // stragglers' rule units spread over idle workers
  batch.withDrc(tech::meadConwayRules(), dopts);

  const auto t0 = std::chrono::steady_clock::now();
  const auto results = batch.compileAll(descs);
  MixedRun run;
  run.totalSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::vector<double> sojourns;
  sojourns.reserve(results.size());
  for (const core::BatchResult& r : results) {
    if (!r.ok() || !r.drc.has_value()) std::abort();
    sojourns.push_back(std::chrono::duration<double>(r.finishedAfter).count());
  }
  run.p99 = p99Seconds(std::move(sojourns));
  return run;
}

void printMixedTable(bool smoke) {
  const std::vector<icl::ChipDesc> descs = mixedMix(smoke ? 1 : 4);
  const auto jobs = static_cast<long long>(descs.size());

  std::printf("== BATCH MIXED: small+large jobs with DRC, sojourn p99 (%lld jobs) ==\n",
              jobs);
  std::printf("%-30s %10s %12s\n", "configuration", "seconds", "p99 ms");
  for (const unsigned threads : {4u, 8u}) {
    const MixedRun run = runMixed(descs, threads);
    std::printf("batch,      %2u lanes          %10.3f %12.2f\n", threads,
                run.totalSeconds, run.p99 * 1e3);
    bench::BenchJson::instance().recordRun("batch_mixed_t" + std::to_string(threads),
                                           jobs, run.totalSeconds);
    // p99 rows: one "op" is one job's p99 sojourn; throughput is not
    // meaningful for a percentile, so items_per_sec is recorded as 0.
    bench::BenchJson::instance().record(
        "batch_mixed_p99_t" + std::to_string(threads), jobs, run.p99 * 1e9, 0);
  }
  std::printf("(DRC at threads=0: the tail stragglers' rule units fan out over "
              "idle workers)\n\n");
}

void BM_SequentialCompile(benchmark::State& state) {
  const std::vector<std::string> sources = sourcesOf(descMix(1));
  for (auto _ : state) {
    for (const std::string& src : sources) {
      auto result = core::CompileSession(src).run();
      benchmark::DoNotOptimize(result.hasValue());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sources.size()));
}
BENCHMARK(BM_SequentialCompile)->Unit(benchmark::kMillisecond);

void BM_BatchCompile(benchmark::State& state) {
  const std::vector<std::string> sources = sourcesOf(descMix(1));
  const core::BatchCompiler batch({}, static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const auto results = batch.compileAll(sources);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sources.size()));
}
BENCHMARK(BM_BatchCompile)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_BatchCompileDesc(benchmark::State& state) {
  const std::vector<icl::ChipDesc> descs = descMix(1);
  const core::BatchCompiler batch({}, static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const auto results = batch.compileAll(descs);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(descs.size()));
}
BENCHMARK(BM_BatchCompileDesc)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("BB_BENCH_SMOKE") != nullptr;
  printTable(smoke);
  printMixedTable(smoke);
  if (!bench::BenchJson::instance().write()) {
    std::fprintf(stderr, "FATAL: failed to land perf rows in BENCH.json (cause above)\n");
    return 1;
  }
  if (smoke) return 0;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
