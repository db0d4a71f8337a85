/// The persistent thread-pool scheduler: parallelFor equivalence with a
/// serial loop, exception capture-and-rethrow, nested submission (no
/// deadlock, no extra threads), grain/width edge cases, and the
/// whole-job BatchCompiler on it — outputs equal at any width and to a
/// sequential compile, DRC at serial and full pool width, and a stress
/// mix of batch + threaded DRC + service on the one shared pool.

#include "core/batch.hpp"
#include "core/pool.hpp"
#include "core/samples.hpp"
#include "drc/drc.hpp"
#include "reps/emitter.hpp"
#include "svc/service.hpp"
#include "tech/rules.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace bb {
namespace {

std::string emitCif(const core::CompiledChip& chip) {
  std::ostringstream os;
  EXPECT_TRUE(reps::EmitterRegistry::global().emit(chip, "cif", os, {}));
  return std::move(os).str();
}

TEST(ThreadPool, ParallelForMatchesSerialLoop) {
  core::ThreadPool pool(3);
  constexpr std::size_t kJobs = 1000;
  std::vector<int> out(kJobs, 0);
  pool.parallelFor(kJobs, 7, [&](std::size_t i) { out[i] = static_cast<int>(i) * 2; });
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) * 2) << i;
  }
}

TEST(ThreadPool, LazyStartSpawnsOnceAndOnlyWhenUsed) {
  core::ThreadPool pool(2);
  EXPECT_EQ(pool.threadsSpawned(), 0u);  // untouched pool: zero threads
  std::atomic<int> sum{0};
  pool.parallelFor(16, 1, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 120);
  EXPECT_EQ(pool.threadsSpawned(), 2u);
  pool.parallelFor(16, 1, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(pool.threadsSpawned(), 2u);  // warm pool never spawns again
  EXPECT_GT(pool.tasksExecuted(), 0u);
}

TEST(ThreadPool, FirstExceptionIsRethrownAndThePoolStaysUsable) {
  core::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(100, 1,
                       [&](std::size_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing loop and keeps scheduling correctly.
  std::atomic<int> sum{0};
  pool.parallelFor(50, 4, [&](std::size_t) { ++sum; });
  EXPECT_EQ(sum.load(), 50);
}

TEST(ThreadPool, NestedParallelForCompletesWithoutDeadlockOrExtraThreads) {
  core::ThreadPool pool(3);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> sums(kOuter);
  pool.parallelFor(kOuter, 1, [&](std::size_t o) {
    pool.parallelFor(kInner, 8,
                     [&](std::size_t i) { sums[o] += static_cast<int>(i); });
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    ASSERT_EQ(sums[o].load(), (kInner - 1) * kInner / 2) << o;
  }
  // Nesting draws on the one budget — it never spawned more workers.
  EXPECT_EQ(pool.threadsSpawned(), 3u);
}

TEST(ThreadPool, EdgeCases) {
  core::ThreadPool pool(2);
  // Zero jobs: nothing runs, nothing hangs.
  pool.parallelFor(0, 1, [](std::size_t) { FAIL() << "ran a job"; });

  // One job / grain larger than the index space: inline on the caller.
  std::atomic<int> count{0};
  pool.parallelFor(1, 1, [&](std::size_t) { ++count; });
  pool.parallelFor(5, 100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 6);
  EXPECT_EQ(pool.threadsSpawned(), 0u);  // single-chunk loops stay inline

  // Fewer jobs than workers: every index still runs exactly once.
  std::vector<int> hits(2, 0);
  pool.parallelFor(2, 1, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);

  // maxParallel == 1 degenerates to the serial loop (no tasks enqueued).
  const std::uint64_t tasksBefore = pool.tasksExecuted();
  pool.parallelFor(100, 1, [&](std::size_t) {}, 1);
  EXPECT_EQ(pool.tasksExecuted(), tasksBefore);
}

TEST(BatchPipelined, MatchesWholeJobAndSequentialOutputs) {
  std::vector<icl::ChipDesc> descs;
  descs.push_back(core::samples::smallChip(4));
  descs.push_back(core::samples::largeChip(8, 4));
  descs.push_back(core::samples::segmentedChip(8));
  descs.push_back(core::samples::smallChip(8));

  const auto wide = core::BatchCompiler({}, 4).compileAll(descs);
  const auto serial = core::BatchCompiler({}, 1).compileAll(descs);
  ASSERT_EQ(wide.size(), descs.size());
  ASSERT_EQ(serial.size(), descs.size());
  for (std::size_t i = 0; i < descs.size(); ++i) {
    ASSERT_TRUE(wide[i].ok()) << wide[i].diags.toString();
    ASSERT_TRUE(serial[i].ok()) << serial[i].diags.toString();
    // Same chip, byte for byte, at any width — and both match a plain
    // sequential compile of the same description.
    EXPECT_EQ(emitCif(*wide[i].chip), emitCif(*serial[i].chip)) << i;
    auto ref = core::compileChip(descs[i]);
    ASSERT_TRUE(ref);
    EXPECT_EQ(emitCif(*wide[i].chip), emitCif(**ref)) << i;
    EXPECT_GT(wide[i].elapsed.count(), 0) << i;
    EXPECT_GE(wide[i].finishedAfter.count(), wide[i].elapsed.count()) << i;
  }
}

TEST(BatchPipelined, WithDrcChecksEveryChipAgainstTheSharedDeck) {
  std::vector<icl::ChipDesc> descs;
  descs.push_back(core::samples::smallChip(4));
  descs.push_back(core::samples::segmentedChip(8));
  descs.push_back(core::samples::smallChip(8));

  for (const unsigned drcThreads : {1u, 0u}) {
    drc::DrcOptions dopts;
    dopts.threads = drcThreads;
    const auto results = core::BatchCompiler({}, 2)
                             .withDrc(tech::meadConwayRules(), dopts)
                             .compileAll(descs);
    ASSERT_EQ(results.size(), descs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].diags.toString();
      ASSERT_TRUE(results[i].drc.has_value()) << i;
      EXPECT_GT(results[i].drc->shapesChecked, 0u) << i;
      // Whatever the DRC width, the report matches a direct checkFlat.
      const auto ref = drc::checkFlat(results[i].chip->flatTop(),
                                      results[i].chip->top->boundary(),
                                      tech::meadConwayRules());
      EXPECT_EQ(results[i].drc->violations.size(), ref.violations.size()) << i;
    }
  }
}

TEST(DeckChecker, ReusableAcrossChipsAndWidths) {
  auto chip = core::compileChip(core::samples::smallChip(4));
  ASSERT_TRUE(chip);
  drc::DrcOptions wideOpts;
  wideOpts.threads = 0;
  const drc::DeckChecker serialChecker(tech::meadConwayRules(), {});
  const drc::DeckChecker wideChecker(tech::meadConwayRules(), wideOpts);
  const auto serial = serialChecker.check((*chip)->flatTop(), (*chip)->top->boundary());
  const auto wide = wideChecker.check((*chip)->flatTop(), (*chip)->top->boundary());
  EXPECT_EQ(serial.violations.size(), wide.violations.size());
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    // Violations keep deck order regardless of width.
    EXPECT_EQ(serial.violations[i].rule, wide.violations[i].rule) << i;
  }
}

TEST(PoolStress, BatchDrcAndServiceShareOnePoolWithoutDeadlock) {
  // Everything at once on the global pool: a batch whose jobs fan their
  // DRC out, a service batch with duplicate keys, and raw nested
  // parallelFor — the oversubscription scenario the shared budget is
  // supposed to make safe.
  std::atomic<bool> ok{true};
  std::thread svcThread([&] {
    svc::CompileService service({.threads = 2});
    std::vector<svc::CompileRequest> reqs;
    for (int i = 0; i < 6; ++i) {
      reqs.push_back(svc::CompileRequest::ofDesc(core::samples::smallChip(4)));
    }
    const auto out = service.compileAll(std::move(reqs));
    for (const auto& r : out) {
      if (!r.ok()) ok = false;
    }
    const auto stats = service.stats();
    if (stats.compilesExecuted != 1) ok = false;  // single-flighted
  });

  drc::DrcOptions dopts;
  dopts.threads = 0;  // full pool width, nested inside batch jobs
  const auto results = core::BatchCompiler({}, 0)
                           .withDrc(tech::meadConwayRules(), dopts)
                           .compileAll(std::vector<icl::ChipDesc>{
                               core::samples::smallChip(4),
                               core::samples::segmentedChip(8),
                               core::samples::largeChip(8, 4),
                               core::samples::smallChip(8),
                           });
  svcThread.join();
  EXPECT_TRUE(ok.load());
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.diags.toString();
    EXPECT_TRUE(r.drc.has_value());
  }
}

}  // namespace
}  // namespace bb
