/// POOL — scheduling overhead of the persistent thread pool against the
/// spawn-per-call scheduler it replaced: many small parallel loops, the
/// compile service's hot-path shape, where thread-creation cost used to
/// dominate the actual work. Also times a nested fan-out (parallelFor
/// inside parallelFor), the batch x DRC shape that now shares one
/// budget instead of multiplying threads.
///
/// The gate: per-call overhead through the warm pool must be at least
/// 5x lower than spawn-per-call (skipped on single-core boxes, where
/// neither scheduler goes parallel). The two schedulers are timed in
/// interleaved rounds, alternating which goes first, and the gate
/// compares their median rounds, so one round disturbed by the host
/// cannot fail it. Rows land in BENCH.json as `pool_spawn_call` /
/// `pool_persistent_call` (each the median round) / `pool_nested`.
///
/// Env knobs: BB_BENCH_SMOKE=1 shrinks call counts for CI (and skips
/// the google-benchmark timings).

#include "bench_util.hpp"

#include "core/pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

using namespace bb;

namespace {

constexpr std::size_t kJobsPerCall = 64;
constexpr std::size_t kGrain = 8;
constexpr unsigned kWidth = 4;
constexpr std::size_t kRounds = 15;  ///< timed rounds per scheduler (odd: one median)

/// The pre-pool scheduler, verbatim shape: spawn fresh threads, pull
/// jobs off a shared cursor, join. Kept here as the bench's reference.
template <typename Fn>
void spawnWorkQueue(std::size_t jobs, unsigned threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs) return;
      fn(i);
    }
  };
  const auto n = static_cast<unsigned>(
      std::min<std::size_t>(threads != 0 ? threads : 1, jobs));
  std::vector<std::thread> workers;
  for (unsigned t = 1; t < n; ++t) workers.emplace_back(worker);
  worker();
  for (std::thread& t : workers) t.join();
}

/// One tiny parallel loop; returns its checksum so the work is real.
template <typename Sched>
std::uint64_t oneCall(Sched&& sched) {
  std::atomic<std::uint64_t> sum{0};
  sched([&](std::size_t i) { sum.fetch_add(i + 1, std::memory_order_relaxed); });
  return sum.load();
}

constexpr std::uint64_t kCallChecksum = kJobsPerCall * (kJobsPerCall + 1) / 2;

double timeCalls(std::size_t calls, const std::function<std::uint64_t()>& call) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < calls; ++c) {
    if (call() != kCallChecksum) std::abort();  // a scheduler lost jobs
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

void printTable(bool smoke) {
  const std::size_t calls = smoke ? 100 : 500;  // per round
  core::ThreadPool& pool = core::ThreadPool::global();

  const auto spawnCall = [] {
    return oneCall([](auto&& fn) { spawnWorkQueue(kJobsPerCall, kWidth, fn); });
  };
  const auto poolCall = [&pool] {
    return oneCall([&pool](auto&& fn) {
      pool.parallelFor(kJobsPerCall, kGrain, fn, kWidth);
    });
  };

  (void)poolCall();  // warm the pool: spawn the workers outside the timing
  std::vector<double> spawnRounds, poolRounds;
  for (std::size_t r = 0; r < kRounds; ++r) {
    // Alternate the order, so neither scheduler always runs second.
    if (r % 2 == 0) spawnRounds.push_back(timeCalls(calls, spawnCall));
    poolRounds.push_back(timeCalls(calls, poolCall));
    if (r % 2 == 1) spawnRounds.push_back(timeCalls(calls, spawnCall));
  }
  const double tSpawn = median(spawnRounds);
  const double tPool = median(poolRounds);
  const double nsSpawn = tSpawn * 1e9 / static_cast<double>(calls);
  const double nsPool = tPool * 1e9 / static_cast<double>(calls);

  // Nested fan-out: an outer loop whose every job runs an inner loop on
  // the same pool — the batch x DRC shape.
  constexpr std::size_t kOuter = 8;
  const auto nestedCall = [&pool] {
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(kOuter, 1, [&](std::size_t) {
      pool.parallelFor(kJobsPerCall, kGrain, [&](std::size_t i) {
        sum.fetch_add(i + 1, std::memory_order_relaxed);
      });
    });
    return sum.load();
  };
  const std::size_t nestedCalls = std::max<std::size_t>(calls / 8, 1);
  const auto tn0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < nestedCalls; ++c) {
    if (nestedCall() != kOuter * kCallChecksum) std::abort();
  }
  const double tNested =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - tn0).count();

  std::printf("== POOL: per-call overhead, %zu-job loops, width %u, median of %zu rounds ==\n",
              kJobsPerCall, kWidth, kRounds);
  std::printf("%-28s %12s %14s\n", "scheduler", "ns/call", "calls/sec");
  std::printf("%-28s %12.0f %14.0f\n", "spawn per call", nsSpawn,
              static_cast<double>(calls) / tSpawn);
  std::printf("%-28s %12.0f %14.0f\n", "persistent pool", nsPool,
              static_cast<double>(calls) / tPool);
  std::printf("%-28s %12.0f %14.0f\n", "pool, nested 8x fan-out",
              tNested * 1e9 / static_cast<double>(nestedCalls),
              static_cast<double>(nestedCalls) / tNested);
  std::printf("(pool overhead %.1fx lower than spawn; threads spawned: %llu, "
              "hardware concurrency: %u)\n\n",
              nsSpawn / nsPool,
              static_cast<unsigned long long>(pool.threadsSpawned()),
              std::thread::hardware_concurrency());

  bench::BenchJson::instance().recordRun("pool_spawn_call",
                                         static_cast<long long>(calls), tSpawn);
  bench::BenchJson::instance().recordRun("pool_persistent_call",
                                         static_cast<long long>(calls), tPool);
  bench::BenchJson::instance().recordRun(
      "pool_nested", static_cast<long long>(nestedCalls), tNested);

  // The acceptance gate. On a single-core box neither scheduler goes
  // parallel (the pool degenerates to an inline loop), so the ratio is
  // meaningless there and the gate is skipped.
  if (std::thread::hardware_concurrency() >= 2 && nsPool * 5.0 > nsSpawn) {
    std::fprintf(stderr,
                 "FATAL: pool per-call overhead (%.0f ns) not >=5x lower than "
                 "spawn-per-call (%.0f ns)\n",
                 nsPool, nsSpawn);
    std::exit(1);
  }
}

void BM_SpawnPerCall(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oneCall([](auto&& fn) { spawnWorkQueue(kJobsPerCall, kWidth, fn); }));
  }
}
BENCHMARK(BM_SpawnPerCall)->Unit(benchmark::kMicrosecond);

void BM_PersistentPoolCall(benchmark::State& state) {
  core::ThreadPool& pool = core::ThreadPool::global();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oneCall([&pool](auto&& fn) {
      pool.parallelFor(kJobsPerCall, kGrain, fn, kWidth);
    }));
  }
}
BENCHMARK(BM_PersistentPoolCall)->Unit(benchmark::kMicrosecond);

void BM_PoolNestedFanOut(benchmark::State& state) {
  core::ThreadPool& pool = core::ThreadPool::global();
  for (auto _ : state) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(8, 1, [&](std::size_t) {
      pool.parallelFor(kJobsPerCall, kGrain, [&](std::size_t i) {
        sum.fetch_add(i + 1, std::memory_order_relaxed);
      });
    });
    benchmark::DoNotOptimize(sum.load());
  }
}
BENCHMARK(BM_PoolNestedFanOut)->Unit(benchmark::kMicrosecond);

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
