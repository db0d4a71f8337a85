/// \file pool.hpp
/// The persistent thread-pool scheduler. Every parallel site in the
/// compiler used to spawn and join fresh `std::thread`s per call; under
/// the compile service's sustained load that is thread-creation thrash
/// on the hot path, and nested parallel calls (a batch whose jobs each
/// run threaded DRC) silently oversubscribed the machine. A
/// `ThreadPool` owns one set of long-lived workers and schedules
/// everything through a blocking task queue instead:
///
///  * `ThreadPool::global()` is the process-shared pool every parallel
///    site lands on — one thread budget for batch compilation (both
///    `core::BatchCompiler` and `svc::CompileService::compileAll` run
///    one whole job per index of one `parallelFor`), DRC rule groups,
///    lint rules and parallel tile emission. Ownable instances exist
///    for tests and embedders who want an isolated budget.
///  * Workers are started lazily on the first submitted task, so a
///    process that never goes parallel never pays for a single spawn.
///  * `parallelFor(jobs, grain, fn)` chunks the index space and the
///    *calling thread participates as a worker*: a pool of W workers
///    gives W+1-wide loops, and with no workers (or width 1) the loop
///    degenerates to the plain serial loop on the caller.
///  * The first exception thrown by `fn` is captured and rethrown on
///    the caller after all workers drain (the spawn-per-call scheduler
///    called `std::terminate` instead).
///  * Nested submission is safe: a task that itself calls
///    `parallelFor` enqueues helper chunks and runs its own slice
///    inline — never a new thread, never a deadlock. While the pool is
///    saturated the nested loop simply runs serially on its task's
///    thread; when other workers are idle (the tail of a batch) they
///    pick the helper chunks up, which is how intra-chip DRC fan-out
///    kicks in automatically once fewer jobs remain than workers.
///    A waiting caller help-runs *any* queued task, so a task must
///    never block on something only another thread can release (see
///    the no-claim-waits rule in `svc/service.hpp`).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bb::core {

class ThreadPool {
 public:
  /// `workers` = number of background worker threads; 0 picks
  /// hardware_concurrency - 1 (at least 1), so `parallelFor`'s width —
  /// workers plus the participating caller — matches the core count.
  /// Workers are not started until the first task is submitted.
  explicit ThreadPool(unsigned workers = 0);
  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-shared pool. Lazily constructed, workers lazily
  /// started; lives until process exit. This is the one thread budget
  /// every batch compile, DRC fan-out and parallel tile emission shares — `ServiceOptions::threads` and
  /// `DrcOptions::threads` are width limits on it, not thread counts,
  /// so nesting them can never multiply threads.
  [[nodiscard]] static ThreadPool& global();

  [[nodiscard]] unsigned workerCount() const noexcept { return workers_; }
  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool insideWorker() const noexcept;

  /// Total tasks executed (helper chunks, by workers and by
  /// participating callers). Monotonic; a warm serving path that
  /// stays flat here provably scheduled nothing.
  [[nodiscard]] std::uint64_t tasksExecuted() const noexcept {
    return tasksExecuted_.load(std::memory_order_relaxed);
  }
  /// Worker threads ever created. Flat after warmup — the counter the
  /// service bench asserts to prove the hot path spawns zero threads.
  [[nodiscard]] std::uint64_t threadsSpawned() const noexcept {
    return threadsSpawned_.load(std::memory_order_relaxed);
  }

  /// Run `fn(i)` for every i in [0, jobs), chunked `grain` indices per
  /// task (0 = 1). The caller participates; up to `maxParallel` threads
  /// run concurrently (0 = workers + caller). Blocks until every index
  /// ran; rethrows the first exception `fn` threw after all workers
  /// drain (indices after the throw may be skipped). Safe to call from
  /// inside a pool task (see the nested-submission note above).
  template <typename Fn>
  void parallelFor(std::size_t jobs, std::size_t grain, Fn&& fn,
                   unsigned maxParallel = 0) {
    if (jobs == 0) return;
    if (grain == 0) grain = 1;
    const unsigned width =
        maxParallel == 0 ? workers_ + 1 : std::min(maxParallel, workers_ + 1);
    const std::size_t chunks = (jobs + grain - 1) / grain;
    if (width <= 1 || chunks <= 1) {
      for (std::size_t i = 0; i < jobs; ++i) fn(i);
      return;
    }

    auto st = std::make_shared<ForState>();
    // The slice loop every participant runs: claim the next chunk off the
    // shared cursor until the index space (or the loop, on an exception)
    // is exhausted. `fn` is captured by reference — the caller does not
    // return until every helper has retired, so the referent outlives
    // every use.
    auto slices = [st, jobs, grain, &fn] {
      for (;;) {
        if (st->bailed.load(std::memory_order_relaxed)) return;
        const std::size_t start = st->cursor.fetch_add(grain, std::memory_order_relaxed);
        if (start >= jobs) return;
        const std::size_t end = std::min(jobs, start + grain);
        try {
          for (std::size_t i = start; i < end; ++i) fn(i);
        } catch (...) {
          st->bailed.store(true, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lk(st->mu);
          if (!st->first) st->first = std::current_exception();
        }
      }
    };

    const auto helpers =
        static_cast<unsigned>(std::min<std::size_t>(width - 1, chunks - 1));
    {
      const std::lock_guard<std::mutex> lk(st->mu);
      st->pending = helpers;
    }
    for (unsigned h = 0; h < helpers; ++h) {
      enqueue([st, slices] {
        slices();
        {
          const std::lock_guard<std::mutex> lk(st->mu);
          --st->pending;
        }
        st->cv.notify_all();
      });
    }
    slices();      // the caller is a worker too
    drainUntil(*st);  // help-run queued tasks until the helpers retire
    if (st->first) std::rethrow_exception(st->first);
  }

  /// Pop and execute one queued task on the calling thread. False when
  /// the queue was empty. This is how waiting callers participate
  /// instead of idling (and what makes nested waits deadlock-free: a
  /// blocked submitter drains the very tasks it is waiting on).
  bool tryRunOneTask();

 private:
  /// Completion state of one parallelFor call: outstanding helper
  /// count, first captured exception, and the cursor chunks are
  /// claimed from.
  struct ForState {
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> bailed{false};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = 0;          ///< guarded by mu
    std::exception_ptr first;         ///< guarded by mu
  };

  void enqueue(std::function<void()> task);
  void drainUntil(ForState& st);
  void workerLoop();

  unsigned workers_;
  std::atomic<std::uint64_t> tasksExecuted_{0};
  std::atomic<std::uint64_t> threadsSpawned_{0};
  std::mutex qmu_;
  std::condition_variable qcv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool started_ = false;  ///< guarded by qmu_
  bool stop_ = false;     ///< guarded by qmu_
};

}  // namespace bb::core
