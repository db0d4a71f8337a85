#include "core/pool.hpp"

#include <algorithm>
#include <chrono>

namespace bb::core {

namespace {
/// The pool the calling thread is a worker of (null for client threads).
/// Per-thread, so pools can be nested without confusion: a test pool's
/// worker is not "inside" the global pool.
thread_local const ThreadPool* tlsWorkerPool = nullptr;
}  // namespace

namespace {
/// Default worker count: hardware concurrency minus the participating
/// caller, and at least one so task-only submitters always make
/// progress even when no caller is draining.
unsigned defaultWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1u;
}
}  // namespace

ThreadPool::ThreadPool(unsigned workers)
    : workers_(workers != 0 ? workers : defaultWorkers()) {}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(qmu_);
    stop_ = true;
  }
  qcv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::insideWorker() const noexcept { return tlsWorkerPool == this; }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lk(qmu_);
    if (!started_) {
      // Lazy start: the first submitted task pays the spawns, nothing
      // else ever does. threads_ is only written here and in the dtor
      // (which runs strictly after all submissions), both under qmu_.
      started_ = true;
      threads_.reserve(workers_);
      for (unsigned t = 0; t < workers_; ++t) {
        threads_.emplace_back([this] { workerLoop(); });
      }
      threadsSpawned_.fetch_add(workers_, std::memory_order_relaxed);
    }
    queue_.push_back(std::move(task));
  }
  qcv_.notify_one();
}

bool ThreadPool::tryRunOneTask() {
  std::function<void()> task;
  {
    const std::lock_guard<std::mutex> lk(qmu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  tasksExecuted_.fetch_add(1, std::memory_order_relaxed);
  task();
  return true;
}

void ThreadPool::drainUntil(ForState& st) {
  std::unique_lock<std::mutex> lk(st.mu);
  while (st.pending > 0) {
    lk.unlock();
    if (tryRunOneTask()) {
      lk.lock();
      continue;
    }
    lk.lock();
    // Queue empty: the remaining tasks are executing on other workers.
    // Every completion notifies, so this wakes promptly; the timeout is
    // a belt-and-suspenders re-check of the queue (a task submitted
    // while we sleep is a task we could be helping with).
    st.cv.wait_for(lk, std::chrono::milliseconds(1),
                   [&] { return st.pending == 0; });
  }
}

void ThreadPool::workerLoop() {
  tlsWorkerPool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(qmu_);
      qcv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    tasksExecuted_.fetch_add(1, std::memory_order_relaxed);
    // Tasks never throw: parallelFor slices catch at the submission
    // layer and surface the exception on the waiter.
    task();
  }
}

}  // namespace bb::core
