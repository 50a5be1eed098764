#ifndef RMA_MATRIX_PARALLEL_H_
#define RMA_MATRIX_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rma {

/// Number of worker threads the kernels use (hardware concurrency, >= 1).
int DefaultThreadCount();

/// The ambient per-thread worker budget applied when ParallelFor is called
/// with `max_threads == 0`. 0 means "no budget set" (DefaultThreadCount()).
/// The execution context installs the budget of RmaOptions::max_threads for
/// the duration of a kernel stage via ScopedThreadBudget, so the whole
/// matrix layer honours the context without every kernel signature carrying
/// a thread count.
int CurrentThreadBudget();

/// RAII guard installing a thread budget for the current thread; restores
/// the previous budget on destruction. `max_threads <= 0` leaves the budget
/// unchanged.
class ScopedThreadBudget {
 public:
  explicit ScopedThreadBudget(int max_threads);
  ~ScopedThreadBudget();

  ScopedThreadBudget(const ScopedThreadBudget&) = delete;
  ScopedThreadBudget& operator=(const ScopedThreadBudget&) = delete;

 private:
  int previous_;
};

/// Runs fn(begin..end) split across threads in contiguous chunks. Falls back
/// to inline execution for small ranges. `fn` receives (chunk_begin,
/// chunk_end) and must be thread-safe across disjoint chunks. `max_threads`
/// caps the worker count (0 = the ambient ScopedThreadBudget, falling back
/// to DefaultThreadCount(); 1 = run inline — used to model single-threaded
/// competitors).
///
/// Workers inherit a split of the caller's resolved budget (each gets
/// `max(1, budget / workers)`), so a nested ParallelFor inside `fn` cannot
/// fan out past the caller's budget. If `fn` throws, all workers are joined
/// and the first exception is rethrown on the calling thread.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t min_chunk = 1024, int max_threads = 0);

/// A small persistent worker pool for coarse-grained tasks (row-range shards
/// of one operation, batched statements). Kernels keep using ParallelFor for
/// fine-grained data parallelism; the pool schedules the *structural*
/// concurrency above them.
///
/// Waiting is cooperative: Wait() executes queued tasks on the waiting
/// thread while its task is pending, so fork/join recursion (a batched
/// statement whose operation submits and waits on its shards) cannot
/// deadlock even on a single-worker pool.
class ThreadPool {
 public:
  /// One submitted task. `done()` becomes true after the task ran (or was
  /// abandoned by pool shutdown); an exception thrown by the task is
  /// captured and rethrown by ThreadPool::Wait.
  class Task {
   public:
    bool done() const { return done_.load(std::memory_order_acquire); }

   private:
    friend class ThreadPool;
    /// fn_ and error_ are not lock-guarded: fn_ is written once before the
    /// task is published to the queue and consumed by the single thread that
    /// runs it; error_ is written by that thread before the release store to
    /// done_, and read by waiters only after observing done_ (acquire) — the
    /// atomic is the synchronization edge, not mu_. mu_ exists solely to
    /// pair with cv_ so a done_ flip cannot race a waiter between its check
    /// and its sleep.
    std::function<void()> fn_;
    std::atomic<bool> done_{false};
    std::exception_ptr error_;
    Mutex mu_;
    CondVar cv_;
  };
  using TaskPtr = std::shared_ptr<Task>;

  /// `threads <= 0` sizes the pool to DefaultThreadCount() (at least 2, so
  /// structural concurrency exists even on single-core machines).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn`; worker threads start with no ambient thread budget (the
  /// task installs its own ScopedThreadBudget if it needs one).
  TaskPtr Submit(std::function<void()> fn);

  /// Runs one queued task on the calling thread. Returns false if the queue
  /// was empty.
  bool TryRunOne();

  /// Blocks until `task` completed, executing other queued tasks while
  /// waiting (cooperative join). Rethrows the task's exception, if any.
  void Wait(const TaskPtr& task);

  /// The process-wide shared pool used by sharded operations and batched
  /// statement execution.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();
  static void RunTask(const TaskPtr& task);

  Mutex mu_;
  CondVar cv_;
  std::deque<TaskPtr> queue_ RMA_GUARDED_BY(mu_);
  bool stop_ RMA_GUARDED_BY(mu_) = false;
  /// Written only by the constructor before any concurrency exists; joined
  /// by the destructor after every worker observed stop_. Not lock-guarded.
  std::vector<std::thread> workers_;
};

}  // namespace rma

#endif  // RMA_MATRIX_PARALLEL_H_
