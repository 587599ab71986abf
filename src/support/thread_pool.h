// FIFO thread pool for the evaluation driver's per-workload map.
//
// Architecture:
//   - One mutex-guarded FIFO queue shared by every worker. Tasks run in the
//     order they were submitted, so a caller that submits heaviest first
//     (the driver's LPT order) gets heaviest-first starts.
//   - TaskGroup is the structured-fork primitive for nested parallelism:
//     run() submits subtasks, wait() *helps* — it pops and runs this group's
//     pending subtasks inline instead of blocking — so a task on a fixed
//     pool can fan out subtasks and join them without ever deadlocking, even
//     on a 1-worker pool (the waiter itself supplies the missing worker).
//   - Workers grow but never shrink: ensureWorkers() lets one shared()
//     process-wide pool be reused across driver and bench invocations
//     instead of constructing (and tearing down) a pool per call.
//
// Determinism contract: parallelIndexMap returns results in index order and
// surfaces the lowest-index exception; TaskGroup::wait rethrows the
// lowest-submission-index exception. The pool's own counters (pool.tasks,
// pool.tasks_nested) are schedule-dependent and therefore always recorded
// as *global* trace counters — they never enter the deterministic per-task
// records, so metrics and traces stay byte-identical at any worker count.
//
// Shutdown: the destructor drains every queued task, then joins. submit()
// during or after shutdown throws std::runtime_error — a silently dropped
// task is a hang in the caller, a thrown one is a bug report.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cayman {

class ThreadPool {
 public:
  /// Hard cap on workers; matches the CLI's --jobs upper bound.
  static constexpr unsigned kMaxWorkers = 1024;

  /// Workers to use when the caller does not say: CAYMAN_JOBS from the
  /// environment when set, else std::thread::hardware_concurrency, never 0.
  static unsigned defaultWorkers();

  /// The process-wide shared pool (deliberately leaked — tasks may still be
  /// draining when static destructors run). Starts with a single worker so
  /// callers that asked for --jobs 1 get genuinely serial execution; grow it
  /// with ensureWorkers(jobs).
  static ThreadPool& shared();

  explicit ThreadPool(unsigned workers = defaultWorkers());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const;

  /// Grows the pool to at least `workers` workers (never shrinks; capped at
  /// kMaxWorkers). Thread-safe; no-op when already large enough.
  void ensureWorkers(unsigned workers);

  /// True once destruction has begun (submit() would throw).
  bool stopping() const;

  /// Enqueues `fn` and returns its future. Exceptions thrown by `fn`
  /// propagate through the future. Throws std::runtime_error when the pool
  /// is stopping: enqueueing into a dead pool would silently never run.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    submitRaw([task] { (*task)(); });
    return future;
  }

  /// Fire-and-forget submission (TaskGroup ticks, packaged submits). Same
  /// stopping behavior as submit().
  void submitRaw(std::function<void()> fn);

  /// True when the calling thread is currently executing a task of this
  /// pool (directly as a worker or inline through a helping wait).
  static bool inPoolTask();

 private:
  void workerLoop(unsigned index);

  mutable std::mutex mutex_;  ///< guards queue_, threads_ and stopping_
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

/// Structured fork/join for nested parallelism on a fixed pool. run()
/// submits subtasks; wait() helps (runs pending subtasks of *this group*
/// inline) until every subtask finished, then rethrows the exception of the
/// lowest-submission-index failed subtask, if any. The destructor waits too
/// (swallowing exceptions), so a group can never outlive its subtasks.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool);
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits one subtask. Counted on pool.tasks_nested when called from
  /// inside a pool task (the nested-parallelism case this type exists for).
  void run(std::function<void()> fn);

  /// Helping join; safe to call repeatedly (later calls join later run()s).
  void wait();

 private:
  struct Shared;
  static void runOne(const std::shared_ptr<Shared>& shared);

  ThreadPool& pool_;
  std::shared_ptr<Shared> shared_;
};

/// Runs fn(0), ..., fn(n - 1) on the pool and returns the results ordered by
/// index. The schedule is nondeterministic; the result vector is not.
/// `submitOrder`, when non-empty, must be a permutation of [0, n) and only
/// changes the order tasks are *enqueued* (e.g. LPT: longest first) — never
/// the order of results or which exception surfaces (always the
/// lowest-index one, because futures are consumed in index order).
template <typename Fn>
auto parallelIndexMap(ThreadPool& pool, size_t n, Fn fn,
                      const std::vector<size_t>& submitOrder = {})
    -> std::vector<std::invoke_result_t<Fn, size_t>> {
  using Result = std::invoke_result_t<Fn, size_t>;
  std::vector<std::future<Result>> futures(n);
  auto submitAt = [&](size_t i) {
    futures[i] = pool.submit([fn, i] { return fn(i); });
  };
  if (submitOrder.empty()) {
    for (size_t i = 0; i < n; ++i) submitAt(i);
  } else {
    for (size_t i : submitOrder) submitAt(i);
  }
  std::vector<Result> results;
  results.reserve(n);
  for (auto& future : futures) {
    results.push_back(future.get());
  }
  return results;
}

}  // namespace cayman
