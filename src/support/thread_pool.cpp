#include "support/thread_pool.h"

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#ifdef __linux__
#include <pthread.h>
#endif

#include "support/strings.h"
#include "support/trace.h"

namespace cayman {

namespace {

/// How deep this thread currently is in pool-task execution (workers run
/// at depth 1; helping waits push deeper).
thread_local int t_taskDepth = 0;

struct TaskDepthGuard {
  TaskDepthGuard() { ++t_taskDepth; }
  ~TaskDepthGuard() { --t_taskDepth; }
};

}  // namespace

unsigned ThreadPool::defaultWorkers() {
  // Same strict parse as the --jobs flag (full consumption, [1, 1024]); a
  // malformed value falls back to hardware concurrency here because a
  // library has no usage-error channel — the CLI additionally validates the
  // variable up front and exits 2 on garbage.
  if (const char* env = std::getenv("CAYMAN_JOBS")) {
    if (std::optional<unsigned> jobs = parseJobs(env)) return *jobs;
  }
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

ThreadPool& ThreadPool::shared() {
  // Leaked: tasks submitted from static-destruction-order-unknown contexts
  // must never observe a destroyed pool. Starts at one worker — callers
  // grow it to their --jobs with ensureWorkers, and a 1-worker pool keeps
  // --jobs 1 runs genuinely serial.
  static ThreadPool* pool = new ThreadPool(1);
  return *pool;
}

ThreadPool::ThreadPool(unsigned workers) { ensureWorkers(workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  // Workers exit only once the queue is empty, so every queued task runs.
  for (std::thread& thread : threads_) thread.join();
}

unsigned ThreadPool::workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<unsigned>(threads_.size());
}

bool ThreadPool::stopping() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopping_;
}

void ThreadPool::ensureWorkers(unsigned workers) {
  if (workers == 0) workers = 1;
  if (workers > kMaxWorkers) workers = kMaxWorkers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (workers <= threads_.size()) return;
    for (unsigned i = static_cast<unsigned>(threads_.size()); i < workers;
         ++i) {
      threads_.emplace_back([this, i] { workerLoop(i); });
    }
  }
  support::trace::gauge("pool.workers", workers);
}

bool ThreadPool::inPoolTask() { return t_taskDepth > 0; }

void ThreadPool::submitRaw(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error(
          "ThreadPool::submit during shutdown: the task would never run");
    }
    queue_.push_back(std::move(fn));
  }
  // Counted at enqueue, not execution: a TaskGroup tick whose subtask a
  // helping waiter already claimed may still sit in the queue as a no-op
  // when metrics are exported, and counting late would let a pool.tasks
  // snapshot transiently undercount pool.tasks_nested.
  support::trace::countGlobal("pool.tasks", 1);
  wake_.notify_one();
}

void ThreadPool::workerLoop(unsigned index) {
#ifdef __linux__
  // Visible in /proc, gdb, and perf; 15-char limit on Linux.
  std::string name = "cayman-w" + std::to_string(index);
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#endif
  support::trace::setThreadLabel("pool-worker-" + std::to_string(index));
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    TaskDepthGuard depth;
    // Worker-occupancy span, orphan-buffered (wall-mode traces only). Never
    // opened on a thread inside a TaskScope: a helping waiter would otherwise
    // leak schedule-dependent events into the deterministic task record.
    std::optional<support::trace::Span> span;
    if (!support::trace::inTask()) span.emplace("pool.task", "pool");
    task();
  }
}

struct TaskGroup::Shared {
  std::mutex mutex;
  std::condition_variable changed;
  /// Subtasks not yet claimed by a worker or a helping waiter, each tagged
  /// with its submission index for first-error-by-index reporting.
  std::deque<std::pair<size_t, std::function<void()>>> pending;
  size_t submitted = 0;
  size_t finished = 0;
  size_t errorIndex = SIZE_MAX;
  std::exception_ptr error;
};

TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(pool), shared_(std::make_shared<Shared>()) {}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // The destructor only guarantees the join; callers that care about the
    // subtask outcome call wait() themselves.
  }
}

void TaskGroup::run(std::function<void()> fn) {
  size_t index;
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    index = shared_->submitted++;
    shared_->pending.emplace_back(index, std::move(fn));
  }
  // The tick makes the subtask available to pool workers; a helping wait()
  // may claim the subtask first, in which case the tick finds an empty
  // pending deque and returns.
  std::shared_ptr<Shared> shared = shared_;
  try {
    pool_.submitRaw([shared] { runOne(shared); });
  } catch (...) {
    // Pool stopping: withdraw the subtask (unless a concurrent helper
    // already claimed it) so wait() does not hang on a tick-less entry.
    std::lock_guard<std::mutex> lock(shared_->mutex);
    for (auto it = shared_->pending.rbegin(); it != shared_->pending.rend();
         ++it) {
      if (it->first == index) {
        shared_->pending.erase(std::next(it).base());
        --shared_->submitted;
        break;
      }
    }
    throw;
  }
  // Counted only after the tick is enqueued (which already bumped
  // pool.tasks), so a concurrent counter snapshot always sees
  // pool.tasks_nested <= pool.tasks — metrics_check enforces that.
  if (ThreadPool::inPoolTask()) {
    support::trace::countGlobal("pool.tasks_nested", 1);
  }
}

void TaskGroup::runOne(const std::shared_ptr<Shared>& shared) {
  size_t index;
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lock(shared->mutex);
    if (shared->pending.empty()) return;  // a helping wait() got there first
    index = shared->pending.front().first;
    fn = std::move(shared->pending.front().second);
    shared->pending.pop_front();
  }
  std::exception_ptr error;
  {
    // Subtasks run "in the pool" wherever they execute — including inline
    // on a helping waiter — so nested TaskGroup::run calls under them count
    // on pool.tasks_nested.
    TaskDepthGuard depth;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  }
  std::lock_guard<std::mutex> lock(shared->mutex);
  ++shared->finished;
  if (error != nullptr && index < shared->errorIndex) {
    shared->errorIndex = index;
    // Moved, not copied: a lingering worker-side reference could otherwise
    // be the one that frees the exception storage after wait() rethrows,
    // racing the waiter's read of the caught object.
    shared->error = std::move(error);
  }
  shared->changed.notify_all();
}

void TaskGroup::wait() {
  std::shared_ptr<Shared> shared = shared_;
  while (true) {
    bool help = false;
    {
      std::unique_lock<std::mutex> lock(shared->mutex);
      if (!shared->pending.empty()) {
        help = true;
      } else if (shared->finished == shared->submitted) {
        break;
      } else {
        // Every subtask is claimed; whoever claimed them makes progress
        // (a claimant can itself only block in a nested wait(), where it
        // helps its own nested group — induction on nesting depth).
        shared->changed.wait(lock, [&shared] {
          return !shared->pending.empty() ||
                 shared->finished == shared->submitted;
        });
        continue;
      }
    }
    if (help) runOne(shared);
  }
  std::lock_guard<std::mutex> lock(shared->mutex);
  if (shared->error != nullptr) {
    std::exception_ptr error = shared->error;
    shared->error = nullptr;
    shared->errorIndex = SIZE_MAX;
    std::rethrow_exception(error);
  }
}

}  // namespace cayman
