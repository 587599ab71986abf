#include "support/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>

namespace cayman::support::trace {

namespace {

/// Single global switch all probes check first. Kept outside the recorder so
/// `on()` is one relaxed load with no function-local-static guard.
std::atomic<bool> g_enabled{false};

std::chrono::steady_clock::time_point processEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

/// Per-thread buffer for probes fired outside any TaskScope (pool worker
/// lifetimes). Published to the global recorder when the thread exits.
struct OrphanBuffer {
  std::string label;  ///< optional override set via setThreadLabel
  std::vector<Event> events;
  ~OrphanBuffer();
};

thread_local OrphanBuffer t_orphan;

}  // namespace

bool on() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - processEpoch())
          .count());
}

TraceRecorder& TraceRecorder::global() {
  // Deliberately leaked: orphan buffers publish from thread_local
  // destructors, which may run after function-local statics are destroyed.
  static TraceRecorder* recorder = [] {
    auto* r = new TraceRecorder();
    const char* env = std::getenv("CAYMAN_TRACE");
    if (env != nullptr && env[0] == '1' && env[1] == '\0') {
      r->setEnabled(true);
    }
    return r;
  }();
  return *recorder;
}

void TraceRecorder::setEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool TraceRecorder::enabled() const { return on(); }

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  tasks_.clear();
  orphans_.clear();
  globalCounters_.clear();
  gauges_.clear();
  orphanLabels_ = 0;
}

void TraceRecorder::countGlobal(std::string_view name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [existing, value] : globalCounters_) {
    if (existing == name) {
      value += delta;
      return;
    }
  }
  globalCounters_.emplace_back(std::string(name), delta);
}

void TraceRecorder::setGauge(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [existing, slot] : gauges_) {
    if (existing == name) {
      slot = value;
      return;
    }
  }
  gauges_.emplace_back(name, value);
}

void TraceRecorder::setGaugeMax(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [existing, slot] : gauges_) {
    if (existing == name) {
      if (value > slot) slot = value;
      return;
    }
  }
  gauges_.emplace_back(name, value);
}

std::vector<TaskRecord> TraceRecorder::drainTasks() {
  std::vector<TaskRecord> result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    result.swap(tasks_);
  }
  std::sort(result.begin(), result.end(),
            [](const TaskRecord& a, const TaskRecord& b) {
              if (a.index != b.index) return a.index < b.index;
              return a.unit < b.unit;
            });
  return result;
}

std::vector<OrphanRecord> TraceRecorder::drainOrphans() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<OrphanRecord> result;
  result.swap(orphans_);
  return result;
}

std::vector<std::pair<std::string, uint64_t>> TraceRecorder::globalCounters()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto result = globalCounters_;
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::pair<std::string, int64_t>> TraceRecorder::gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto result = gauges_;
  std::sort(result.begin(), result.end());
  return result;
}

void TraceRecorder::publishTask(TaskRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  tasks_.push_back(std::move(record));
}

void TraceRecorder::publishOrphan(OrphanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (record.label.empty()) {
    record.label = "thread-" + std::to_string(orphanLabels_++);
  }
  orphans_.push_back(std::move(record));
}

namespace {

OrphanBuffer::~OrphanBuffer() {
  if (events.empty()) return;
  OrphanRecord record;
  record.label = std::move(label);
  record.events = std::move(events);
  TraceRecorder::global().publishOrphan(std::move(record));
}

}  // namespace

void setThreadLabel(std::string label) { t_orphan.label = std::move(label); }

struct TaskScope::State {
  TaskRecord record;
  /// Transparent comparator: count() looks names up by view and copies one
  /// into the map only on its first use in the task.
  std::map<std::string, uint64_t, std::less<>> counters;
  std::map<std::string, double> stages;
};

namespace {
thread_local TaskScope::State* t_current = nullptr;
}  // namespace

TaskScope::TaskScope(std::string unit, size_t index) {
  if (!on()) return;
  state_ = new State();
  state_->record.unit = std::move(unit);
  state_->record.index = index;
  previous_ = t_current;
  t_current = state_;
  beginNs_ = nowNs();
  state_->record.events.push_back(
      Event{Event::Phase::Begin, "workload:" + state_->record.unit, "task",
            beginNs_});
}

TaskScope::~TaskScope() {
  if (state_ == nullptr) return;
  uint64_t endNs = nowNs();
  state_->record.events.push_back(
      Event{Event::Phase::End, "workload:" + state_->record.unit, "task",
            endNs});
  state_->record.totalSeconds =
      static_cast<double>(endNs - beginNs_) * 1e-9;
  state_->record.counters.assign(state_->counters.begin(),
                                 state_->counters.end());
  state_->record.stageSeconds.assign(state_->stages.begin(),
                                     state_->stages.end());
  t_current = previous_;
  TraceRecorder::global().publishTask(std::move(state_->record));
  delete state_;
}

struct CounterCapture::State {
  /// Sorted by name, so take() hands the vector over without copying.
  std::vector<std::pair<std::string, uint64_t>> counters;
};

namespace {

thread_local CounterCapture::State* t_capture = nullptr;

/// The buffer a span or event lands in: the active task if any, otherwise
/// the thread's orphan buffer.
std::vector<Event>& eventSink() {
  if (t_current != nullptr) return t_current->record.events;
  return t_orphan.events;
}

}  // namespace

CounterCapture::CounterCapture() {
  state_ = new State();
  previous_ = t_capture;
  t_capture = state_;
}

CounterCapture::~CounterCapture() {
  t_capture = previous_;
  delete state_;
}

std::vector<std::pair<std::string, uint64_t>> CounterCapture::take() {
  return std::exchange(state_->counters, {});
}

Span::Span(std::string name, std::string category) {
  // Captures suppress spans: a span fired while generating on behalf of
  // another task is position-dependent and cannot be replayed
  // deterministically the way counter deltas can.
  if (!on() || t_capture != nullptr) return;
  active_ = true;
  name_ = std::move(name);
  category_ = std::move(category);
  eventSink().push_back(Event{Event::Phase::Begin, name_, category_, nowNs()});
}

Span::~Span() {
  if (!active_) return;
  eventSink().push_back(Event{Event::Phase::End, name_, category_, nowNs()});
}

void count(std::string_view name, uint64_t delta) {
  if (!on()) return;
  if (t_capture != nullptr) {
    std::vector<std::pair<std::string, uint64_t>>& counters =
        t_capture->counters;
    auto it = std::lower_bound(
        counters.begin(), counters.end(), name,
        [](const auto& entry, std::string_view key) {
          return entry.first < key;
        });
    if (it != counters.end() && it->first == name) {
      it->second += delta;
    } else {
      counters.emplace(it, std::string(name), delta);
    }
  } else if (t_current != nullptr) {
    auto it = t_current->counters.find(name);
    if (it != t_current->counters.end()) {
      it->second += delta;
    } else {
      t_current->counters.emplace(std::string(name), delta);
    }
  } else {
    TraceRecorder::global().countGlobal(name, delta);
  }
}

void countGlobal(std::string_view name, uint64_t delta) {
  if (!on()) return;
  TraceRecorder::global().countGlobal(name, delta);
}

bool inTask() { return t_current != nullptr; }

void addStageSeconds(const std::string& stage, double seconds) {
  if (!on() || t_capture != nullptr) return;
  if (t_current != nullptr) t_current->stages[stage] += seconds;
}

void gauge(const std::string& name, int64_t value) {
  if (!on()) return;
  TraceRecorder::global().setGauge(name, value);
}

void gaugeMax(const std::string& name, int64_t value) {
  if (!on()) return;
  TraceRecorder::global().setGaugeMax(name, value);
}

namespace {

json::Value traceEvent(const Event& event, size_t tid, json::Value ts) {
  json::Value e = json::Value::object();
  e.set("ph", event.phase == Event::Phase::Begin ? "B" : "E");
  e.set("name", event.name);
  e.set("cat", event.category);
  e.set("pid", int64_t{0});
  e.set("tid", static_cast<int64_t>(tid));
  e.set("ts", std::move(ts));
  return e;
}

json::Value threadName(size_t tid, const std::string& name) {
  json::Value e = json::Value::object();
  e.set("ph", "M");
  e.set("name", "thread_name");
  e.set("pid", int64_t{0});
  e.set("tid", static_cast<int64_t>(tid));
  json::Value args = json::Value::object();
  args.set("name", name);
  e.set("args", std::move(args));
  return e;
}

}  // namespace

json::Value chromeTrace(const std::vector<TaskRecord>& tasks,
                        const std::vector<OrphanRecord>& orphans,
                        TimeMode mode) {
  json::Value events = json::Value::array();
  for (const TaskRecord& task : tasks) {
    size_t tid = task.index;
    events.push(threadName(tid, task.unit));
    uint64_t ordinal = 0;
    for (const Event& event : task.events) {
      json::Value ts =
          mode == TimeMode::Deterministic
              ? json::Value(static_cast<int64_t>(ordinal++))
              : json::Value(static_cast<double>(event.wallNs) * 1e-3);
      events.push(traceEvent(event, tid, std::move(ts)));
    }
  }
  if (mode == TimeMode::Wall) {
    // Worker / orphan timelines are schedule-dependent; they only appear in
    // wall-clock traces, on tids far above any workload index.
    size_t tid = 1000;
    for (const OrphanRecord& orphan : orphans) {
      events.push(threadName(tid, orphan.label));
      for (const Event& event : orphan.events) {
        events.push(traceEvent(
            event, tid, json::Value(static_cast<double>(event.wallNs) * 1e-3)));
      }
      ++tid;
    }
  }
  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  return doc;
}

}  // namespace cayman::support::trace
