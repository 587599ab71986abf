// Tests for the observability layer: recorder on/off semantics, task
// attribution, deterministic draining, and Chrome trace-event export.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "support/json.h"
#include "support/trace.h"

namespace cayman::support {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::TraceRecorder::global().clear();
    trace::TraceRecorder::global().setEnabled(true);
  }
  void TearDown() override {
    trace::TraceRecorder::global().setEnabled(false);
    trace::TraceRecorder::global().clear();
  }
};

TEST(TraceDisabledTest, ProbesAreInertWhenOff) {
  trace::TraceRecorder& recorder = trace::TraceRecorder::global();
  recorder.setEnabled(false);
  recorder.clear();
  {
    trace::TaskScope scope("unit", 0);
    trace::Span span("work");
    trace::count("c", 1);
    trace::gauge("g", 2);
    trace::addStageSeconds("select", 0.1);
  }
  EXPECT_FALSE(trace::on());
  EXPECT_TRUE(recorder.drainTasks().empty());
  EXPECT_TRUE(recorder.globalCounters().empty());
  EXPECT_TRUE(recorder.gauges().empty());
}

TEST(TraceDisabledTest, ScopeOpenedWhileOffStaysInertAfterEnable) {
  trace::TraceRecorder& recorder = trace::TraceRecorder::global();
  recorder.setEnabled(false);
  recorder.clear();
  {
    trace::TaskScope scope("late", 0);
    recorder.setEnabled(true);
    trace::count("c", 1);  // goes to the global map, not the inert scope
  }
  std::vector<trace::TaskRecord> tasks = recorder.drainTasks();
  EXPECT_TRUE(tasks.empty());
  recorder.setEnabled(false);
  recorder.clear();
}

TEST_F(TraceTest, TaskScopeCollectsSpansCountersAndStages) {
  {
    trace::TaskScope scope("atax", 3);
    {
      trace::Span span("select", "pipeline");
      trace::count("model.cache_misses", 2);
      trace::count("model.cache_misses", 1);
      trace::count("interp.runs", 1);
    }
    trace::addStageSeconds("select", 0.25);
    trace::addStageSeconds("select", 0.25);
  }
  std::vector<trace::TaskRecord> tasks =
      trace::TraceRecorder::global().drainTasks();
  ASSERT_EQ(tasks.size(), 1u);
  const trace::TaskRecord& task = tasks[0];
  EXPECT_EQ(task.unit, "atax");
  EXPECT_EQ(task.index, 3u);
  EXPECT_GE(task.totalSeconds, 0.0);
  // workload B, span B, span E, workload E.
  ASSERT_EQ(task.events.size(), 4u);
  EXPECT_EQ(task.events[0].name, "workload:atax");
  EXPECT_EQ(task.events[1].name, "select");
  EXPECT_EQ(task.events[1].phase, trace::Event::Phase::Begin);
  EXPECT_EQ(task.events[2].phase, trace::Event::Phase::End);
  // Counters are sorted by name and accumulate.
  ASSERT_EQ(task.counters.size(), 2u);
  EXPECT_EQ(task.counters[0].first, "interp.runs");
  EXPECT_EQ(task.counters[1].first, "model.cache_misses");
  EXPECT_EQ(task.counters[1].second, 3u);
  ASSERT_EQ(task.stageSeconds.size(), 1u);
  EXPECT_DOUBLE_EQ(task.stageSeconds[0].second, 0.5);
}

TEST_F(TraceTest, DrainSortsByIndexRegardlessOfPublishOrder) {
  { trace::TaskScope scope("late", 2); }
  { trace::TaskScope scope("early", 0); }
  { trace::TaskScope scope("middle", 1); }
  std::vector<trace::TaskRecord> tasks =
      trace::TraceRecorder::global().drainTasks();
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].unit, "early");
  EXPECT_EQ(tasks[1].unit, "middle");
  EXPECT_EQ(tasks[2].unit, "late");
}

TEST_F(TraceTest, CountsOutsideAnyScopeGoToGlobalCounters) {
  trace::count("pool.tasks", 5);
  trace::count("pool.tasks", 2);
  trace::gauge("pool.workers", 8);
  auto counters = trace::TraceRecorder::global().globalCounters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "pool.tasks");
  EXPECT_EQ(counters[0].second, 7u);
  auto gauges = trace::TraceRecorder::global().gauges();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].second, 8);
}

using Counts = std::vector<std::pair<std::string, uint64_t>>;

TEST(TraceDisabledTest, CounterCaptureRecordsNothingWhenOff) {
  trace::TraceRecorder& recorder = trace::TraceRecorder::global();
  recorder.setEnabled(false);
  recorder.clear();
  trace::CounterCapture capture;
  trace::count("model.estimate_calls", 3);
  EXPECT_TRUE(capture.take().empty());
}

TEST_F(TraceTest, InnermostCounterCaptureWinsAndOuterResumes) {
  trace::CounterCapture outer;
  trace::count("a", 1);
  {
    trace::CounterCapture inner;
    trace::count("a", 10);
    trace::count("b", 2);
    EXPECT_EQ(inner.take(), (Counts{{"a", 10}, {"b", 2}}));
  }
  trace::count("a", 100);
  EXPECT_EQ(outer.take(), (Counts{{"a", 101}}));
}

TEST_F(TraceTest, CounterCaptureTakeSortsByNameAndClears) {
  trace::CounterCapture capture;
  trace::count("zeta", 1);
  trace::count("alpha", 2);
  trace::count("mid", 3);
  trace::count("alpha", 4);
  EXPECT_EQ(capture.take(), (Counts{{"alpha", 6}, {"mid", 3}, {"zeta", 1}}));
  EXPECT_TRUE(capture.take().empty());
  trace::count("mid", 1);
  EXPECT_EQ(capture.take(), (Counts{{"mid", 1}}));
}

TEST_F(TraceTest, CounterCaptureSortsNamesInsertedInReverseOrder) {
  trace::CounterCapture capture;
  for (const char* name : {"sched.e", "sched.d", "sched.c", "sched.b",
                           "sched.a"}) {
    trace::count(name, 1);
  }
  trace::count(std::string("sched.c"), 2);
  EXPECT_EQ(capture.take(), (Counts{{"sched.a", 1},
                                    {"sched.b", 1},
                                    {"sched.c", 3},
                                    {"sched.d", 1},
                                    {"sched.e", 1}}));
}

TEST_F(TraceTest, CapturedCountsReachNeitherTaskScopeNorGlobal) {
  {
    trace::TaskScope scope("atax", 0);
    trace::count("scoped", 1);
    trace::CounterCapture capture;
    trace::count("captured", 5);
    trace::Span span("hidden");  // spans are suppressed under a capture
    trace::addStageSeconds("select", 1.0);
    EXPECT_EQ(capture.take(), (Counts{{"captured", 5}}));
  }
  {
    trace::CounterCapture capture;  // outside any scope: not global either
    trace::count("captured", 7);
  }
  std::vector<trace::TaskRecord> tasks =
      trace::TraceRecorder::global().drainTasks();
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].counters, (Counts{{"scoped", 1}}));
  EXPECT_EQ(tasks[0].events.size(), 2u);  // workload B/E only
  EXPECT_TRUE(tasks[0].stageSeconds.empty());
  EXPECT_TRUE(trace::TraceRecorder::global().globalCounters().empty());
}

/// Walks a traceEvents array checking balanced B/E nesting and per-tid
/// monotonically non-decreasing timestamps.
void checkTraceEvents(const json::Value& document) {
  const json::Value* events = document.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  std::map<int64_t, std::vector<std::string>> stacks;
  std::map<int64_t, double> lastTs;
  for (const json::Value& event : events->items()) {
    const json::Value* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->stringValue() == "M") continue;
    int64_t tid = event.find("tid")->intValue();
    double ts = event.find("ts")->numberValue();
    auto it = lastTs.find(tid);
    if (it != lastTs.end()) {
      EXPECT_GE(ts, it->second);
    }
    lastTs[tid] = ts;
    const std::string& name = event.find("name")->stringValue();
    if (ph->stringValue() == "B") {
      stacks[tid].push_back(name);
    } else {
      ASSERT_EQ(ph->stringValue(), "E");
      ASSERT_FALSE(stacks[tid].empty());
      EXPECT_EQ(stacks[tid].back(), name);
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unbalanced events on tid " << tid;
  }
}

TEST_F(TraceTest, ChromeTraceDeterministicIsBalancedWithOrdinalTimestamps) {
  {
    trace::TaskScope scope("alpha", 0);
    trace::Span outer("outer");
    trace::Span inner("inner");
  }
  {
    trace::TaskScope scope("beta", 1);
    trace::Span span("only");
  }
  std::vector<trace::TaskRecord> tasks =
      trace::TraceRecorder::global().drainTasks();
  json::Value document =
      trace::chromeTrace(tasks, {}, trace::TimeMode::Deterministic);
  checkTraceEvents(document);
  // Ordinal timestamps restart per task and are integers.
  const json::Value* events = document.find("traceEvents");
  int64_t expected = 0;
  for (const json::Value& event : events->items()) {
    if (event.find("ph")->stringValue() == "M") {
      expected = 0;
      continue;
    }
    ASSERT_TRUE(event.find("ts")->isInt());
    EXPECT_EQ(event.find("ts")->intValue(), expected++);
  }
  // Byte-determinism: two exports of the same records are identical.
  EXPECT_EQ(document.dump(),
            trace::chromeTrace(tasks, {}, trace::TimeMode::Deterministic)
                .dump());
}

TEST_F(TraceTest, ChromeTraceWallIncludesOrphansDeterministicDoesNot) {
  { trace::TaskScope scope("alpha", 0); }
  trace::OrphanRecord orphan;
  orphan.events.push_back(
      trace::Event{trace::Event::Phase::Begin, "pool.task", "pool", 10});
  orphan.events.push_back(
      trace::Event{trace::Event::Phase::End, "pool.task", "pool", 20});
  trace::TraceRecorder::global().publishOrphan(orphan);
  std::vector<trace::TaskRecord> tasks =
      trace::TraceRecorder::global().drainTasks();
  std::vector<trace::OrphanRecord> orphans =
      trace::TraceRecorder::global().drainOrphans();
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0].label, "thread-0");

  json::Value deterministic =
      trace::chromeTrace(tasks, orphans, trace::TimeMode::Deterministic);
  EXPECT_EQ(deterministic.dump().find("pool.task"), std::string::npos);

  json::Value wall = trace::chromeTrace(tasks, orphans, trace::TimeMode::Wall);
  checkTraceEvents(wall);
  EXPECT_NE(wall.dump().find("pool.task"), std::string::npos);
  EXPECT_NE(wall.dump().find("thread-0"), std::string::npos);
}

TEST_F(TraceTest, NestedTaskScopesAttributeToTheInnerScope) {
  {
    trace::TaskScope outer("outer", 0);
    trace::count("c", 1);
    {
      trace::TaskScope inner("inner", 1);
      trace::count("c", 10);
    }
    trace::count("c", 100);
  }
  std::vector<trace::TaskRecord> tasks =
      trace::TraceRecorder::global().drainTasks();
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].unit, "outer");
  ASSERT_EQ(tasks[0].counters.size(), 1u);
  EXPECT_EQ(tasks[0].counters[0].second, 101u);
  EXPECT_EQ(tasks[1].unit, "inner");
  ASSERT_EQ(tasks[1].counters.size(), 1u);
  EXPECT_EQ(tasks[1].counters[0].second, 10u);
}

}  // namespace
}  // namespace cayman::support
