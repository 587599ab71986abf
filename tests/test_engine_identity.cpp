// Engine identity: each Reference engine the library keeps as an oracle
// (select::SelectMode, accel::GenerateMode, merge::MergeMode) must reproduce
// the default engines' evaluate-all output on all 28 workloads — the same
// evaluation table, the same deterministic metrics document and the same
// deterministic Chrome trace, byte for byte.
//
// One exception is by design: the generate engines' model.* and sched.*
// counters measure the pruning itself, and the exhaustive engine hands the
// selector configurations the guided one never builds, so three intake
// counters of the selector differ too (configs_generated, arena_nodes,
// pareto_dropped). For GenerateMode::Reference the metrics must match
// outside those counters, and every workload must keep
// model.estimate_calls >= model.candidates_total.
//
// Each case runs alone under its own ctest name (tests/CMakeLists.txt); the
// sweeps are cached per process, so running the whole binary does each
// engine's sweep once.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cayman/driver.h"
#include "cayman/metrics.h"
#include "support/trace.h"

namespace cayman {
namespace {

namespace trace = support::trace;

enum class Engine { Default, SelectReference, GenerateReference,
                    MergeReference };

/// One traced evaluate-all sweep at budget 0.25 on one worker, rendered the
/// way `cayman_cli evaluate-all --metrics-json --trace-out` renders it.
struct Sweep {
  std::vector<WorkloadEvaluation> evaluations;
  std::vector<trace::TaskRecord> tasks;
  std::string table;
  std::string trace;
};

Sweep runSweep(const FrameworkOptions& options) {
  trace::TraceRecorder& recorder = trace::TraceRecorder::global();
  recorder.clear();
  recorder.setEnabled(true);
  Sweep sweep;
  sweep.evaluations = evaluateAll(0.25, 1, options);
  sweep.tasks = recorder.drainTasks();
  std::vector<trace::OrphanRecord> orphans = recorder.drainOrphans();
  recorder.setEnabled(false);
  recorder.clear();
  sweep.table = formatEvaluationTable(sweep.evaluations);
  sweep.trace =
      trace::chromeTrace(sweep.tasks, orphans, trace::TimeMode::Deterministic)
          .dump();
  return sweep;
}

const Sweep& sweepOf(Engine engine) {
  static std::map<Engine, Sweep> cache;
  auto it = cache.find(engine);
  if (it != cache.end()) return it->second;
  FrameworkOptions options;
  switch (engine) {
    case Engine::Default: break;
    case Engine::SelectReference:
      options.selectMode = select::SelectMode::Reference;
      break;
    case Engine::GenerateReference:
      options.generateMode = accel::GenerateMode::Reference;
      break;
    case Engine::MergeReference:
      options.mergeMode = merge::MergeMode::Reference;
      break;
  }
  return cache.emplace(engine, runSweep(options)).first->second;
}

/// Counters that measure how many configurations candidate generation built
/// and scored, and so differ between the guided and exhaustive engines.
bool countsGeneratedConfigs(const std::string& name) {
  return name.starts_with("model.") || name.starts_with("sched.") ||
         name == "select.configs_generated" ||
         name == "select.arena_nodes" || name == "select.pareto_dropped";
}

/// The deterministic metrics document, optionally without the counters that
/// `drop` names.
std::string metricsOf(const Sweep& sweep,
                      bool (*drop)(const std::string&) = nullptr) {
  std::vector<trace::TaskRecord> tasks = sweep.tasks;
  if (drop != nullptr) {
    for (trace::TaskRecord& task : tasks) {
      std::erase_if(task.counters,
                    [&](const auto& counter) { return drop(counter.first); });
    }
  }
  return buildMetricsJson(sweep.evaluations, tasks).dump(2);
}

void expectSameTable(Engine engine) {
  const Sweep& defaults = sweepOf(Engine::Default);
  const Sweep& reference = sweepOf(engine);
  ASSERT_EQ(defaults.evaluations.size(), 28u);
  ASSERT_EQ(reference.evaluations.size(), 28u);
  EXPECT_EQ(countFailures(defaults.evaluations), 0u);
  EXPECT_EQ(countFailures(reference.evaluations), 0u);
  EXPECT_EQ(reference.table, defaults.table);
}

void expectSameMetrics(Engine engine) {
  std::string expected = metricsOf(sweepOf(Engine::Default));
  EXPECT_NE(expected.find("\"counters\""), std::string::npos);
  EXPECT_EQ(metricsOf(sweepOf(engine)), expected);
}

void expectSameTrace(Engine engine) {
  const std::string& expected = sweepOf(Engine::Default).trace;
  EXPECT_EQ(sweepOf(engine).trace, expected);
}

TEST(EngineIdentityTest, SelectReferenceTable) {
  expectSameTable(Engine::SelectReference);
}
TEST(EngineIdentityTest, SelectReferenceMetrics) {
  expectSameMetrics(Engine::SelectReference);
}
TEST(EngineIdentityTest, SelectReferenceTrace) {
  expectSameTrace(Engine::SelectReference);
}

TEST(EngineIdentityTest, MergeReferenceTable) {
  expectSameTable(Engine::MergeReference);
}
TEST(EngineIdentityTest, MergeReferenceMetrics) {
  expectSameMetrics(Engine::MergeReference);
}
TEST(EngineIdentityTest, MergeReferenceTrace) {
  expectSameTrace(Engine::MergeReference);
}

TEST(EngineIdentityTest, GenerateReferenceTable) {
  expectSameTable(Engine::GenerateReference);
}
TEST(EngineIdentityTest, GenerateReferenceMetrics) {
  const Sweep& reference = sweepOf(Engine::GenerateReference);
  ASSERT_EQ(reference.tasks.size(), 28u);
  for (const trace::TaskRecord& task : reference.tasks) {
    std::map<std::string, uint64_t> counters(task.counters.begin(),
                                             task.counters.end());
    ASSERT_TRUE(counters.contains("model.estimate_calls")) << task.unit;
    ASSERT_TRUE(counters.contains("model.candidates_total")) << task.unit;
    EXPECT_GE(counters["model.estimate_calls"],
              counters["model.candidates_total"])
        << task.unit;
  }
  EXPECT_EQ(metricsOf(reference, countsGeneratedConfigs),
            metricsOf(sweepOf(Engine::Default), countsGeneratedConfigs));
}
TEST(EngineIdentityTest, GenerateReferenceTrace) {
  expectSameTrace(Engine::GenerateReference);
}

}  // namespace
}  // namespace cayman
