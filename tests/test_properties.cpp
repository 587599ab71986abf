// Cross-cutting property tests over EVERY workload: end-to-end framework
// invariants that must hold regardless of program shape.
#include <gtest/gtest.h>

#include <algorithm>

#include "cayman/framework.h"
#include "workloads/workloads.h"

namespace cayman {
namespace {

class FrameworkPropertyTest : public ::testing::TestWithParam<std::string> {
 protected:
  static Framework makeFramework(const std::string& name) {
    return Framework(workloads::build(name));
  }
};

TEST_P(FrameworkPropertyTest, SpeedupAtLeastOneAndBudgetRespected) {
  Framework fw = makeFramework(GetParam());
  for (double budget : {0.25, 0.65}) {
    select::Solution best = fw.best(budget);
    EXPECT_LE(best.areaUm2, fw.budgetUm2(budget) + 1e-6);
    EXPECT_GE(fw.speedupOf(best), 1.0);
  }
}

TEST_P(FrameworkPropertyTest, SpeedupMonotoneInBudget) {
  Framework fw = makeFramework(GetParam());
  double previous = 0.0;
  for (double budget : {0.05, 0.25, 0.65}) {
    double speedup = fw.speedupOf(fw.best(budget));
    EXPECT_GE(speedup + 1e-9, previous) << "budget " << budget;
    previous = speedup;
  }
}

TEST_P(FrameworkPropertyTest, ParetoFrontIsStrictlyImproving) {
  Framework fw = makeFramework(GetParam());
  std::vector<select::Solution> front = fw.explore(0.65);
  double ratio = fw.options().clockRatio();
  for (size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].areaUm2, front[i - 1].areaUm2);
    EXPECT_GT(front[i].savedCycles(ratio), front[i - 1].savedCycles(ratio));
  }
}

TEST_P(FrameworkPropertyTest, SelectedKernelsNeverOverlap) {
  Framework fw = makeFramework(GetParam());
  select::Solution best = fw.best(0.65);
  for (const auto& a : best.accelerators) {
    for (const auto& b : best.accelerators) {
      if (&a == &b) continue;
      for (const analysis::Region* up = b.region->parent(); up != nullptr;
           up = up->parent()) {
        ASSERT_NE(up, a.region) << "nested selection in " << GetParam();
      }
    }
  }
}

TEST_P(FrameworkPropertyTest, TCandNeverExceedsTAll) {
  Framework fw = makeFramework(GetParam());
  select::Solution best = fw.best(0.65);
  EXPECT_LE(best.cpuCycles, fw.totalCpuCycles() + 1e-6);
  EXPECT_GE(best.cpuCycles, 0.0);
  EXPECT_GE(best.accelCycles, 0.0);
}

TEST_P(FrameworkPropertyTest, SpeedupWithinAmdahlBound) {
  // Accelerating the selected regions can at best remove their CPU time, so
  // the reported speedup is at most T_all / (T_all - sum of selected cycles).
  Framework fw = makeFramework(GetParam());
  for (double budget : {0.25, 0.65}) {
    EvaluationReport report = fw.evaluate(budget);
    double selectedCpu = 0.0;
    for (const accel::AcceleratorConfig& config :
         report.solution.accelerators) {
      selectedCpu += config.cpuCycles;
    }
    double remaining = report.totalCpuCycles - selectedCpu;
    if (remaining <= 0.0) continue;  // whole program selected: no bound
    EXPECT_LE(report.caymanSpeedup,
              report.totalCpuCycles / remaining * (1.0 + 1e-9))
        << "budget " << budget;
  }
}

TEST_P(FrameworkPropertyTest, MergingNeverIncreasesArea) {
  Framework fw = makeFramework(GetParam());
  select::Solution best = fw.best(0.65);
  merge::MergeResult merged = fw.mergeSolution(best);
  EXPECT_LE(merged.areaAfterUm2, merged.areaBeforeUm2 + 1e-6);
  EXPECT_GE(merged.areaAfterUm2, 0.0);
  EXPECT_GE(merged.savingPercent(), 0.0);
  EXPECT_LE(merged.savingPercent(), 100.0);
}

TEST_P(FrameworkPropertyTest, MergedAreaAtLeastLargestAccelerator) {
  // Merging shares units between accelerators; it cannot make the reusable
  // hardware smaller than the largest accelerator it has to implement.
  Framework fw = makeFramework(GetParam());
  for (double budget : {0.25, 0.65}) {
    EvaluationReport report = fw.evaluate(budget);
    double largest = 0.0;
    for (const accel::AcceleratorConfig& config :
         report.solution.accelerators) {
      largest = std::max(largest, config.areaUm2);
    }
    EXPECT_GE(report.merging.areaAfterUm2, largest * (1.0 - 1e-9))
        << "budget " << budget;
  }
}

TEST_P(FrameworkPropertyTest, CaymanAlwaysBeatsBothBaselines) {
  // The paper's headline claim holds per benchmark, not just on average.
  Framework fw = makeFramework(GetParam());
  EvaluationReport report = fw.evaluate(0.25);
  EXPECT_GT(report.overNovia, 1.0) << GetParam();
  EXPECT_GT(report.overQsCores, 1.0) << GetParam();
}

TEST_P(FrameworkPropertyTest, CoupledOnlyNeverBeatsFull) {
  FrameworkOptions restricted;
  restricted.coupledOnly = true;
  Framework full = makeFramework(GetParam());
  Framework coupled(workloads::build(GetParam()), restricted);
  EXPECT_GE(full.speedupOf(full.best(0.65)) + 1e-6,
            coupled.speedupOf(coupled.best(0.65)))
      << GetParam();
}

std::vector<std::string> names() {
  std::vector<std::string> result;
  for (const auto& info : workloads::all()) result.push_back(info.name);
  return result;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, FrameworkPropertyTest, ::testing::ValuesIn(names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace cayman
