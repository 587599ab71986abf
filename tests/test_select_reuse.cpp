// Budget-monotone subtree-front reuse: a Framework re-evaluated at many area
// budgets, in any order, must report exactly what a fresh Framework reports
// at each budget — the same EvaluationReport, the same fronts for Cayman's
// selector and the QsCores baseline's, and the same logical selector Stats —
// while its later runs splice in the subtree fronts earlier runs stored.
// The concurrency case runs under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>

#include "cayman/framework.h"
#include "support/trace.h"
#include "workloads/workloads.h"

namespace cayman::select {
namespace {

namespace trace = support::trace;

/// 24 budgets spread over [0.02, 0.9] of the CVA6 tile, ascending.
std::vector<double> budgetRatios() {
  std::vector<double> ratios;
  for (int i = 0; i < 24; ++i) ratios.push_back(0.02 + 0.88 * i / 23.0);
  return ratios;
}

SelectorParams caymanParams(const Framework& fw, double budgetRatio) {
  SelectorParams params;
  params.areaBudgetUm2 = fw.budgetUm2(budgetRatio);
  params.alpha = fw.options().alpha;
  params.pruneHotFraction = fw.options().pruneHotFraction;
  params.clockRatio = fw.options().clockRatio();
  return params;
}

/// QsCoresFlow's selector parameters: its budget and clock ratio, default
/// alpha and prune fraction.
SelectorParams qscoresParams(const Framework& fw, double budgetRatio) {
  SelectorParams params;
  params.areaBudgetUm2 = fw.budgetUm2(budgetRatio);
  params.clockRatio = fw.options().clockRatio();
  return params;
}

/// An accelerator config with its wPST and IR pointers replaced by names
/// and program positions, so configs from two Frameworks built from the same
/// workload compare. Doubles print as hex floats: equal text, equal bits.
std::string describe(const accel::AcceleratorConfig& config) {
  std::ostringstream out;
  out << std::hexfloat << config.region->label() << " cycles "
      << config.cycles << " cpu " << config.cpuCycles << " area "
      << config.areaUm2 << " #SB " << config.numSeqBlocks << " #PR "
      << config.numPipelinedRegions << " #C " << config.numCoupled << " #D "
      << config.numDecoupled << " #S " << config.numScratchpad << " loops";
  for (const accel::LoopConfig& loop : config.loops) {
    out << ' ' << loop.loop->name() << 'x' << loop.unroll
        << (loop.pipelined ? "p" : "");
  }
  std::vector<std::string> ifaces;
  for (const auto& [access, iface] : config.ifaces) {
    const auto& block = access->parent()->instructions();
    size_t position = 0;
    while (block[position].get() != access) ++position;
    std::ostringstream entry;
    entry << access->parent()->name() << '#' << position << ' '
          << hls::ifaceSpelling(iface.kind) << '/' << iface.partitions << '/'
          << (iface.array != nullptr ? iface.array->name() : "-") << '/'
          << iface.footprintBytes << '/' << iface.promoted;
    ifaces.push_back(entry.str());
  }
  std::sort(ifaces.begin(), ifaces.end());
  out << " ifaces";
  for (const std::string& iface : ifaces) out << ' ' << iface;
  return out.str();
}

/// A solution that outlives its Framework: the cost triple plus described
/// accelerators.
struct Described {
  double areaUm2 = 0.0;
  double accelCycles = 0.0;
  double cpuCycles = 0.0;
  std::vector<std::string> accelerators;
};

Described describe(const Solution& solution) {
  Described described{solution.areaUm2, solution.accelCycles,
                      solution.cpuCycles, {}};
  for (const accel::AcceleratorConfig& config : solution.accelerators) {
    described.accelerators.push_back(describe(config));
  }
  return described;
}

std::vector<Described> describe(const std::vector<Solution>& front) {
  std::vector<Described> described;
  for (const Solution& solution : front) {
    described.push_back(describe(solution));
  }
  return described;
}

void expectSameSolution(const Solution& a, const Described& b,
                        const std::string& context) {
  EXPECT_EQ(a.areaUm2, b.areaUm2) << context;
  EXPECT_EQ(a.accelCycles, b.accelCycles) << context;
  EXPECT_EQ(a.cpuCycles, b.cpuCycles) << context;
  EXPECT_EQ(describe(a).accelerators, b.accelerators) << context;
}

void expectSameFront(const std::vector<Solution>& a,
                     const std::vector<Described>& b,
                     const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    expectSameSolution(a[i], b[i], context + " index " + std::to_string(i));
  }
}

/// Every Stats field but frontsReused, the one that depends on what earlier
/// runs stored.
void expectSameLogicalStats(const CandidateSelector::Stats& a,
                            const CandidateSelector::Stats& b,
                            const std::string& context) {
  EXPECT_EQ(a.regionsVisited, b.regionsVisited) << context;
  EXPECT_EQ(a.regionsPruned, b.regionsPruned) << context;
  EXPECT_EQ(a.configsGenerated, b.configsGenerated) << context;
  EXPECT_EQ(a.combinePairs, b.combinePairs) << context;
  EXPECT_EQ(a.singleConfigSolutions, b.singleConfigSolutions) << context;
  EXPECT_EQ(a.frontPeak, b.frontPeak) << context;
  EXPECT_EQ(a.arenaNodes(), b.arenaNodes()) << context;
}

/// Every deterministic report field (selectionSeconds is wall-clock); `b`'s
/// solution is compared as `bSolution`, described while its Framework lived.
void expectSameReport(const EvaluationReport& a, const EvaluationReport& b,
                      const Described& bSolution, const std::string& context) {
  EXPECT_EQ(a.budgetRatio, b.budgetRatio) << context;
  EXPECT_EQ(a.totalCpuCycles, b.totalCpuCycles) << context;
  expectSameSolution(a.solution, bSolution, context + " solution");
  EXPECT_EQ(a.merging.areaBeforeUm2, b.merging.areaBeforeUm2) << context;
  EXPECT_EQ(a.merging.areaAfterUm2, b.merging.areaAfterUm2) << context;
  EXPECT_EQ(a.merging.mergeSteps, b.merging.mergeSteps) << context;
  EXPECT_EQ(a.merging.reusableAccelerators, b.merging.reusableAccelerators)
      << context;
  EXPECT_EQ(a.caymanSpeedup, b.caymanSpeedup) << context;
  EXPECT_EQ(a.noviaSpeedup, b.noviaSpeedup) << context;
  EXPECT_EQ(a.qscoresSpeedup, b.qscoresSpeedup) << context;
  EXPECT_EQ(a.overNovia, b.overNovia) << context;
  EXPECT_EQ(a.overQsCores, b.overQsCores) << context;
  EXPECT_EQ(a.numSeqBlocks, b.numSeqBlocks) << context;
  EXPECT_EQ(a.numPipelinedRegions, b.numPipelinedRegions) << context;
  EXPECT_EQ(a.numCoupled, b.numCoupled) << context;
  EXPECT_EQ(a.numDecoupled, b.numDecoupled) << context;
  EXPECT_EQ(a.numScratchpad, b.numScratchpad) << context;
  EXPECT_EQ(a.areaSavingPercent, b.areaSavingPercent) << context;
}

/// What a fresh Framework computes at one budget. The select() runs come
/// first: each is its model's first selector run, which stores nothing.
/// evaluate() after them is a second run: it stores, but finds nothing
/// stored to reuse.
struct Fresh {
  EvaluationReport report;  ///< solution cleared; see `solution`
  Described solution;
  std::vector<Described> front;
  CandidateSelector::Stats stats;
  std::vector<Described> qscoresFront;
  CandidateSelector::Stats qscoresStats;
};

Fresh freshAt(const workloads::WorkloadInfo& info, double budgetRatio) {
  Framework fw(info.build());
  Fresh fresh;
  fresh.front = describe(
      CandidateSelector(fw.model(), caymanParams(fw, budgetRatio))
          .select(fresh.stats));
  fresh.qscoresFront = describe(
      CandidateSelector(fw.qscores().model(), qscoresParams(fw, budgetRatio))
          .select(fresh.qscoresStats));
  EXPECT_EQ(fresh.stats.frontsReused, 0u) << info.name;
  EXPECT_EQ(fresh.qscoresStats.frontsReused, 0u) << info.name;
  fresh.report = fw.evaluate(budgetRatio);
  fresh.solution = describe(fresh.report.solution);
  fresh.report.solution = Solution{};
  return fresh;
}

/// Seeded Fisher-Yates over budget indices (LCG; no libc rand, no
/// implementation-defined std::shuffle).
std::vector<size_t> shuffledIndices(size_t count, uint64_t seed) {
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = i;
  uint64_t state = seed;
  for (size_t i = count; i > 1; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(order[i - 1], order[(state >> 33) % i]);
  }
  return order;
}

TEST(SelectReuseTest, ReevaluationInAnyBudgetOrderMatchesFreshFrameworks) {
  const std::vector<double> ratios = budgetRatios();
  std::vector<size_t> ascending(ratios.size());
  for (size_t i = 0; i < ascending.size(); ++i) ascending[i] = i;
  const std::vector<size_t> descending(ascending.rbegin(), ascending.rend());

  for (const workloads::WorkloadInfo& info : workloads::all()) {
    std::vector<Fresh> fresh;
    for (double ratio : ratios) fresh.push_back(freshAt(info, ratio));

    const std::vector<std::pair<std::string, std::vector<size_t>>> orders = {
        {"ascending", ascending},
        {"descending", descending},
        {"shuffled", shuffledIndices(ratios.size(), 17 + info.name.size())}};
    for (const auto& [orderName, order] : orders) {
      Framework fw(info.build());
      uint64_t reused = 0;
      for (size_t step = 0; step < order.size(); ++step) {
        const size_t i = order[step];
        const Fresh& want = fresh[i];
        const std::string at = info.name + " " + orderName + " step " +
                               std::to_string(step) + " budget " +
                               std::to_string(ratios[i]);
        expectSameReport(fw.evaluate(ratios[i]), want.report, want.solution,
                         at);

        CandidateSelector::Stats stats;
        expectSameFront(
            CandidateSelector(fw.model(), caymanParams(fw, ratios[i]))
                .select(stats),
            want.front, at + " cayman");
        expectSameLogicalStats(stats, want.stats, at + " cayman");

        CandidateSelector::Stats qscoresStats;
        expectSameFront(CandidateSelector(fw.qscores().model(),
                                          qscoresParams(fw, ratios[i]))
                            .select(qscoresStats),
                        want.qscoresFront, at + " qscores");
        expectSameLogicalStats(qscoresStats, want.qscoresStats,
                               at + " qscores");
        if (step % 3 == 0) {
          expectSameFront(fw.explore(ratios[i]), want.front, at + " explore");
        }
        reused += stats.frontsReused + qscoresStats.frontsReused;
      }
      EXPECT_GT(reused, 0u) << info.name << " " << orderName;

      // After the sweep, a run at the largest budget reuses stored fronts.
      CandidateSelector::Stats last;
      expectSameFront(
          CandidateSelector(fw.model(), caymanParams(fw, ratios.back()))
              .select(last),
          fresh.back().front, info.name + " " + orderName + " last");
      expectSameLogicalStats(last, fresh.back().stats,
                             info.name + " " + orderName + " last");
      EXPECT_GT(last.frontsReused, 0u) << info.name << " " << orderName;
    }
  }
}

using Counts = std::vector<std::pair<std::string, uint64_t>>;

uint64_t counterValue(const Counts& counts, const std::string& name) {
  for (const auto& [counter, value] : counts) {
    if (counter == name) return value;
  }
  return 0;
}

/// The select.* counters other than select.fronts_reused.
Counts logicalSelectCounters(const Counts& counts) {
  Counts kept;
  for (const auto& entry : counts) {
    if (entry.first.rfind("select.", 0) == 0 &&
        entry.first != "select.fronts_reused") {
      kept.push_back(entry);
    }
  }
  return kept;
}

// The second-run rule: a model's first Frontier run with a parameter set
// only counts the run, so the second run finds nothing to reuse; only the
// third does. The Reference engine never touches the memo (the Frontier run
// after two Reference runs is still a first run), and the select.* counters
// (fronts_reused aside) do not move when fronts are reused.
TEST(SelectReuseTest, FirstRunStoresNothingAndReferenceNeverCounts) {
  Framework fw(workloads::build("atax"));
  trace::TraceRecorder& recorder = trace::TraceRecorder::global();
  recorder.setEnabled(true);
  recorder.clear();
  const double largest = budgetRatios().back();

  auto runAt = [&](SelectMode mode, CandidateSelector::Stats& stats) {
    SelectorParams params = caymanParams(fw, largest);
    params.mode = mode;
    trace::CounterCapture capture;
    std::vector<Solution> front = CandidateSelector(fw.model(), params)
                                      .select(stats);
    return capture.take();
  };

  CandidateSelector::Stats reference;
  Counts referenceCounts = runAt(SelectMode::Reference, reference);
  runAt(SelectMode::Reference, reference);
  CandidateSelector::Stats first;
  Counts firstCounts = runAt(SelectMode::Frontier, first);
  CandidateSelector::Stats second;
  Counts secondCounts = runAt(SelectMode::Frontier, second);
  CandidateSelector::Stats third;
  Counts thirdCounts = runAt(SelectMode::Frontier, third);
  recorder.setEnabled(false);
  recorder.clear();

  EXPECT_EQ(counterValue(referenceCounts, "select.fronts_reused"), 0u);
  EXPECT_EQ(first.frontsReused, 0u);
  EXPECT_EQ(counterValue(firstCounts, "select.fronts_reused"), 0u);
  EXPECT_EQ(second.frontsReused, 0u);
  EXPECT_EQ(counterValue(secondCounts, "select.fronts_reused"), 0u);
  EXPECT_GT(third.frontsReused, 0u);
  EXPECT_EQ(counterValue(thirdCounts, "select.fronts_reused"),
            third.frontsReused);

  EXPECT_EQ(logicalSelectCounters(firstCounts),
            logicalSelectCounters(referenceCounts));
  EXPECT_EQ(logicalSelectCounters(thirdCounts),
            logicalSelectCounters(firstCounts));
  expectSameLogicalStats(third, first, "third vs first");
}

// Four threads run best() and explore() at different budgets on one
// Framework, twice over, so later runs splice fronts other threads stored
// while those threads are still storing; every result must equal a serial
// run's.
TEST(SelectReuseConcurrencyTest, ConcurrentRunsAtDifferentBudgetsMatchSerial) {
  const std::vector<double> ratios = {0.05, 0.12, 0.25, 0.4,
                                      0.5,  0.65, 0.8,  0.9};
  constexpr size_t kThreads = 4;
  for (const char* name : {"atax", "cjpeg", "nnet-test"}) {
    std::vector<Described> serialBest;
    std::vector<std::vector<Described>> serialFront;
    {
      Framework fw(workloads::build(name));
      for (double ratio : ratios) {
        serialBest.push_back(describe(fw.best(ratio)));
        serialFront.push_back(describe(fw.explore(ratio)));
      }
    }

    Framework fw(workloads::build(name));
    std::vector<Solution> best(ratios.size());
    std::vector<std::vector<Solution>> front(ratios.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < 2; ++round) {
          for (size_t i = t; i < ratios.size(); i += kThreads) {
            best[i] = fw.best(ratios[i]);
            front[i] = fw.explore(ratios[i]);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (size_t i = 0; i < ratios.size(); ++i) {
      const std::string at =
          std::string(name) + " budget " + std::to_string(ratios[i]);
      expectSameSolution(best[i], serialBest[i], at + " best");
      expectSameFront(front[i], serialFront[i], at + " explore");
    }
  }
}

}  // namespace
}  // namespace cayman::select
