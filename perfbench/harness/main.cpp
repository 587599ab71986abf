// cayman_perfbench: one client of the end-to-end benchmark (perfbench/run.py
// starts the clients and aggregates). A client runs one workload as a closed
// loop: it runs passes back to back, checks every evaluation, and prints one
// JSON line of raw samples. See perfbench/README.md for the workloads, the
// checks and the metrics.
//
//   cayman_perfbench --workload sweep-serial|sweep-parallel|dse --seed N
//                    --seconds S --trace 0|1 --expected DIR
//                    [--min-passes N] [--cpu I] [--spans-out FILE]
//   cayman_perfbench --emit-expected DIR      (writes the expected files)
//   cayman_perfbench --confirm-expected DIR   (re-derives them with each
//                                              Reference engine)
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cayman/driver.h"
#include "harness/checks.h"
#include "harness/layers.h"
#include "support/envhooks.h"
#include "support/json.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "workloads/workloads.h"

namespace cy = cayman;
namespace json = cayman::support::json;
using namespace perfbench;

namespace {

constexpr double kSweepBudget = 0.25;
constexpr size_t kDseBudgets = 24;
constexpr uint64_t kDefaultSeed = 1;
/// Largest share of evaluation wall time that may fall outside every layer
/// span (framework glue and the recorder's own bookkeeping) in the median
/// traced pass before the traced run is marked incorrect. Single passes can
/// exceed it when the thread is preempted between two spans.
constexpr double kUnattributedBoundPct = 5.0;
/// Traced passes whose spans are kept for the span file.
constexpr size_t kSpanPasses = 10;

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double cpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec * 1e-6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

unsigned allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Pins this thread, and every thread it starts later (the pool workers), to
/// the `index`-th allowed CPU (modulo their number), so concurrent
/// single-threaded clients each keep a core of their own.
void pinToCpu(unsigned index) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  index %= static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set) && index-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }
}

/// Reference outputs: the expected file where one applies, otherwise the
/// first output seen for each (workload, budget) in this process.
struct References {
  std::map<std::string, std::string> lines;

  void load(const std::vector<std::string>& expected) {
    for (const std::string& line : expected) lines[keyOf(line)] = line;
  }
  /// The reference for `line`'s key; records `line` when there is none.
  const std::string& forLine(const std::string& line) {
    return lines.emplace(keyOf(line), line).first->second;
  }
};

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 2.0;
  bool trace = false;
  size_t minPasses = 100;
  std::optional<unsigned> cpu;  ///< pin to this allowed CPU
  std::string expectedDir;
  std::string spansOut;
  std::string emitDir;
  std::string confirmDir;
};

std::optional<Args> parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--min-passes") {
      args.minPasses = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--cpu") {
      args.cpu = static_cast<unsigned>(std::strtoul(value.c_str(), &end, 10));
    } else if (flag == "--expected") {
      args.expectedDir = value;
    } else if (flag == "--spans-out") {
      args.spansOut = value;
    } else if (flag == "--emit-expected") {
      args.emitDir = value;
    } else if (flag == "--confirm-expected") {
      args.confirmDir = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if ((argc - 1) % 2 != 0) return std::nullopt;
  return args;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Submit order evaluateWorkloads uses (LPT by registry cost hint), for the
/// traced run's own fan-out over the same pool.
std::vector<size_t> lptOrder(const std::vector<std::string>& names) {
  std::vector<size_t> order(names.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> hints(names.size(), 1.0);
  for (size_t i = 0; i < names.size(); ++i) {
    hints[i] = cy::workloads::byName(names[i])->costHint;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return hints[a] > hints[b]; });
  return order;
}

/// One workload's state: what a pass runs and how it is checked.
class Bench {
 public:
  Bench(const Args& args, Tally& tally)
      : tally_(tally), inputs_(makeInputs(args.seed, kDseBudgets)) {
    dse_ = args.workload == "dse";
    jobs_ = args.workload == "sweep-parallel" ? std::min(4u, allowedCpus()) : 1;
    // The sweeps' outputs do not depend on the seed, so every sweep run is
    // checked against the expected file; dse only at the default seed.
    if (!dse_ || args.seed == kDefaultSeed) {
      const std::string path = args.expectedDir +
                               (dse_ ? "/dse_seed1.txt" : "/sweep_0.25.txt");
      std::vector<std::string> expected = readLines(path);
      if (expected.size() != evaluationsPerPass()) {
        tally_.fail("missing or short expected file " + path);
      }
      refs_.load(expected);
    }
  }

  unsigned jobs() const { return jobs_; }
  size_t evaluationsPerPass() const {
    return inputs_.names.size() * (dse_ ? inputs_.budgets.size() : 1);
  }

  /// Set-up: for the sweeps the first (cold) pass; for dse building the 28
  /// Frameworks plus their cold evaluation pass. Returns that pass.
  std::vector<Outcome> setUp() {
    if (!dse_) {
      cy::ThreadPool::shared().ensureWorkers(jobs_);
      return pass();
    }
    // evaluateWorkload honours CAYMAN_INJECT_FAULT for the sweeps; the
    // Frameworks built here honour it the same way.
    std::optional<cy::support::envhooks::FaultSpec> fault;
    if (auto spec = cy::support::envhooks::envInjectFault(); spec.ok()) {
      fault = spec.value();
    } else {
      tally_.fail(spec.diagnostic().message);
    }
    for (const std::string& name : inputs_.names) {
      cy::FrameworkOptions options;
      if (fault && fault->workload == name) options.failAfterStage = fault->stage;
      try {
        frameworks_.push_back(std::make_unique<cy::Framework>(
            cy::workloads::build(name), options));
        buildFailures_.emplace_back();
      } catch (const std::exception& e) {
        frameworks_.push_back(nullptr);
        buildFailures_.push_back(std::string("build: ") + e.what());
      }
    }
    return pass();
  }

  /// One untraced pass through the public API.
  std::vector<Outcome> pass() {
    std::vector<Outcome> outcomes;
    if (!dse_) {
      for (const cy::WorkloadEvaluation& evaluation :
           cy::evaluateWorkloads(inputs_.names, kSweepBudget, jobs_)) {
        outcomes.push_back(outcomeOf(evaluation));
      }
      return outcomes;
    }
    for (size_t w = 0; w < frameworks_.size(); ++w) {
      const std::string& name = inputs_.names[w];
      for (double budget : inputs_.budgets) {
        if (frameworks_[w] == nullptr) {
          outcomes.push_back(failedOutcome(name, buildFailures_[w]));
          continue;
        }
        try {
          cy::EvaluationReport report = frameworks_[w]->evaluate(budget);
          std::vector<std::string> labels;
          for (const auto& config : report.solution.accelerators) {
            labels.push_back(config.region->label());
          }
          outcomes.push_back(outcomeOf(name, report, labels));
        } catch (const std::exception& e) {
          outcomes.push_back(
              failedOutcome(name, std::string("evaluate: ") + e.what()));
        }
      }
    }
    return outcomes;
  }

  /// One traced pass: the same evaluations, each decomposed into layer
  /// calls. dse runs on this thread; a sweep runs on the shared pool as
  /// evaluateWorkloads does, or with `jobs` 0 inline on this thread with no
  /// nested pool.
  std::vector<EvalTrace> tracedPass(unsigned jobs) {
    std::vector<EvalTrace> traces;
    if (dse_) {
      for (size_t w = 0; w < frameworks_.size(); ++w) {
        for (double budget : inputs_.budgets) {
          if (frameworks_[w] == nullptr) continue;
          traces.push_back(
              traceOnFramework(inputs_.names[w], *frameworks_[w], budget));
        }
      }
    } else if (jobs == 0) {
      for (const std::string& name : inputs_.names) {
        traces.push_back(traceFromScratch(name, kSweepBudget, nullptr));
      }
    } else {
      cy::ThreadPool& pool = cy::ThreadPool::shared();
      traces = cy::parallelIndexMap(
          pool, inputs_.names.size(),
          [&](size_t i) {
            return traceFromScratch(inputs_.names[i], kSweepBudget, &pool);
          },
          lptOrder(inputs_.names));
    }
    return traces;
  }

  void check(const std::vector<Outcome>& outcomes) {
    for (const Outcome& outcome : outcomes) verify(outcome);
  }

  void check(const std::vector<EvalTrace>& traces) {
    for (const EvalTrace& trace : traces) verify(trace.outcome);
  }

 private:
  /// dse references are digests (see dse_seed1.txt); sweeps compare lines.
  void verify(const Outcome& outcome) {
    const std::string probe = dse_ ? digestLine(outcome.line) : outcome.line;
    tally_.check(outcome, probe, refs_.forLine(probe));
  }

  Tally& tally_;
  Inputs inputs_;
  bool dse_ = false;
  unsigned jobs_ = 1;
  References refs_;
  std::vector<std::unique_ptr<cy::Framework>> frameworks_;
  std::vector<std::string> buildFailures_;
};

// ---------------------------------------------------------------------------
// Per-layer summary of traced passes
// ---------------------------------------------------------------------------

struct PassSummary {
  double layerMs[static_cast<size_t>(Layer::Count)] = {};
  double evalWallMs = 0.0;   ///< sum of evaluation (root span) durations
  double longestEvalMs = 0.0;
  std::string longestName;
  std::map<std::string, double> counters;  ///< "<layer>/<counter>" sums
  std::map<std::string, double> totals;    ///< "<counter>" sums
  double frontPeak = 0.0;
  double regions = 0.0;
  bool nested = true;  ///< every child span lies inside its parent
};

PassSummary summarize(const std::vector<EvalTrace>& traces) {
  PassSummary s;
  for (const EvalTrace& trace : traces) {
    const SpanRecord& root = trace.spans.front();
    const double wall = (root.endNs - root.startNs) * 1e-6;
    double childMs = 0.0;
    for (size_t i = 1; i < trace.spans.size(); ++i) {
      const SpanRecord& span = trace.spans[i];
      const double ms = (span.endNs - span.startNs) * 1e-6;
      if (span.startNs < root.startNs || span.endNs > root.endNs) {
        s.nested = false;
      }
      s.layerMs[static_cast<size_t>(span.layer)] += ms;
      childMs += ms;
      for (const auto& [name, value] : span.counters) {
        s.counters[std::string(layerName(span.layer)) + "/" + name] += value;
        s.totals[name] += value;
        if (name == "select.front_peak") {
          s.frontPeak = std::max(s.frontPeak, static_cast<double>(value));
        }
      }
    }
    s.layerMs[static_cast<size_t>(Layer::Evaluate)] += wall - childMs;
    s.evalWallMs += wall;
    s.regions += trace.regions;
    if (wall > s.longestEvalMs) {
      s.longestEvalMs = wall;
      s.longestName = trace.workload;
    }
  }
  return s;
}

double counterOf(const PassSummary& s, Layer layer, const std::string& name) {
  auto it = s.counters.find(std::string(layerName(layer)) + "/" + name);
  return it == s.counters.end() ? 0.0 : it->second;
}

uint64_t globalCounter(const std::string& name) {
  for (const auto& [key, value] :
       cy::support::trace::TraceRecorder::global().globalCounters()) {
    if (key == name) return value;
  }
  return 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

json::Value metric(double value, const char* unit) {
  json::Value v = json::Value::object();
  v.set("value", value);
  v.set("unit", unit);
  return v;
}

void setTally(json::Value& out, const Tally& tally) {
  out.set("attempted", tally.attempted);
  out.set("failed", tally.failed);
  json::Value failures = json::Value::array();
  for (const std::string& f : tally.firstFailures) failures.push(f);
  out.set("failures", std::move(failures));
}

int runUntraced(const Args& args, Clock::time_point processStart) {
  Tally tally;
  Bench bench(args, tally);
  const std::vector<Outcome> first = bench.setUp();
  const double setupS = msSince(processStart) * 1e-3;
  bench.check(first);

  json::Value passMs = json::Value::array(), passCpuMs = json::Value::array();
  size_t passes = 0;
  const Clock::time_point start = Clock::now();
  while (passes < args.minPasses || msSince(start) < args.seconds * 1e3) {
    const double cpu0 = cpuMs();
    const Clock::time_point t0 = Clock::now();
    std::vector<Outcome> outcomes = bench.pass();
    passMs.push(msSince(t0));
    passCpuMs.push(cpuMs() - cpu0);
    bench.check(outcomes);
    ++passes;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  json::Value out = json::Value::object();
  out.set("workload", args.workload);
  out.set("jobs", bench.jobs());
  out.set("setup_s", setupS);
  out.set("evals_per_pass", static_cast<uint64_t>(bench.evaluationsPerPass()));
  out.set("pass_ms", std::move(passMs));
  out.set("cpu_ms", std::move(passCpuMs));
  out.set("peak_rss_mb", usage.ru_maxrss / 1024.0);
  out.set("speedup_geomean", speedupGeomean(first));
  out.set("area_saving_pct", savingMean(first));
  setTally(out, tally);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int runTraced(const Args& args) {
  Tally tally;
  Bench bench(args, tally);
  bench.check(bench.setUp());
  cy::support::trace::TraceRecorder& recorder =
      cy::support::trace::TraceRecorder::global();
  const bool parallel = bench.jobs() > 1;

  std::vector<double> untracedMs, tracedMs, tasks, steals;
  std::vector<PassSummary> summaries, serial;
  std::vector<std::vector<EvalTrace>> kept;
  const Clock::time_point start = Clock::now();
  size_t rounds = 0;
  // Untraced and traced passes alternate, so drift hits both alike.
  while (rounds < args.minPasses || msSince(start) < args.seconds * 1e3) {
    Clock::time_point t0 = Clock::now();
    std::vector<Outcome> outcomes = bench.pass();
    untracedMs.push_back(msSince(t0));
    bench.check(outcomes);

    recorder.setEnabled(true);
    const uint64_t tasks0 = globalCounter("pool.tasks");
    const uint64_t steals0 = globalCounter("pool.steals");
    t0 = Clock::now();
    std::vector<EvalTrace> traces = bench.tracedPass(bench.jobs());
    tracedMs.push_back(msSince(t0));
    tasks.push_back(globalCounter("pool.tasks") - tasks0);
    steals.push_back(globalCounter("pool.steals") - steals0);
    recorder.setEnabled(false);
    recorder.drainOrphans();
    bench.check(traces);
    summaries.push_back(summarize(traces));
    if (!parallel) serial.push_back(summaries.back());
    if (kept.size() < kSpanPasses) kept.push_back(std::move(traces));

    if (parallel) {
      // The uncontended reference for the tail report: the same
      // evaluations one at a time on this thread.
      recorder.setEnabled(true);
      std::vector<EvalTrace> inline_ = bench.tracedPass(0);
      recorder.setEnabled(false);
      bench.check(inline_);
      serial.push_back(summarize(inline_));
    }
    ++rounds;
  }

  auto med = [&](auto get) {
    std::vector<double> v;
    for (const PassSummary& s : summaries) v.push_back(get(s));
    return median(v);
  };
  auto medSerial = [&](auto get) {
    std::vector<double> v;
    for (const PassSummary& s : serial) v.push_back(get(s));
    return median(v);
  };
  auto layerMs = [&](Layer layer) {
    return med([layer](const PassSummary& s) {
      return s.layerMs[static_cast<size_t>(layer)];
    });
  };
  auto count = [&](Layer layer, const char* name) {
    return med([&](const PassSummary& s) { return counterOf(s, layer, name); });
  };

  const double profileMs = layerMs(Layer::Profile);
  const double instructions = count(Layer::Profile, "interp.instructions");
  const double candidates = count(Layer::Generate, "model.candidates_total");
  const double estimates = count(Layer::Generate, "model.estimate_calls");
  const double hits = count(Layer::Generate, "model.cache_hits");
  const double misses = count(Layer::Generate, "model.cache_misses");
  const double pairs = count(Layer::Merge, "merge.pairs_evaluated");
  const double steps = count(Layer::Merge, "merge.steps");
  const double tracedP50 = median(tracedMs);
  const double untracedP50 = median(untracedMs);
  const double serialWork =
      medSerial([](const PassSummary& s) { return s.evalWallMs; });
  const double longest =
      medSerial([](const PassSummary& s) { return s.longestEvalMs; });
  auto unattributed = [](const PassSummary& s) {
    return 100.0 * ratio(s.layerMs[static_cast<size_t>(Layer::Evaluate)],
                         s.evalWallMs);
  };
  const double unattributedPct = med(unattributed);
  double worstUnattributedPct = 0.0;
  bool nested = true;
  for (const PassSummary& s : summaries) {
    worstUnattributedPct = std::max(worstUnattributedPct, unattributed(s));
    nested = nested && s.nested;
  }
  if (!nested) tally.fail("a layer span lies outside its evaluation span");
  if (unattributedPct > kUnattributedBoundPct) {
    tally.fail("layer spans leave " + std::to_string(unattributedPct) +
               "% of evaluation wall time unattributed in the median pass "
               "(bound " + std::to_string(kUnattributedBoundPct) + "%)");
  }

  json::Value layers = json::Value::object();
  layers.set("workloads.build_ms", metric(layerMs(Layer::Build), "ms"));
  layers.set("ir.verify_ms", metric(layerMs(Layer::Verify), "ms"));
  layers.set("analysis.wpst_ms", metric(layerMs(Layer::Wpst), "ms"));
  layers.set("analysis.regions",
             metric(med([](const PassSummary& s) { return s.regions; }),
                    "count"));
  layers.set("sim.profile_ms", metric(profileMs, "ms"));
  layers.set("sim.instructions", metric(instructions, "count"));
  layers.set("sim.minsts_per_s",
             metric(ratio(instructions, profileMs) * 1e-3, "Minst/s"));
  layers.set("accel.model_ms", metric(layerMs(Layer::Model), "ms"));
  layers.set("accel.generate_ms", metric(layerMs(Layer::Generate), "ms"));
  layers.set("accel.candidates", metric(candidates, "count"));
  layers.set("accel.estimate_calls", metric(estimates, "count"));
  layers.set("accel.candidate_yield", metric(ratio(candidates, estimates),
                                             "ratio"));
  layers.set("accel.cache_hit_ratio", metric(ratio(hits, hits + misses),
                                             "ratio"));
  layers.set("hls.block_schedules",
             metric(med([](const PassSummary& s) {
                      auto it = s.totals.find("sched.block_calls");
                      return it == s.totals.end() ? 0.0 : it->second;
                    }),
                    "count"));
  layers.set("select.dp_ms", metric(layerMs(Layer::Select), "ms"));
  layers.set("select.combine_pairs",
             metric(count(Layer::Select, "select.combine_pairs"), "count"));
  layers.set("select.front_peak",
             metric(med([](const PassSummary& s) { return s.frontPeak; }),
                    "count"));
  layers.set("select.prune_ratio",
             metric(ratio(count(Layer::Select, "select.regions_pruned"),
                          count(Layer::Select, "select.regions_visited")),
                    "ratio"));
  layers.set("merge.ms", metric(layerMs(Layer::Merge), "ms"));
  layers.set("merge.pairs_evaluated", metric(pairs, "count"));
  layers.set("merge.step_yield", metric(ratio(steps, pairs), "ratio"));
  layers.set("baselines.novia_ms", metric(layerMs(Layer::Novia), "ms"));
  layers.set("baselines.qscores_ms", metric(layerMs(Layer::QsCores), "ms"));
  layers.set("cayman.teardown_ms", metric(layerMs(Layer::Teardown), "ms"));
  layers.set("cayman.overhead_ms", metric(layerMs(Layer::Evaluate), "ms"));
  layers.set("trace.unattributed_pct", metric(unattributedPct, "%"));
  layers.set("pool.tasks", metric(median(tasks), "count"));
  layers.set("pool.steals", metric(median(steals), "count"));
  layers.set("pool.steal_ratio",
             metric(ratio(median(steals), median(tasks)), "ratio"));
  const unsigned jobs = bench.jobs();
  layers.set("pool.efficiency",
             metric(ratio(serialWork, jobs * tracedP50), "ratio"));
  layers.set("sweep.tail_ratio", metric(ratio(tracedP50, longest), "ratio"));
  layers.set("sweep.longest_eval_ms", metric(longest, "ms"));
  layers.set("trace.overhead_pct",
             metric(100.0 * ratio(tracedP50 - untracedP50, untracedP50), "%"));

  // Tail / critical-path report (stderr; the last stdout line is the data).
  std::string longestName =
      serial.empty() ? std::string() : serial.front().longestName;
  std::fprintf(stderr,
               "%s tail report (%zu traced passes, jobs=%u):\n"
               "  traced pass p50            %9.3f ms (untraced %.3f ms)\n"
               "  serial work per pass       %9.3f ms\n"
               "  longest single evaluation  %9.3f ms (%s, traced serial)\n"
               "  makespan lower bound       %9.3f ms = max(longest, "
               "work/jobs)\n"
               "  pool.efficiency            %9.3f\n"
               "  layer spans leave          %9.3f %% unattributed in the "
               "median pass (bound %.1f %%; worst pass %.3f %%)\n",
               args.workload.c_str(), summaries.size(), jobs, tracedP50,
               untracedP50, serialWork, longest, longestName.c_str(),
               std::max(longest, serialWork / jobs),
               ratio(serialWork, jobs * tracedP50), unattributedPct,
               kUnattributedBoundPct, worstUnattributedPct);

  if (!args.spansOut.empty() && !writeSpans(args.spansOut, kept)) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 args.spansOut.c_str());
  }

  json::Value out = json::Value::object();
  out.set("workload", args.workload);
  out.set("jobs", jobs);
  out.set("traced_passes", static_cast<uint64_t>(summaries.size()));
  setTally(out, tally);
  out.set("per_layer", std::move(layers));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Expected files
// ---------------------------------------------------------------------------

struct ExpectedSet {
  std::string sweepLines;  ///< sweep_0.25.txt
  std::string table;       ///< evaluate_all_0.25.txt (the CLI table)
  std::string dseLines;    ///< dse_seed1.txt (digests)
};

/// Derives every expected file from cold evaluateWorkload calls under
/// `options` (in registry order; dse at the default seed's budgets).
ExpectedSet deriveExpected(const cy::FrameworkOptions& options) {
  ExpectedSet set;
  std::vector<cy::WorkloadEvaluation> sweep =
      cy::evaluateAll(kSweepBudget, 1, options);
  for (const cy::WorkloadEvaluation& evaluation : sweep) {
    set.sweepLines += outcomeOf(evaluation).line + "\n";
  }
  set.table = cy::formatEvaluationTable(sweep);
  const Inputs inputs = makeInputs(kDefaultSeed, kDseBudgets);
  for (const cy::workloads::WorkloadInfo& info : cy::workloads::all()) {
    for (double budget : inputs.budgets) {
      set.dseLines += digestLine(outcomeOf(cy::evaluateWorkload(
                                     info.name, budget, options))
                                     .line) +
                      "\n";
    }
  }
  return set;
}

int emitExpected(const std::string& dir) {
  ExpectedSet set = deriveExpected({});
  bool ok = writeFile(dir + "/sweep_0.25.txt", set.sweepLines) &&
            writeFile(dir + "/evaluate_all_0.25.txt", set.table) &&
            writeFile(dir + "/dse_seed1.txt", set.dseLines);
  std::fprintf(stderr, "%s expected files in %s\n",
               ok ? "wrote" : "could not write", dir.c_str());
  return ok ? 0 : 1;
}

int confirmExpected(const std::string& dir) {
  const ExpectedSet want{readFile(dir + "/sweep_0.25.txt"),
                         readFile(dir + "/evaluate_all_0.25.txt"),
                         readFile(dir + "/dse_seed1.txt")};
  struct Engine {
    const char* name;
    cy::FrameworkOptions options;
  };
  std::vector<Engine> engines(4);
  engines[0].name = "default engines";
  engines[1].name = "--select-mode reference";
  engines[1].options.selectMode = cy::select::SelectMode::Reference;
  engines[2].name = "--generate-mode reference";
  engines[2].options.generateMode = cy::accel::GenerateMode::Reference;
  engines[3].name = "--merge-mode reference";
  engines[3].options.mergeMode = cy::merge::MergeMode::Reference;
  bool all = true;
  for (const Engine& engine : engines) {
    ExpectedSet got = deriveExpected(engine.options);
    const bool same = got.sweepLines == want.sweepLines &&
                      got.table == want.table && got.dseLines == want.dseLines;
    std::printf("%-26s %s\n", engine.name,
                same ? "reproduces all expected files byte-for-byte"
                     : "DIFFERS");
    all = all && same;
  }
  return all ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point processStart = Clock::now();
  std::optional<Args> args = parseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr, "usage: see the header of perfbench/harness/main.cpp\n");
    return 2;
  }
  if (!args->emitDir.empty()) return emitExpected(args->emitDir);
  if (!args->confirmDir.empty()) return confirmExpected(args->confirmDir);
  if (args->workload != "sweep-serial" && args->workload != "sweep-parallel" &&
      args->workload != "dse") {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  if (args->cpu) pinToCpu(*args->cpu);
  return args->trace ? runTraced(*args) : runUntraced(*args, processStart);
}
