#include "harness/layers.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>

#include "analysis/regions.h"
#include "ir/verifier.h"
#include "sim/interpreter.h"
#include "support/trace.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace cy = cayman;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t threadId() {
  static std::atomic<size_t> next{0};
  thread_local size_t id = next.fetch_add(1);
  return id;
}

/// Records the root span on construction and one child span per layer()
/// call. Counters the program fires inside a layer land in that span.
class Recorder {
 public:
  explicit Recorder(EvalTrace& trace) : trace_(trace) {
    trace_.spans.push_back(SpanRecord{Layer::Evaluate, -1, nowNs(), 0, {}});
  }

  template <typename Fn>
  void layer(Layer layer, Fn&& fn) {
    cy::support::trace::CounterCapture capture;
    SpanRecord span{layer, 0, nowNs(), 0, {}};
    fn();
    span.endNs = nowNs();
    span.counters = capture.take();
    trace_.spans.push_back(std::move(span));
  }

  void finish() { trace_.spans.front().endNs = nowNs(); }

 private:
  EvalTrace& trace_;
};

/// What Framework::evaluate reads from a built Framework.
struct Pipeline {
  const cy::accel::AcceleratorModel& model;
  const cy::hls::TechLibrary& tech;
  const cy::baselines::NoviaFlow& novia;
  const cy::baselines::QsCoresFlow& qscores;
  const cy::FrameworkOptions& options;
};

/// The regions CandidateSelector's pre-pass asks the model for, in its
/// order: the DP's post-order walk minus hotspot-pruned subtrees.
void collectRegions(const cy::accel::AcceleratorModel& model,
                    double pruneHotFraction, const cy::analysis::Region* region,
                    std::vector<const cy::analysis::Region*>& order) {
  if ((region->isBb() || region->isCtrlFlow()) &&
      model.profile().hotFraction(region) < pruneHotFraction) {
    return;
  }
  if (region->isBb()) {
    order.push_back(region);
    return;
  }
  for (const auto& child : region->children()) {
    collectRegions(model, pruneHotFraction, child.get(), order);
  }
  if (region->isCtrlFlow()) order.push_back(region);
}

/// Framework::evaluate, one layer call at a time.
cy::EvaluationReport evaluate(Recorder& recorder, const Pipeline& p,
                              double budget) {
  const cy::FrameworkOptions& options = p.options;
  cy::EvaluationReport report;
  report.budgetRatio = budget;
  const double budgetUm2 = budget * p.tech.cva6TileAreaUm2;
  const double ratio = options.clockRatio();

  cy::select::SelectorParams params;
  params.areaBudgetUm2 = budgetUm2;
  params.alpha = options.alpha;
  params.pruneHotFraction = options.pruneHotFraction;
  params.clockRatio = ratio;
  params.mode = options.selectMode;

  // The selector generates candidates itself before its DP; generating them
  // here first puts that work in its own span and leaves the selector's
  // pre-pass only cache hits.
  recorder.layer(Layer::Generate, [&] {
    std::vector<const cy::analysis::Region*> order;
    collectRegions(p.model, params.pruneHotFraction, p.model.wpst().root(),
                   order);
    p.model.generateAll(order);
  });
  recorder.layer(Layer::Select, [&] {
    cy::select::CandidateSelector selector(p.model, params);
    cy::select::CandidateSelector::Stats stats;
    report.solution = selector.best(stats);
  });
  recorder.layer(Layer::Merge, [&] {
    report.merging = cy::merge::AcceleratorMerger(p.tech, options.mergeMode)
                         .run(report.solution);
  });

  const double tAll = p.model.profile().totalCycles();
  report.totalCpuCycles = tAll;
  report.caymanSpeedup = report.solution.speedup(tAll, ratio);
  recorder.layer(Layer::Novia, [&] {
    report.noviaSpeedup = p.novia.best(budgetUm2).speedup(tAll);
  });
  recorder.layer(Layer::QsCores, [&] {
    report.qscoresSpeedup = p.qscores.best(budgetUm2, ratio, options.selectMode)
                                .speedup(tAll, ratio);
  });
  report.overNovia = report.noviaSpeedup > 0.0
                         ? report.caymanSpeedup / report.noviaSpeedup
                         : 0.0;
  report.overQsCores = report.qscoresSpeedup > 0.0
                           ? report.caymanSpeedup / report.qscoresSpeedup
                           : 0.0;
  for (const cy::accel::AcceleratorConfig& config :
       report.solution.accelerators) {
    report.numSeqBlocks += config.numSeqBlocks;
    report.numPipelinedRegions += config.numPipelinedRegions;
    report.numCoupled += config.numCoupled;
    report.numDecoupled += config.numDecoupled;
    report.numScratchpad += config.numScratchpad;
  }
  report.areaSavingPercent = report.merging.savingPercent();
  return report;
}

std::vector<std::string> regionLabels(const cy::select::Solution& solution) {
  std::vector<std::string> labels;
  for (const cy::accel::AcceleratorConfig& config : solution.accelerators) {
    labels.push_back(config.region != nullptr ? config.region->label()
                                              : "<none>");
  }
  return labels;
}

}  // namespace

const char* layerName(Layer layer) {
  switch (layer) {
    case Layer::Evaluate: return "cayman.evaluate";
    case Layer::Build: return "workloads.build";
    case Layer::Verify: return "ir.verify";
    case Layer::Wpst: return "analysis.wpst";
    case Layer::Profile: return "sim.profile";
    case Layer::Model: return "accel.model";
    case Layer::Generate: return "accel.generate";
    case Layer::Select: return "select.dp";
    case Layer::Merge: return "merge";
    case Layer::Novia: return "baselines.novia";
    case Layer::QsCores: return "baselines.qscores";
    case Layer::Teardown: return "cayman.teardown";
    case Layer::Count: break;
  }
  return "?";
}

EvalTrace traceFromScratch(const std::string& name, double budget,
                           cy::ThreadPool* pool) {
  EvalTrace trace;
  trace.workload = name;
  trace.thread = threadId();
  Recorder recorder(trace);
  cy::FrameworkOptions options;
  options.pool = pool;
  try {
    // Declared in Framework's member order and torn down in reverse, as
    // the Framework destructor does at the end of evaluateWorkload.
    std::unique_ptr<cy::ir::Module> module;
    std::unique_ptr<cy::analysis::WPst> wpst;
    std::unique_ptr<cy::sim::Interpreter> interpreter;
    std::unique_ptr<cy::sim::ProfileData> profile;
    const cy::hls::TechLibrary tech = cy::hls::TechLibrary::nangate45();
    std::unique_ptr<cy::accel::AcceleratorModel> model;
    std::unique_ptr<cy::baselines::NoviaFlow> novia;
    std::unique_ptr<cy::baselines::QsCoresFlow> qscores;

    recorder.layer(Layer::Build, [&] { module = cy::workloads::build(name); });
    recorder.layer(Layer::Verify, [&] { cy::ir::verifyOrThrow(*module); });
    recorder.layer(Layer::Wpst, [&] {
      wpst = std::make_unique<cy::analysis::WPst>(*module);
    });
    recorder.layer(Layer::Profile, [&] {
      interpreter = std::make_unique<cy::sim::Interpreter>(*module);
      cy::sim::Interpreter::Result run = interpreter->run();
      profile = std::make_unique<cy::sim::ProfileData>(
          *wpst, run, interpreter->costModel());
    });
    recorder.layer(Layer::Model, [&] {
      cy::accel::ModelParams params;
      params.clockNs = options.accelClockNs;
      params.beta = options.beta;
      params.allowDecoupled = !options.coupledOnly;
      params.allowScratchpad = !options.coupledOnly;
      params.generateMode = options.generateMode;
      params.pool = options.pool;
      model = std::make_unique<cy::accel::AcceleratorModel>(
          *wpst, *profile, tech, cy::hls::InterfaceTiming{}, params);
    });
    recorder.layer(Layer::Novia, [&] {
      novia = std::make_unique<cy::baselines::NoviaFlow>(
          *wpst, *profile, tech, interpreter->costModel(), options.cpuClockNs);
    });
    recorder.layer(Layer::QsCores, [&] {
      qscores = std::make_unique<cy::baselines::QsCoresFlow>(
          *wpst, *profile, tech, options.generateMode);
    });
    cy::EvaluationReport report = evaluate(
        recorder, Pipeline{*model, tech, *novia, *qscores, options}, budget);
    std::vector<std::string> labels = regionLabels(report.solution);
    trace.regions = wpst->allRegions().size();
    recorder.layer(Layer::Teardown, [&] {
      qscores.reset();
      novia.reset();
      model.reset();
      profile.reset();
      interpreter.reset();
      wpst.reset();
      module.reset();
    });
    recorder.finish();
    trace.outcome = outcomeOf(name, report, labels);
  } catch (const std::exception& e) {
    recorder.finish();
    trace.outcome = failedOutcome(name, std::string("traced: ") + e.what());
  }
  return trace;
}

EvalTrace traceOnFramework(const std::string& name,
                           const cy::Framework& framework, double budget) {
  EvalTrace trace;
  trace.workload = name;
  trace.thread = threadId();
  Recorder recorder(trace);
  try {
    cy::EvaluationReport report =
        evaluate(recorder,
                 Pipeline{framework.model(), framework.tech(),
                          framework.novia(), framework.qscores(),
                          framework.options()},
                 budget);
    std::vector<std::string> labels = regionLabels(report.solution);
    recorder.finish();
    trace.outcome = outcomeOf(name, report, labels);
  } catch (const std::exception& e) {
    recorder.finish();
    trace.outcome = failedOutcome(name, std::string("traced: ") + e.what());
  }
  return trace;
}

bool writeSpans(const std::string& path,
                const std::vector<std::vector<EvalTrace>>& passes) {
  uint64_t epoch = UINT64_MAX;
  for (const auto& pass : passes) {
    for (const EvalTrace& trace : pass) {
      if (!trace.spans.empty() && trace.spans.front().startNs < epoch) {
        epoch = trace.spans.front().startNs;
      }
    }
  }
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  char buffer[512];
  for (size_t p = 0; p < passes.size(); ++p) {
    for (const EvalTrace& trace : passes[p]) {
      for (size_t i = 0; i < trace.spans.size(); ++i) {
        const SpanRecord& span = trace.spans[i];
        std::snprintf(
            buffer, sizeof buffer,
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"workload\":\"%s\","
            "\"pass\":%zu,\"id\":%zu,\"parent\":%d}}",
            first ? "" : ",\n", layerName(span.layer), trace.thread,
            static_cast<double>(span.startNs - epoch) * 1e-3,
            static_cast<double>(span.endNs - span.startNs) * 1e-3,
            trace.workload.c_str(), p, i, span.parent);
        out += buffer;
        first = false;
      }
    }
  }
  out += "\n]}\n";
  return writeFile(path, out);
}

}  // namespace perfbench
