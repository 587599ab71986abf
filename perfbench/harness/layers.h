// The traced run's view of one evaluation: the benchmark calls each module's
// public functions itself, in the order Framework and evaluateWorkload call
// them, and records a span around every call. The program is not
// instrumented; its own support::trace counters are read through a
// CounterCapture opened around each call.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cayman/framework.h"
#include "harness/checks.h"

namespace cayman {
class ThreadPool;
}

namespace perfbench {

/// Span names: one per layer (module) plus the evaluation root, whose self
/// time is the framework glue (cayman.overhead_ms).
enum class Layer : uint8_t {
  Evaluate,  ///< root: one whole evaluation
  Build,     ///< workloads::build
  Verify,    ///< ir::verifyOrThrow
  Wpst,      ///< analysis::WPst construction
  Profile,   ///< sim::Interpreter run + sim::ProfileData
  Model,     ///< accel::AcceleratorModel construction (per-function analyses)
  Generate,  ///< accel::AcceleratorModel::generateAll over the DP's regions
  Select,    ///< select::CandidateSelector::best (the DP)
  Merge,     ///< merge::AcceleratorMerger::run
  Novia,     ///< baselines::NoviaFlow construction and best()
  QsCores,   ///< baselines::QsCoresFlow construction and best()
  Teardown,  ///< destroying what a from-scratch evaluation built
  Count,
};

const char* layerName(Layer layer);

struct SpanRecord {
  Layer layer = Layer::Evaluate;
  int32_t parent = -1;  ///< index into EvalTrace::spans; -1 for the root
  uint64_t startNs = 0;
  uint64_t endNs = 0;
  /// support::trace counters the program fired inside this span.
  std::vector<std::pair<std::string, uint64_t>> counters;
};

/// Spans and outputs of one traced evaluation (root span first).
struct EvalTrace {
  std::string workload;
  size_t thread = 0;
  std::vector<SpanRecord> spans;
  size_t regions = 0;  ///< wPST regions (from-scratch evaluations only)
  Outcome outcome;
};

/// Builds, profiles and evaluates `name` from scratch at `budget`, as
/// evaluateWorkload does with default FrameworkOptions (`pool` is the nested
/// fan-out pool, nullptr for none).
EvalTrace traceFromScratch(const std::string& name, double budget,
                           cayman::ThreadPool* pool);

/// One evaluation on an already built Framework, as Framework::evaluate.
EvalTrace traceOnFramework(const std::string& name,
                           const cayman::Framework& framework, double budget);

/// Writes spans as Chrome trace events (chrome://tracing, ui.perfetto.dev);
/// args carry the workload, pass, span id and parent id.
bool writeSpans(const std::string& path,
                const std::vector<std::vector<EvalTrace>>& passes);

}  // namespace perfbench
