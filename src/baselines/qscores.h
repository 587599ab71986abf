// QsCores-like baseline [23]: off-core accelerators ("quasi-specific
// cores") that do support control flow and memory, but only synthesize
// sequential control logic and reach memory through a slow scan-chain-style
// interface (paper Table I / §II-B). Implemented by instantiating Cayman's
// own accelerator model with those restrictions, so the comparison isolates
// exactly the paper's claimed advantages.
#pragma once

#include "select/selector.h"

namespace cayman::baselines {

class QsCoresFlow {
 public:
  QsCoresFlow(const analysis::WPst& wpst, const sim::ProfileData& profile,
              const hls::TechLibrary& tech,
              accel::GenerateMode mode = accel::GenerateMode::Guided,
              const support::CancelToken* cancel = nullptr);

  /// Scan-chain access timing: high latency, one word at a time, the chain
  /// shared by every access.
  static hls::InterfaceTiming scanChainTiming();

  /// Model restrictions: sequential control only, coupled-style access only.
  static accel::ModelParams restrictedParams(
      accel::GenerateMode mode = accel::GenerateMode::Guided,
      const support::CancelToken* cancel = nullptr);

  /// Both are safe to call concurrently: selection state is per-call and
  /// the restricted model's generate cache is internally synchronized.
  /// `mode` selects the DP engine (bit-identical results either way).
  std::vector<select::Solution> paretoFront(
      double areaBudgetUm2, double clockRatio = 1.25,
      select::SelectMode mode = select::SelectMode::Frontier) const;
  select::Solution best(
      double areaBudgetUm2, double clockRatio = 1.25,
      select::SelectMode mode = select::SelectMode::Frontier) const;

  const accel::AcceleratorModel& model() const { return model_; }

 private:
  /// Selector parameters for one call; default α and prune fraction.
  select::SelectorParams selectorParams(double areaBudgetUm2,
                                        double clockRatio,
                                        select::SelectMode mode) const;

  accel::AcceleratorModel model_;
};

}  // namespace cayman::baselines
