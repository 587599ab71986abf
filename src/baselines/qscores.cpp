#include "baselines/qscores.h"

namespace cayman::baselines {

hls::InterfaceTiming QsCoresFlow::scanChainTiming() {
  hls::InterfaceTiming timing;
  // Scan-chain data access: words serially shifted through the chain —
  // roughly twice the latency and occupancy of a dedicated coupled port
  // ([22], [23]). Slow enough to cap scaling, not so slow the flow never
  // beats the CPU (QsCores is a real baseline, clearly above NOVIA).
  timing.coupledLoadLatency = 6;
  timing.coupledLoadOccupancy = 5;
  timing.coupledStoreLatency = 3;
  timing.coupledStoreOccupancy = 2;
  return timing;
}

accel::ModelParams QsCoresFlow::restrictedParams(
    accel::GenerateMode mode, const support::CancelToken* cancel) {
  accel::ModelParams params;
  params.allowDecoupled = false;
  params.allowScratchpad = false;
  params.allowPipelining = false;
  params.allowUnrolling = false;
  params.generateMode = mode;
  params.cancel = cancel;
  return params;
}

QsCoresFlow::QsCoresFlow(const analysis::WPst& wpst,
                         const sim::ProfileData& profile,
                         const hls::TechLibrary& tech,
                         accel::GenerateMode mode,
                         const support::CancelToken* cancel)
    : model_(wpst, profile, tech, scanChainTiming(),
             restrictedParams(mode, cancel)) {}

select::SelectorParams QsCoresFlow::selectorParams(
    double areaBudgetUm2, double clockRatio, select::SelectMode mode) const {
  select::SelectorParams params;
  params.areaBudgetUm2 = areaBudgetUm2;
  params.clockRatio = clockRatio;
  params.mode = mode;
  // The token the flow was built with, so a deadline interrupts the
  // baseline DP at every region exactly as it does Cayman's.
  params.cancel = model_.params().cancel;
  return params;
}

std::vector<select::Solution> QsCoresFlow::paretoFront(
    double areaBudgetUm2, double clockRatio,
    select::SelectMode mode) const {
  select::CandidateSelector selector(
      model_, selectorParams(areaBudgetUm2, clockRatio, mode));
  select::CandidateSelector::Stats stats;
  return selector.select(stats);
}

select::Solution QsCoresFlow::best(double areaBudgetUm2, double clockRatio,
                                   select::SelectMode mode) const {
  select::CandidateSelector selector(
      model_, selectorParams(areaBudgetUm2, clockRatio, mode));
  select::CandidateSelector::Stats stats;
  return selector.best(stats);
}

}  // namespace cayman::baselines
