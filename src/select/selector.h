// Candidate selection (paper §III-D, Algorithm 1): a knapsack over the wPST
// solved by dynamic programming with Pareto sequences, the ⊗ combine, the
// α-filter and heuristic hotspot pruning.
//
// Budget-monotone subtree reuse (Frontier engine only). The budget enters
// the DP only where an area is compared against it: the Bb and ctrl-flow
// config filters and combine()'s early break. A subtree whose comparisons
// cut nothing computes the same front at every budget B >= M, the largest
// area it compared. From a model's second Frontier run with one (α, prune
// fraction, clock ratio), every cut-free subtree front (Bb leaves aside) is
// stored on the model, keyed by region within that parameter set, with M
// and the subtree's logical Stats; a later run at a budget >= M reuses such
// a front bit for bit, skipping that subtree's pre-pass walk and DP. A
// model's first run with a parameter set only counts the run, so a model
// evaluated once keeps nothing alive.
#pragma once

#include <algorithm>
#include <unordered_map>

#include "accel/model.h"
#include "select/frontier.h"
#include "select/pareto.h"
#include "support/cancellation.h"

namespace cayman::select {

/// Which DP engine runs Algorithm 1. Both produce bit-identical fronts (a
/// property the differential tests pin over all 28 workloads); Frontier is
/// strictly faster.
enum class SelectMode {
  /// Frontier-compressed DP (default): scalar cost records with O(1)
  /// merges, arena-backed reconstruction, sorted-front combine with early
  /// budget break-out. See select/frontier.h.
  Frontier,
  /// The original Solution-copying DP, kept in-tree as the differential
  /// oracle (the same role oracles::ReferenceInterpreter plays for the
  /// interpreter). Tests and perfbench select it through
  /// FrameworkOptions::selectMode; the CLI always runs Frontier.
  Reference,
};

struct SelectorParams {
  /// Knapsack area limit (um^2). Table II uses 25% / 65% of a CVA6 tile.
  double areaBudgetUm2 = 0.0;
  /// Filter ratio α: neighbouring kept solutions differ in area by > α.
  double alpha = 1.12;
  /// Prune regions whose profiled share of T_all is below this fraction.
  double pruneHotFraction = 5e-4;
  /// Accelerator clock period over CPU clock period (Eq. 1's 1/F in CPU
  /// cycle units). 1.25 = 500 MHz accelerators beside a 625 MHz CVA6 on the
  /// same 45nm node.
  double clockRatio = 1.25;
  /// DP engine; Reference exists for differential testing and debugging.
  SelectMode mode = SelectMode::Frontier;
  /// Optional cooperative cancellation: the DP polls this once per region
  /// visit and aborts with support::CancelledError when expired. Must
  /// outlive the selector run; nullptr disables the checks.
  const support::CancelToken* cancel = nullptr;
};

class CandidateSelector {
 public:
  CandidateSelector(const accel::AcceleratorModel& model,
                    SelectorParams params)
      : model_(model), params_(params) {}

  struct Stats {
    int regionsVisited = 0;
    int regionsPruned = 0;
    int configsGenerated = 0;
    /// ⊗ pairs admitted under the area budget across all combines.
    uint64_t combinePairs = 0;
    /// Single-config solutions created (arena leaves in frontier mode).
    uint64_t singleConfigSolutions = 0;
    /// Largest post-filter front either DP path carried.
    size_t frontPeak = 0;
    /// Stored subtree fronts this run reused (select.fronts_reused). The
    /// only field that depends on what earlier runs stored; every other
    /// field counts a reused subtree's work as if it ran, so it is a pure
    /// function of the model and the params.
    uint64_t frontsReused = 0;

    /// Reconstruction-arena size the run implies: one node per leaf plus
    /// one per admitted merge. Counted identically in both modes so
    /// exported metrics stay byte-identical across SelectMode.
    uint64_t arenaNodes() const { return singleConfigSolutions + combinePairs; }

    /// Folds another run's or subtree's counts in: counters add, frontPeak
    /// takes the max. A reused subtree adds its stored Stats this way, so a
    /// field added above must be folded here too.
    Stats& operator+=(const Stats& other) {
      regionsVisited += other.regionsVisited;
      regionsPruned += other.regionsPruned;
      configsGenerated += other.configsGenerated;
      combinePairs += other.combinePairs;
      singleConfigSolutions += other.singleConfigSolutions;
      frontPeak = std::max(frontPeak, other.frontPeak);
      frontsReused += other.frontsReused;
      return *this;
    }
  };

  /// Runs Algorithm 1 and returns F[root]: the Pareto-optimal solution
  /// sequence under the area budget, ascending in area. Stats accumulate
  /// into the caller-owned `stats`, so one selector can run concurrently
  /// from several threads: the const runs share only the model's generate
  /// cache and its subtree-front memo, both lock-guarded on the model.
  std::vector<Solution> select(Stats& stats) const;

  /// The single best solution under the budget: the first entry of F[root]
  /// whose saved cycles strictly exceed 0.0 and every earlier entry's, or
  /// the empty solution when none saves a cycle. Same DP, span and counters
  /// as select(), but the Frontier engine materializes only that entry.
  Solution best(Stats& stats) const;

  /// Convenience wrappers recording into the selector-owned stats block.
  /// Single-threaded use only; `stats()` reads back the last run.
  std::vector<Solution> select() { return select(stats_); }
  Solution best() { return best(stats_); }
  const Stats& stats() const { return stats_; }

  const SelectorParams& params() const { return params_; }

 private:
  /// Candidate lists the DP consumes, keyed by region. Lookup-only (never
  /// iterated), so the pointer keys cannot leak into output ordering.
  using CandidateLists =
      std::unordered_map<const analysis::Region*,
                         const std::vector<accel::AcceleratorConfig>*>;

  // Defined in selector.cpp: the logical cost of one DP subtree, a stored
  // cut-free subtree front, one parameter set's stored fronts, the memo
  // holding every set in the model's slot, and one Frontier run's DP state.
  struct Tally;
  struct StoredFront;
  struct FrontSet;
  struct FrontMemo;
  struct Dp;
  /// Stored fronts the DP splices in place of their subtree, keyed by
  /// region (lookup-only, like CandidateLists).
  using ReuseMap =
      std::unordered_map<const analysis::Region*, const StoredFront*>;

  /// True when the DP prunes this region's subtree (the hotspot heuristic).
  bool prunes(const analysis::Region* region) const;

  /// Counts this run on the model's memo and returns the parameter set's
  /// stored fronts, or nullptr on the model's first run with these params:
  /// that run looks up and stores nothing.
  FrontSet* countRun() const;

  /// Pre-pass mirroring the DP traversal: records, in the DP's exact query
  /// order, every region the DP will ask candidates for, then batch-
  /// generates them through model_.generateAll() — the same per-region call
  /// pattern the DP makes, except cold regions fan out on the model's
  /// worker pool when one is configured. With `fronts`, a subtree whose
  /// stored front is reusable at this budget is entered into `reuse`
  /// instead of walked. Runs outside the select.dp span: generation is
  /// memoized, budget-independent model work, and attributing its first
  /// (cold) computation to the DP span hid what the DP itself costs.
  void collectCandidates(const FrontSet* fronts, CandidateLists& lists,
                         ReuseMap& reuse) const;
  /// The recursive walk behind collectCandidates: emits the DP-queried
  /// regions post-order into `order` (Bb leaves as encountered, ctrl-flow
  /// regions after their children).
  void collectRegions(const analysis::Region* region, const FrontSet* fronts,
                      std::vector<const analysis::Region*>& order,
                      ReuseMap& reuse) const;

  /// Looks up a pre-collected candidate list; the pre-pass mirrors the DP
  /// traversal exactly, so a miss is a traversal bug, not a data condition.
  static const std::vector<accel::AcceleratorConfig>& candidatesFor(
      const CandidateLists& lists, const analysis::Region* region);

  /// Algorithm 1 from the root, shared by select() and best(): resets
  /// `stats`, runs the pre-pass, then the DP inside the select.dp span, and
  /// emits the select.* counters. Returns the whole root front, or — with
  /// `bestOnly` — just best()'s winner (empty when nothing saves a cycle).
  std::vector<Solution> run(Stats& stats, bool bestOnly) const;

  std::vector<Solution> dpReference(const analysis::Region* region,
                                    const CandidateLists& lists,
                                    Stats& stats) const;
  /// Frontier DP over one subtree: splices in its stored front when the
  /// pre-pass marked it reusable, otherwise computes the front (queueing it
  /// for storage on a storing run when the region is not a Bb leaf and no
  /// budget comparison cut anything). Adds the subtree's Tally into `parent`.
  std::vector<FrontierEntry> dpFrontier(const analysis::Region* region,
                                        Dp& dp, Tally& parent) const;

  const accel::AcceleratorModel& model_;
  SelectorParams params_;
  Stats stats_;
};

}  // namespace cayman::select
