// Frontier-compressed DP representation: the fast path of Algorithm 1.
//
// The reference DP carries full Solution objects through every ⊗ combine:
// each admitted pair deep-copies two AcceleratorConfig vectors (each config
// itself owning a LoopConfig vector and an interface map) only for pareto()
// to throw most of the merged results away, so allocation churn dominates
// select.dp. The frontier path replaces the in-flight representation with a
// trivially-copyable scalar record — (area, accelerator cycles, CPU cycles)
// plus the cached saved-cycles value — and a node reference into a
// per-selection arena. Merging two records is O(1): sum the scalars and
// allocate one 12-byte arena node pointing at the operands' nodes. pareto()
// and filterByAlpha() compact the vector they are handed in place, so each ⊗
// combine allocates one vector. Full AcceleratorConfig lists are
// materialized only for the root-front entries the caller keeps — the whole
// front for select(), the single winning entry for best(), chosen on the
// scalar records — by an in-order walk of the arena (left subtree before
// right), which reproduces exactly Solution::merge's concatenation order.
// Reconstruction iterates arena nodes in allocation order — never
// pointer-keyed maps — so it is deterministic across runs and jobs counts.
//
// Bit-exactness contract with SelectMode::Reference: every scalar is
// accumulated through the same additions in the same order as
// Solution::merge, and savedCycles is always recomputed from the summed
// cycle counts (never summed incrementally), so fronts, filters and final
// solutions are bit-identical to the reference DP.
#pragma once

#include <cstdint>
#include <vector>

#include "select/solution.h"

namespace cayman::select {

/// Arena node id of the empty solution (no accelerators).
constexpr int32_t kEmptyNode = -1;

/// One in-flight DP solution: the cost triple plus its reconstruction
/// handle. Trivially copyable; no allocation on copy or merge.
struct FrontierEntry {
  double areaUm2 = 0.0;
  double accelCycles = 0.0;
  double cpuCycles = 0.0;
  /// Cached Solution::savedCycles(clockRatio) of the sums above, refreshed
  /// after every accumulation so comparators stop recomputing it.
  double savedCycles = 0.0;
  int32_t node = kEmptyNode;

  bool empty() const { return node == kEmptyNode; }
};

/// Per-selection reconstruction arena: a DAG of cons cells. A leaf names
/// one AcceleratorConfig; a merge node concatenates its left operand's
/// configs before its right operand's. Nodes are append-only, so entries
/// can share subtrees freely (persistence) and dropped Pareto points cost
/// nothing beyond their node.
class SolutionArena {
 public:
  /// Registers a single-config solution. The pointer must stay valid for
  /// the arena's lifetime; configs handed out by AcceleratorModel::generate
  /// live as long as the model, which outlives any selection.
  int32_t leaf(const accel::AcceleratorConfig* config);

  /// O(1) concatenation: left's configs materialize before right's (the
  /// order Solution::merge produces). Either side may be kEmptyNode.
  int32_t merge(int32_t left, int32_t right);

  size_t nodeCount() const { return nodes_.size(); }

  /// Appends the configs reachable from `node` in program order.
  void appendConfigs(int32_t node,
                     std::vector<accel::AcceleratorConfig>& out) const;

 private:
  struct Node {
    int32_t configId = -1;  ///< >= 0: leaf; children unused
    int32_t left = kEmptyNode;
    int32_t right = kEmptyNode;
  };
  std::vector<Node> nodes_;
  std::vector<const accel::AcceleratorConfig*> configs_;
};

/// Solution::fromConfig, frontier flavor: one leaf node plus the config's
/// cost triple.
FrontierEntry entryFromConfig(const accel::AcceleratorConfig& config,
                              double clockRatio, SolutionArena& arena);

/// Solution::merge, frontier flavor: O(1), allocates exactly one node.
FrontierEntry mergeEntries(const FrontierEntry& x, const FrontierEntry& y,
                           double clockRatio, SolutionArena& arena);

/// pareto() over frontier entries — same algorithm, comparator semantics
/// and trace counter as the Solution overload, minus the per-comparison
/// savedCycles recomputation (it is cached in the entry). Compacts and
/// returns `entries` itself rather than building a second vector.
std::vector<FrontierEntry> pareto(std::vector<FrontierEntry> entries);

/// filterByAlpha() over frontier entries — same algorithm and trace counter
/// as the Solution overload; compacts `entries` in place like pareto().
std::vector<FrontierEntry> filterByAlpha(std::vector<FrontierEntry> entries,
                                         double alpha);

/// The ⊗ operation over two area-ascending fronts with early budget
/// break-out: because `b` ascends in area, once x.area + y.area exceeds the
/// budget no later y can fit, so the inner loop stops instead of filtering
/// pair by pair. Admits exactly the pairs the reference combine admits, in
/// the same order. `pairsAdmitted`, when non-null, accumulates the number
/// of merged pairs created (the select.combine_pairs counter).
///
/// Precondition: both inputs ascend strictly in area — the pareto()
/// postcondition, checked in debug builds.
std::vector<FrontierEntry> combine(const std::vector<FrontierEntry>& a,
                                   const std::vector<FrontierEntry>& b,
                                   double areaBudget, double clockRatio,
                                   SolutionArena& arena,
                                   uint64_t* pairsAdmitted = nullptr);

/// Expands one surviving entry into a full Solution: configs from the arena
/// walk, cost triple from the entry's (bit-identical) accumulated sums.
Solution materialize(const FrontierEntry& entry, const SolutionArena& arena);

}  // namespace cayman::select
