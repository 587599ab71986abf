#include "select/frontier.h"

#include <algorithm>
#include <cassert>

#include "select/pareto.h"

namespace cayman::select {

namespace {

#ifndef NDEBUG
/// Debug postcondition of pareto(): strictly area-ascending with strictly
/// increasing saved cycles. combine()'s early budget break-out and the
/// α-filter's spacing rule both depend on it.
bool isStrictFront(const std::vector<FrontierEntry>& front) {
  for (size_t i = 1; i < front.size(); ++i) {
    if (!(front[i - 1].areaUm2 < front[i].areaUm2)) return false;
    if (!(front[i - 1].savedCycles < front[i].savedCycles)) return false;
  }
  return true;
}
#endif

}  // namespace

int32_t SolutionArena::leaf(const accel::AcceleratorConfig* config) {
  int32_t id = static_cast<int32_t>(nodes_.size());
  Node node;
  node.configId = static_cast<int32_t>(configs_.size());
  configs_.push_back(config);
  nodes_.push_back(node);
  return id;
}

int32_t SolutionArena::merge(int32_t left, int32_t right) {
  int32_t id = static_cast<int32_t>(nodes_.size());
  Node node;
  node.left = left;
  node.right = right;
  nodes_.push_back(node);
  return id;
}

int32_t SolutionArena::splice(const SolutionArena& other, int32_t begin,
                              int32_t end) {
  const int32_t offset = static_cast<int32_t>(nodes_.size()) - begin;
  auto shift = [offset](int32_t id) {
    return id == kEmptyNode ? kEmptyNode : id + offset;
  };
  nodes_.reserve(nodes_.size() + static_cast<size_t>(end - begin));
  for (int32_t id = begin; id < end; ++id) {
    const Node& n = other.nodes_[static_cast<size_t>(id)];
    Node copy;
    if (n.configId >= 0) {
      copy.configId = static_cast<int32_t>(configs_.size());
      configs_.push_back(other.configs_[static_cast<size_t>(n.configId)]);
    } else {
      // Operands precede the node naming them, so only `begin` can be
      // crossed.
      assert((n.left == kEmptyNode || n.left >= begin) &&
             (n.right == kEmptyNode || n.right >= begin) &&
             "splice() range names an operand before it");
      copy.left = shift(n.left);
      copy.right = shift(n.right);
    }
    nodes_.push_back(copy);
  }
  return offset;
}

void SolutionArena::appendConfigs(
    int32_t node, std::vector<accel::AcceleratorConfig>& out) const {
  // Iterative in-order walk (left pushed last so it pops first): leaves
  // stream out in exactly Solution::merge's concatenation order.
  std::vector<int32_t> stack;
  stack.push_back(node);
  while (!stack.empty()) {
    int32_t current = stack.back();
    stack.pop_back();
    if (current == kEmptyNode) continue;
    const Node& n = nodes_[static_cast<size_t>(current)];
    if (n.configId >= 0) {
      out.push_back(*configs_[static_cast<size_t>(n.configId)]);
      continue;
    }
    stack.push_back(n.right);
    stack.push_back(n.left);
  }
}

FrontierEntry entryFromConfig(const accel::AcceleratorConfig& config,
                              double clockRatio, SolutionArena& arena) {
  FrontierEntry entry;
  entry.areaUm2 = config.areaUm2;
  entry.accelCycles = config.cycles;
  entry.cpuCycles = config.cpuCycles;
  entry.savedCycles = entry.cpuCycles - entry.accelCycles * clockRatio;
  entry.node = arena.leaf(&config);
  return entry;
}

FrontierEntry mergeEntries(const FrontierEntry& x, const FrontierEntry& y,
                           double clockRatio, SolutionArena& arena) {
  FrontierEntry merged;
  merged.areaUm2 = x.areaUm2 + y.areaUm2;
  merged.accelCycles = x.accelCycles + y.accelCycles;
  merged.cpuCycles = x.cpuCycles + y.cpuCycles;
  // Recomputed from the sums — never x.savedCycles + y.savedCycles, whose
  // rounding could differ from what the reference comparator sees.
  merged.savedCycles = merged.cpuCycles - merged.accelCycles * clockRatio;
  merged.node = arena.merge(x.node, y.node);
  return merged;
}

std::vector<FrontierEntry> pareto(std::vector<FrontierEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const FrontierEntry& a, const FrontierEntry& b) {
              if (a.areaUm2 != b.areaUm2) return a.areaUm2 < b.areaUm2;
              return a.savedCycles > b.savedCycles;
            });
  // Compact the survivors to the front of the sorted input: slot `kept` is
  // never ahead of the entry being read, so no survivor is overwritten.
  const size_t total = entries.size();
  size_t kept = 0;
  double bestSaved = -1e300;
  for (size_t i = 0; i < total; ++i) {
    const FrontierEntry entry = entries[i];
    bool keep = entry.empty() ? kept == 0 : entry.savedCycles > bestSaved;
    if (!keep) continue;
    bestSaved = std::max(bestSaved, entry.savedCycles);
    entries[kept++] = entry;
  }
  entries.resize(kept);
  assert(isStrictFront(entries) && "pareto() front not strictly monotone");
  return entries;
}

std::vector<FrontierEntry> filterByAlpha(std::vector<FrontierEntry> entries,
                                         double alpha) {
  if (entries.size() <= 2 || alpha <= 1.0) return entries;
  // In-place compaction, as in pareto(): the first and last entries always
  // survive, interior ones only past α times the last kept area.
  const size_t total = entries.size();
  size_t kept = 1;
  for (size_t i = 1; i + 1 < total; ++i) {
    double previousArea = entries[kept - 1].areaUm2;
    if (entries[i].areaUm2 > alpha * std::max(previousArea, 1.0)) {
      entries[kept++] = entries[i];
    }
  }
  entries[kept++] = entries[total - 1];
  entries.resize(kept);
  return entries;
}

std::vector<FrontierEntry> combine(const std::vector<FrontierEntry>& a,
                                   const std::vector<FrontierEntry>& b,
                                   double areaBudget, double clockRatio,
                                   SolutionArena& arena,
                                   uint64_t* pairsAdmitted) {
  assert(isStrictFront(a) && isStrictFront(b) &&
         "combine() requires area-sorted fronts for the early break");
  std::vector<FrontierEntry> merged;
  merged.reserve(std::min(a.size() * b.size(), kCombineReserveCap));
  for (const FrontierEntry& x : a) {
    for (const FrontierEntry& y : b) {
      // b ascends in area, so every later y is at least as large: the whole
      // remaining row is over budget (floating-point addition is monotone).
      if (x.areaUm2 + y.areaUm2 > areaBudget) break;
      merged.push_back(mergeEntries(x, y, clockRatio, arena));
    }
  }
  if (pairsAdmitted != nullptr) *pairsAdmitted += merged.size();
  return pareto(std::move(merged));
}

Solution materialize(const FrontierEntry& entry, const SolutionArena& arena) {
  Solution solution;
  arena.appendConfigs(entry.node, solution.accelerators);
  solution.areaUm2 = entry.areaUm2;
  solution.accelCycles = entry.accelCycles;
  solution.cpuCycles = entry.cpuCycles;
  return solution;
}

}  // namespace cayman::select
