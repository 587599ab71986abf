#include "select/selector.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "support/error.h"
#include "support/trace.h"

namespace cayman::select {

using analysis::Region;
using analysis::RegionKind;

namespace {

/// Peak-front bookkeeping, fired after every α-filter in both DP paths (the
/// same program points, so the stat is mode-independent).
void notePeak(CandidateSelector::Stats& stats, size_t frontSize) {
  if (frontSize > stats.frontPeak) stats.frontPeak = frontSize;
}

/// best()'s choice rule: the first element whose saved cycles strictly
/// exceed 0.0 and every earlier element's. Shrinks `front` to that element,
/// or empties it when no element saves a cycle.
template <typename T, typename SavedFn>
void keepWinner(std::vector<T>& front, SavedFn saved) {
  size_t winner = front.size();
  double bestSaved = 0.0;
  for (size_t i = 0; i < front.size(); ++i) {
    double s = saved(front[i]);
    if (s > bestSaved) {
      bestSaved = s;
      winner = i;
    }
  }
  if (winner == front.size()) {
    front.clear();
    return;
  }
  std::swap(front.front(), front[winner]);
  front.resize(1);
}

}  // namespace

/// What one DP subtree adds up to: its logical Stats (frontPeak is the
/// subtree's own peak; frontsReused stays 0), the entries its Pareto and α
/// filters dropped, and its budget comparisons: maxArea, the largest area
/// compared against the budget, and whether any comparison cut something.
struct CandidateSelector::Tally {
  Stats stats;
  uint64_t paretoDropped = 0;
  uint64_t alphaDropped = 0;
  double maxArea = 0.0;
  bool cut = false;

  void add(const Tally& other) {
    stats += other.stats;
    paretoDropped += other.paretoDropped;
    alphaDropped += other.alphaDropped;
    maxArea = std::max(maxArea, other.maxArea);
    cut = cut || other.cut;
  }

  /// One config-area filter: records the comparison, true when it fits.
  bool fits(double area, double budget) {
    maxArea = std::max(maxArea, area);
    if (area > budget) {
      cut = true;
      return false;
    }
    return true;
  }

  /// Books one combine(a, b) that admitted `pairs` pairs and kept `kept`.
  /// With no pair cut, its largest compared sum is a.back() + b.back():
  /// both fronts ascend in area and floating-point addition is monotone.
  void combined(const std::vector<FrontierEntry>& a,
                const std::vector<FrontierEntry>& b, uint64_t pairs,
                size_t kept) {
    stats.combinePairs += pairs;
    paretoDropped += pairs - kept;
    if (pairs < a.size() * b.size()) {
      cut = true;
    } else if (!a.empty() && !b.empty()) {
      maxArea = std::max(maxArea, a.back().areaUm2 + b.back().areaUm2);
    }
  }

  /// pareto() then filter(), counting the drops.
  std::vector<FrontierEntry> paretoFilter(std::vector<FrontierEntry> entries,
                                          double alpha) {
    const size_t total = entries.size();
    entries = pareto(std::move(entries));
    paretoDropped += total - entries.size();
    return filter(std::move(entries), alpha);
  }

  /// filterByAlpha(), counting the drops and the peak front.
  std::vector<FrontierEntry> filter(std::vector<FrontierEntry> entries,
                                    double alpha) {
    const size_t total = entries.size();
    entries = filterByAlpha(std::move(entries), alpha);
    alphaDropped += total - entries.size();
    notePeak(stats, entries.size());
    return entries;
  }
};

/// A cut-free subtree front, the same at every budget >= tally.maxArea. It
/// keeps the arena of the run that stored it (shared by every front that
/// run stored); its subtree's nodes are that arena's range [begin, end),
/// everything the subtree's DP allocated, kept or dropped.
struct CandidateSelector::StoredFront {
  std::vector<FrontierEntry> front;  ///< node ids index `arena`
  std::shared_ptr<const SolutionArena> arena;
  int32_t begin = 0;
  int32_t end = 0;
  Tally tally;
};

/// One (α, prune fraction, clock ratio) set: the runs made with it and the
/// fronts stored for it, at most one per region (any two cut-free fronts of
/// a region are identical). Written and read only under the memo's lock;
/// stored fronts are immutable and live as long as the model.
struct CandidateSelector::FrontSet {
  double alpha = 0.0;
  double pruneHotFraction = 0.0;
  double clockRatio = 0.0;
  uint64_t runs = 0;
  std::unordered_map<const Region*, std::unique_ptr<const StoredFront>>
      fronts;
};

struct CandidateSelector::FrontMemo : accel::AcceleratorModel::SelectorMemo {
  std::vector<std::unique_ptr<FrontSet>> sets;
};

/// One Frontier run's DP state.
struct CandidateSelector::Dp {
  Dp(const CandidateLists& lists, const ReuseMap& reuse, bool storing)
      : lists(lists), reuse(reuse), storing(storing) {}

  const CandidateLists& lists;
  const ReuseMap& reuse;
  /// Not the model's first run with these params: store cut-free fronts.
  const bool storing;
  SolutionArena arena;
  uint64_t frontsReused = 0;
  /// Arena nodes the reused subtrees stand for, and the nodes splicing
  /// their stored arenas in actually built.
  uint64_t reusedNodes = 0;
  uint64_t splicedNodes = 0;
  /// Cut-free fronts to store, their `arena` still unset. Stored only after
  /// the whole DP finished, so a cancelled run stores nothing.
  std::vector<std::pair<const Region*, std::unique_ptr<StoredFront>>> pending;

  std::vector<FrontierEntry> splice(const StoredFront& stored,
                                    Tally& parent) {
    const int32_t offset =
        arena.splice(*stored.arena, stored.begin, stored.end);
    std::vector<FrontierEntry> front = stored.front;
    for (FrontierEntry& entry : front) {
      if (!entry.empty()) entry.node += offset;
    }
    parent.add(stored.tally);
    ++frontsReused;
    reusedNodes += stored.tally.stats.arenaNodes();
    splicedNodes += static_cast<uint64_t>(stored.end - stored.begin);
    return front;
  }

  /// Hands the run's arena to every pending front.
  void shareArena() {
    auto shared = std::make_shared<const SolutionArena>(std::move(arena));
    for (auto& entry : pending) entry.second->arena = shared;
  }
};

CandidateSelector::FrontSet* CandidateSelector::countRun() const {
  return model_.withSelectorMemo(
      [this](std::unique_ptr<accel::AcceleratorModel::SelectorMemo>& slot) {
        if (slot == nullptr) slot = std::make_unique<FrontMemo>();
        auto& memo = static_cast<FrontMemo&>(*slot);
        FrontSet* set = nullptr;
        for (const std::unique_ptr<FrontSet>& candidate : memo.sets) {
          if (candidate->alpha == params_.alpha &&
              candidate->pruneHotFraction == params_.pruneHotFraction &&
              candidate->clockRatio == params_.clockRatio) {
            set = candidate.get();
            break;
          }
        }
        if (set == nullptr) {
          memo.sets.push_back(std::make_unique<FrontSet>());
          set = memo.sets.back().get();
          set->alpha = params_.alpha;
          set->pruneHotFraction = params_.pruneHotFraction;
          set->clockRatio = params_.clockRatio;
        }
        return set->runs++ == 0 ? nullptr : set;
      });
}

const std::vector<accel::AcceleratorConfig>& CandidateSelector::candidatesFor(
    const CandidateLists& lists, const Region* region) {
  auto it = lists.find(region);
  CAYMAN_ASSERT(it != lists.end(),
                "selector pre-pass missed a region the DP queries");
  return *it->second;
}

bool CandidateSelector::prunes(const Region* region) const {
  // prune(v, R): regions that are not hotspots cannot pay for themselves —
  // skip the whole subtree (their descendants are at most as hot). Root and
  // Function vertices are structural and never pruned.
  return (region->isBb() || region->isCtrlFlow()) &&
         model_.profile().hotFraction(region) < params_.pruneHotFraction;
}

void CandidateSelector::collectRegions(const Region* region,
                                       const FrontSet* fronts,
                                       std::vector<const Region*>& order,
                                       ReuseMap& reuse) const {
  if (params_.cancel != nullptr) {
    params_.cancel->check(support::Stage::Select, region->label());
  }
  if (prunes(region)) return;
  if (fronts != nullptr) {
    auto it = fronts->fronts.find(region);
    if (it != fronts->fronts.end() &&
        it->second->tally.maxArea <= params_.areaBudgetUm2) {
      reuse.emplace(region, it->second.get());
      return;
    }
  }
  if (region->kind() == RegionKind::Bb) {
    order.push_back(region);
    return;
  }
  for (const auto& child : region->children()) {
    collectRegions(child.get(), fronts, order, reuse);
  }
  if (region->isCtrlFlow()) order.push_back(region);
}

void CandidateSelector::collectCandidates(const FrontSet* fronts,
                                          CandidateLists& lists,
                                          ReuseMap& reuse) const {
  std::vector<const Region*> order;
  const Region* root = model_.wpst().root();
  if (fronts == nullptr) {
    collectRegions(root, nullptr, order, reuse);
  } else {
    // Concurrent runs store into the same set: look up under its lock.
    model_.withSelectorMemo([&](auto&) {
      collectRegions(root, fronts, order, reuse);
    });
  }
  std::vector<const std::vector<accel::AcceleratorConfig>*> generated =
      model_.generateAll(order);
  lists.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    lists.emplace(order[i], generated[i]);
  }
}

std::vector<Solution> CandidateSelector::dpReference(
    const Region* region, const CandidateLists& lists, Stats& stats) const {
  ++stats.regionsVisited;
  if (params_.cancel != nullptr) {
    params_.cancel->check(support::Stage::Select, region->label());
  }

  if (prunes(region)) {
    ++stats.regionsPruned;
    return {Solution{}};
  }

  std::vector<Solution> front{Solution{}};

  if (region->kind() == RegionKind::Bb) {
    std::vector<Solution> options{Solution{}};
    for (const accel::AcceleratorConfig& config :
         candidatesFor(lists, region)) {
      ++stats.configsGenerated;
      if (config.areaUm2 > params_.areaBudgetUm2) continue;
      ++stats.singleConfigSolutions;
      options.push_back(Solution::fromConfig(config));
    }
    front = filterByAlpha(pareto(std::move(options), params_.clockRatio),
                          params_.alpha);
    notePeak(stats, front.size());
    return front;
  }

  // Combine children subtrees (⊗ over siblings).
  for (const auto& child : region->children()) {
    std::vector<Solution> childFront = dpReference(child.get(), lists, stats);
    front = filterByAlpha(
        combine(front, childFront, params_.areaBudgetUm2, params_.clockRatio,
                &stats.combinePairs),
        params_.alpha);
    notePeak(stats, front.size());
  }

  // ctrl-flow regions may alternatively be selected whole.
  if (region->isCtrlFlow()) {
    for (const accel::AcceleratorConfig& config :
         candidatesFor(lists, region)) {
      ++stats.configsGenerated;
      if (config.areaUm2 > params_.areaBudgetUm2) continue;
      ++stats.singleConfigSolutions;
      front.push_back(Solution::fromConfig(config));
    }
    front = filterByAlpha(pareto(std::move(front), params_.clockRatio),
                          params_.alpha);
    notePeak(stats, front.size());
  }
  return front;
}

std::vector<FrontierEntry> CandidateSelector::dpFrontier(
    const Region* region, Dp& dp, Tally& parent) const {
  if (!dp.reuse.empty()) {
    auto it = dp.reuse.find(region);
    if (it != dp.reuse.end()) return dp.splice(*it->second, parent);
  }
  const size_t arenaStart = dp.arena.nodeCount();
  Tally tally;
  ++tally.stats.regionsVisited;
  if (params_.cancel != nullptr) {
    params_.cancel->check(support::Stage::Select, region->label());
  }

  if (prunes(region)) {
    ++tally.stats.regionsPruned;
    parent.add(tally);
    return {FrontierEntry{}};
  }

  auto addConfigs = [&](std::vector<FrontierEntry>& front) {
    for (const accel::AcceleratorConfig& config :
         candidatesFor(dp.lists, region)) {
      ++tally.stats.configsGenerated;
      if (!tally.fits(config.areaUm2, params_.areaBudgetUm2)) continue;
      ++tally.stats.singleConfigSolutions;
      front.push_back(entryFromConfig(config, params_.clockRatio, dp.arena));
    }
  };

  std::vector<FrontierEntry> front{FrontierEntry{}};
  if (region->kind() == RegionKind::Bb) {
    addConfigs(front);
    front = tally.paretoFilter(std::move(front), params_.alpha);
  } else {
    for (const auto& child : region->children()) {
      std::vector<FrontierEntry> childFront =
          dpFrontier(child.get(), dp, tally);
      uint64_t pairs = 0;
      std::vector<FrontierEntry> merged =
          combine(front, childFront, params_.areaBudgetUm2,
                  params_.clockRatio, dp.arena, &pairs);
      tally.combined(front, childFront, pairs, merged.size());
      front = tally.filter(std::move(merged), params_.alpha);
    }
    if (region->isCtrlFlow()) {
      addConfigs(front);
      front = tally.paretoFilter(std::move(front), params_.alpha);
    }
  }
  // A Bb leaf's front is rebuilt from its candidate list about as fast as
  // a stored copy is spliced in, so leaves are not stored.
  if (dp.storing && !tally.cut && region->kind() != RegionKind::Bb) {
    dp.pending.emplace_back(
        region, std::make_unique<StoredFront>(StoredFront{
                    front, nullptr, static_cast<int32_t>(arenaStart),
                    static_cast<int32_t>(dp.arena.nodeCount()), tally}));
  }
  parent.add(tally);
  return front;
}

std::vector<Solution> CandidateSelector::run(Stats& stats,
                                             bool bestOnly) const {
  stats = Stats{};
  // Candidate generation first, outside the span: it is memoized model work
  // shared by every budget sweep and both DP engines, and folding its cold
  // first computation into select.dp made the DP look ~5x more expensive
  // than it is. No new span is opened for it, so the deterministic trace
  // event stream is unchanged.
  //
  // The Reference engine, the differential oracle, never touches the
  // subtree-front memo.
  const bool reference = params_.mode == SelectMode::Reference;
  FrontSet* fronts = reference ? nullptr : countRun();
  CandidateLists lists;
  ReuseMap reuse;
  collectCandidates(fronts, lists, reuse);
  support::trace::Span span("select.dp", "select");
  std::vector<Solution> front;
  Tally total;
  if (reference) {
    front = dpReference(model_.wpst().root(), lists, stats);
    if (bestOnly) {
      keepWinner(front, [this](const Solution& s) {
        return s.savedCycles(params_.clockRatio);
      });
    }
  } else {
    Dp dp(lists, reuse, /*storing=*/fronts != nullptr);
    std::vector<FrontierEntry> entries =
        dpFrontier(model_.wpst().root(), dp, total);
    stats = total.stats;
    stats.frontsReused = dp.frontsReused;
    assert(dp.arena.nodeCount() ==
               stats.arenaNodes() - dp.reusedNodes + dp.splicedNodes &&
           "arena grew out of step with the leaf/pair counters");
    // Decide on the scalar records, then deep-copy only what is kept.
    if (bestOnly) {
      keepWinner(entries,
                 [](const FrontierEntry& e) { return e.savedCycles; });
    }
    front.reserve(entries.size());
    for (const FrontierEntry& entry : entries) {
      front.push_back(materialize(entry, dp.arena));
    }
    // Last, as it hands the run's arena over to the stored fronts.
    if (!dp.pending.empty()) {
      dp.shareArena();
      model_.withSelectorMemo([&](auto&) {
        for (auto& [region, stored] : dp.pending) {
          fronts->fronts.try_emplace(region, std::move(stored));
        }
      });
    }
  }
  if (support::trace::on()) {
    support::trace::count("select.regions_visited",
                          static_cast<uint64_t>(stats.regionsVisited));
    support::trace::count("select.regions_pruned",
                          static_cast<uint64_t>(stats.regionsPruned));
    support::trace::count("select.configs_generated",
                          static_cast<uint64_t>(stats.configsGenerated));
    support::trace::count("select.combine_pairs", stats.combinePairs);
    support::trace::count("select.front_peak",
                          static_cast<uint64_t>(stats.frontPeak));
    support::trace::count("select.arena_nodes", stats.arenaNodes());
    // The Reference engine's filters count their own drops as they run.
    if (total.paretoDropped > 0) {
      support::trace::count("select.pareto_dropped", total.paretoDropped);
    }
    if (total.alphaDropped > 0) {
      support::trace::count("select.alpha_dropped", total.alphaDropped);
    }
    if (stats.frontsReused > 0) {
      support::trace::count("select.fronts_reused", stats.frontsReused);
    }
  }
  return front;
}

std::vector<Solution> CandidateSelector::select(Stats& stats) const {
  return run(stats, /*bestOnly=*/false);
}

Solution CandidateSelector::best(Stats& stats) const {
  std::vector<Solution> winner = run(stats, /*bestOnly=*/true);
  return winner.empty() ? Solution{} : std::move(winner.front());
}

}  // namespace cayman::select
