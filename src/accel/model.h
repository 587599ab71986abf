// Cayman's accelerator model (paper §III-C): generates candidate
// configurations for a kernel region — control-flow optimization (unrolling,
// pipelining) plus per-access interface specialization — and estimates each
// configuration's cycle count and area without synthesizing full hardware.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "accel/config.h"
#include "analysis/roofline.h"
#include "hls/scheduler.h"
#include "sim/profiler.h"
#include "support/cancellation.h"

namespace cayman {
class ThreadPool;
}

namespace cayman::accel {

/// How generate() explores the per-region design space.
///
///   Reference — exhaustive enumeration: one config per unroll-ladder point
///     (the quality oracle; PR 5's SelectMode::Reference pattern).
///   Guided — roofline-directed: structurally identical ladder points are
///     deduped before estimation, memory-bound regions clamp the ladder at
///     the computed bandwidth-saturating factor, and compute-bound regions
///     stop walking once a step scores worse. Must reproduce Reference's
///     per-region Pareto fronts exactly (enforced by differential tests).
enum class GenerateMode {
  Guided,
  Reference,
};

struct ModelParams {
  /// Target clock (2 ns = the paper's 500 MHz).
  double clockNs = 2.0;
  /// Scratchpad threshold β: cache an access when its per-entry count is at
  /// least β times its footprint (paper §III-C).
  double beta = 4.0;
  /// Unroll factors explored for dependence-free innermost loops.
  std::vector<unsigned> unrollFactors = {1, 2, 4, 8, 16};
  /// Largest scratchpad buffer worth allocating (bytes).
  uint64_t maxScratchpadBytes = 1u << 15;
  /// Ablation switches (coupled-only Cayman in Fig. 6 disables the first
  /// two; the QsCores-like baseline additionally disables control-flow
  /// optimization).
  bool allowDecoupled = true;
  bool allowScratchpad = true;
  bool allowPipelining = true;
  bool allowUnrolling = true;
  /// Substituted trip count when neither SCEV nor the profile knows one.
  uint64_t unknownTripFallback = 16;
  /// Design-space exploration strategy for generate().
  GenerateMode generateMode = GenerateMode::Guided;
  /// Cooperative cancellation: polled between candidate estimations so a
  /// pathological region cannot overshoot a per-workload deadline. Not owned.
  const support::CancelToken* cancel = nullptr;
  /// Test hook: microseconds slept per generateUncached() call (deadline
  /// tests force slowness here the way CAYMAN_INJECT_FAULT forces failures).
  unsigned injectGenerateStallUs = 0;
  /// Worker pool for generateAll()'s region-level fan-out: cold generations
  /// of distinct regions run concurrently on it. Not owned; nullptr keeps
  /// generateAll serial. Scheduling only — results, counters, and traces are
  /// byte-identical at any worker count.
  ThreadPool* pool = nullptr;
};

/// Per-function analysis bundle the model consumes.
struct KernelAnalyses {
  KernelAnalyses(const ir::Function& function,
                 const analysis::FunctionAnalyses& fa)
      : scev(function, fa), mem(function, fa, scev) {}

  analysis::ScalarEvolution scev;
  analysis::MemoryAnalysis mem;
};

class AcceleratorModel {
 public:
  AcceleratorModel(const analysis::WPst& wpst, const sim::ProfileData& profile,
                   const hls::TechLibrary& tech, hls::InterfaceTiming timing,
                   ModelParams params = {});

  const ModelParams& params() const { return params_; }
  const hls::TechLibrary& tech() const { return tech_; }
  const hls::InterfaceTiming& timing() const { return scheduler_.timing(); }
  const analysis::WPst& wpst() const { return wpst_; }
  const sim::ProfileData& profile() const { return profile_; }

  /// accel(v, R): candidate configurations for one kernel region, cheapest
  /// first. Empty when the region is not a legal/profitable candidate.
  ///
  /// Memoized: the result is budget-independent (budget filtering happens in
  /// the selector), so repeated budget sweeps over one model reuse the cached
  /// list. Safe to call from concurrent selector runs; the returned reference
  /// stays valid for the model's lifetime.
  const std::vector<AcceleratorConfig>& generate(
      const analysis::Region* region) const;

  /// Batch generate(): one entry per input region, in input order (the
  /// pointed-to lists stay valid for the model's lifetime, exactly like
  /// generate()'s return). When params().pool is set, cold generations of
  /// distinct regions run concurrently on it; hits and all counter emission
  /// stay serial in input order, so the observable counter/trace stream is
  /// byte-identical to calling generate() on each region in sequence — at
  /// any worker count.
  ///
  /// Deadlock-free under concurrent calls: a generateAll never *blocks* on a
  /// region another thread is generating until it has finalized (or
  /// abandoned) every region it claimed itself, so claim-wait cycles cannot
  /// form.
  std::vector<const std::vector<AcceleratorConfig>*> generateAll(
      const std::vector<const analysis::Region*>& regions) const;

  /// Eagerly fills the generate cache for every candidate region of the
  /// wPST (through generateAll, so params().pool parallelizes the cold
  /// generations), leaving later concurrent explore() calls pure cache
  /// reads.
  void warmGenerateCache() const;

  /// Re-estimates (cycles, area, counters) for a fully-specified config.
  void estimate(AcceleratorConfig& config) const;

  /// Analyses for the function owning `region`.
  const KernelAnalyses& analysesFor(const ir::Function* function) const;

  /// Effective trip count of a loop (static, else profiled, else fallback).
  double tripCount(const analysis::Loop* loop) const;

  /// True when the loop region has the canonical pipelineable shape:
  /// innermost, straight-line single body block.
  bool isPipelineable(const analysis::Region* loopRegion) const;

  /// Roofline/bottleneck analysis backing GenerateMode::Guided (lazily
  /// built on first use; memoized per region).
  const analysis::RooflineAnalysis& roofline() const;

  /// Number of estimate() invocations on this model (both modes count at
  /// the same point: every scored candidate costs exactly one call).
  uint64_t estimateCalls() const {
    return estimateCalls_.load(std::memory_order_relaxed);
  }
  /// Number of candidate configs produced by generateUncached() across all
  /// regions (post-dedup, i.e. the lists the selector actually sees).
  uint64_t candidatesTotal() const {
    return candidatesTotal_.load(std::memory_order_relaxed);
  }
  /// scheduleBlock() invocations made on this model's scheduler.
  uint64_t scheduleBlockCalls() const { return scheduler_.blockCalls(); }

  /// Signature comparisons performed by the guided schedule cache's ordered
  /// lookups. Regression measure for the cache's container: the old
  /// linear-scan buckets cost O(entries) comparisons per lookup, the sorted
  /// map costs O(log entries) — tests pin the gap.
  uint64_t schedSignatureComparisons() const {
    return sigComparisons_.load(std::memory_order_relaxed);
  }

  /// Base of the selector's per-model memo of reusable subtree fronts. The
  /// model only owns and locks it (accel cannot name select's types); the
  /// selector defines the contents. Freed with the model.
  class SelectorMemo {
   public:
    SelectorMemo() = default;
    virtual ~SelectorMemo() = default;
    SelectorMemo(const SelectorMemo&) = delete;
    SelectorMemo& operator=(const SelectorMemo&) = delete;
  };
  /// Calls fn(slot) with the memo's lock held and returns its result.
  /// `slot` is empty until the selector's first run fills it.
  template <typename Fn>
  decltype(auto) withSelectorMemo(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(selectorMemoMutex_);
    return fn(selectorMemo_);
  }

 private:
  struct Estimate {
    double cycles = 0.0;  ///< whole-run cycles
    double area = 0.0;
    unsigned seqBlocks = 0;
    unsigned pipelined = 0;
  };

  std::vector<AcceleratorConfig> generateUncached(
      const analysis::Region* region) const;
  std::vector<AcceleratorConfig> generateReference(
      const analysis::Region* region) const;
  std::vector<AcceleratorConfig> generateGuided(
      const analysis::Region* region) const;
  /// The unroll-sensitive part of a config's estimated cycles: for every
  /// pipelined loop in `region`, entries * ((iterations-1)*II +
  /// reduction-tree cycles), computed from the scheduler's MII bounds
  /// exactly as estimateRegion() would. Used by the guided engine to admit
  /// ladder points without estimating them.
  double iiTreeTerm(const analysis::Region* region,
                    const std::vector<LoopConfig>& loops,
                    const hls::IfaceAssignment& ifaces) const;
  /// scheduleBlock with guided-mode memoization: identical
  /// (block, interface-restriction, width) requests are scheduled once.
  /// Reference mode calls the scheduler directly so its call counts reflect
  /// the full enumeration.
  hls::BlockSchedule scheduleBlockCached(const ir::BasicBlock& block,
                                         const hls::IfaceAssignment& ifaces,
                                         unsigned unroll) const;
  Estimate estimateRegion(const analysis::Region* region,
                          const AcceleratorConfig& config,
                          unsigned unrollContext) const;
  bool canUnroll(const analysis::Loop* loop, const KernelAnalyses& ka) const;
  bool isPromotable(const ir::Instruction* access, const analysis::Loop* loop,
                    const KernelAnalyses& ka) const;
  double interfaceArea(const AcceleratorConfig& config) const;
  double dmaCyclesPerEntry(const AcceleratorConfig& config) const;
  hls::IfaceAssignment assignInterfaces(
      const analysis::Region* region,
      const std::vector<LoopConfig>& loops) const;
  std::vector<LoopConfig> makeLoopConfigs(const analysis::Region* region,
                                          unsigned unroll,
                                          bool optimize) const;

  const analysis::WPst& wpst_;
  const sim::ProfileData& profile_;
  const hls::TechLibrary& tech_;
  hls::Scheduler scheduler_;
  ModelParams params_;
  std::map<const ir::Function*, std::unique_ptr<KernelAnalyses>> analyses_;
  mutable std::atomic<uint64_t> estimateCalls_{0};
  mutable std::atomic<uint64_t> candidatesTotal_{0};

  /// Lazily-built roofline analysis (guided mode only). Guarded by
  /// rooflineMutex_ for concurrent generate() callers.
  mutable std::mutex rooflineMutex_;
  mutable std::unique_ptr<analysis::RooflineAnalysis> roofline_;

  // --- Guided-mode schedule memoization ------------------------------------
  //
  // Striped by block pointer so concurrent cold generations of distinct
  // regions rarely contend, and each (block, width) bucket is a sorted map
  // keyed by the interface signature (AccessIface per memory access in
  // program order) — O(log n) signature comparisons per lookup where the old
  // linear bucket scan paid O(n).

  /// Signature order for the sorted buckets: lexicographic over AccessIface
  /// operator<. Stateful so every comparison is counted (the container-
  /// complexity regression measure behind schedSignatureComparisons()).
  struct SigLess {
    std::atomic<uint64_t>* comparisons = nullptr;
    bool operator()(const std::vector<hls::AccessIface>& a,
                    const std::vector<hls::AccessIface>& b) const {
      comparisons->fetch_add(1, std::memory_order_relaxed);
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    }
  };
  using SchedBucket =
      std::map<std::vector<hls::AccessIface>, hls::BlockSchedule, SigLess>;
  struct SchedStripe {
    std::mutex mutex;
    std::map<std::pair<const ir::BasicBlock*, unsigned>, SchedBucket> buckets;
  };
  static constexpr size_t kSchedStripes = 16;
  SchedStripe& stripeFor(const ir::BasicBlock* block) const;
  mutable std::array<SchedStripe, kSchedStripes> schedStripes_;
  mutable std::atomic<uint64_t> sigComparisons_{0};

  // --- generate() memoization ----------------------------------------------
  //
  // One latch per model: each region's entry is claimed exactly once (the
  // claimer runs the cold path; it alone counts the miss) and every other
  // caller either returns the finished list (counting a hit) or waits on
  // generateReady_ until the claimer finalizes. The mutex is held only to
  // look up, claim, finalize or abandon an entry, never during generation,
  // so cold generations of distinct regions still run concurrently.
  //
  // Entry references are stable: unordered_map rehash moves buckets, not
  // nodes, so finished lists are handed out by reference while other regions
  // are still being inserted.

  struct GenerateEntry {
    bool done = false;  ///< false = cold generation in flight (latch closed)
    std::vector<AcceleratorConfig> configs;
  };
  enum class ClaimKind {
    Hit,      ///< entry finished: configs are readable, a cache hit
    Claimed,  ///< we inserted the entry: we own the cold generation
    Running,  ///< another thread owns it (only when wait == false)
  };
  struct Claim {
    GenerateEntry* entry = nullptr;
    ClaimKind kind = ClaimKind::Hit;
  };
  /// Claim `region`'s entry or resolve it as a hit. With wait == true blocks
  /// until an in-flight generation finishes (never returns Running); with
  /// wait == false returns Running instead (generateAll's deadlock-free
  /// deferral).
  Claim claimEntry(const analysis::Region* region, bool wait) const;
  /// Publishes a claimed entry's configs and opens the latch. Returns the
  /// now-stable cached list.
  const std::vector<AcceleratorConfig>& finalizeEntry(
      GenerateEntry* entry, std::vector<AcceleratorConfig> configs) const;
  /// Erases a claimed entry after a failed generation (cancellation) so
  /// waiters re-claim and retry instead of reading a corpse.
  void abandonEntry(const analysis::Region* region) const;
  /// Cold path for one claimed region: generate, then finalize (abandon on
  /// throw). Does not count hit/miss — callers already did, in
  /// deterministic order.
  const std::vector<AcceleratorConfig>& generateCold(
      const analysis::Region* region, GenerateEntry* entry) const;
  mutable std::mutex generateMutex_;
  mutable std::condition_variable generateReady_;
  mutable std::unordered_map<const analysis::Region*, GenerateEntry>
      generateEntries_;

  mutable std::mutex selectorMemoMutex_;
  mutable std::unique_ptr<SelectorMemo> selectorMemo_;
};

/// Process-wide high-water mark of concurrently running cold candidate
/// generations (generateUncached bodies, all models). Exported as the
/// model.cold_inflight_peak gauge in wall-clock trace mode; tests read it
/// directly to prove cold generations actually overlapped.
int64_t coldGenerationInflightPeak();
/// Resets the peak (tests only; the gauge in an already-attached trace
/// recorder keeps its high-water mark).
void resetColdGenerationInflightPeak();

}  // namespace cayman::accel
