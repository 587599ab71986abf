#include "hls/scheduler.h"

#include <algorithm>
#include <cmath>

#include "support/trace.h"

namespace cayman::hls {

namespace {

AccessIface ifaceFor(const ir::Instruction& inst,
                     const IfaceAssignment& ifaces) {
  auto it = ifaces.find(&inst);
  return it == ifaces.end() ? AccessIface{} : it->second;
}

}  // namespace

const char* ifaceSpelling(IfaceKind kind) {
  switch (kind) {
    case IfaceKind::Coupled: return "coupled";
    case IfaceKind::Decoupled: return "decoupled";
    case IfaceKind::Scratchpad: return "scratchpad";
  }
  return "?";
}

unsigned Scheduler::opLatency(const ir::Instruction& inst,
                              const IfaceAssignment& ifaces) const {
  if (inst.opcode() == ir::Opcode::Load) {
    AccessIface iface = ifaceFor(inst, ifaces);
    return iface.promoted ? 0 : timing_.loadLatency(iface.kind);
  }
  if (inst.opcode() == ir::Opcode::Store) {
    AccessIface iface = ifaceFor(inst, ifaces);
    return iface.promoted ? 0 : timing_.storeLatency(iface.kind);
  }
  return tech_.latencyCycles(inst.opcode(), inst.type(), clockNs_);
}

const void* Scheduler::bankKey(const AccessIface& iface,
                               const ir::Instruction& inst) {
  (void)inst;
  return iface.array != nullptr ? static_cast<const void*>(iface.array)
                                : static_cast<const void*>(&inst);
}

BlockSchedule Scheduler::scheduleBlock(const ir::BasicBlock& block,
                                       const IfaceAssignment& ifaces,
                                       unsigned unroll) const {
  CAYMAN_ASSERT(unroll >= 1, "unroll factor must be >= 1");
  blockCalls_.fetch_add(1, std::memory_order_relaxed);
  support::trace::count("sched.block_calls", 1);
  BlockSchedule result;

  // Schedulable nodes: everything but phis (register selects, free) and the
  // terminator (FSM transition).
  std::vector<const ir::Instruction*> nodes;
  for (const auto& inst : block.instructions()) {
    if (inst->opcode() == ir::Opcode::Phi || inst->isTerminator()) continue;
    nodes.push_back(inst.get());
  }
  result.numOps = static_cast<unsigned>(nodes.size());

  // Resource state shared across unroll instances.
  unsigned coupledPortFree = 0;
  // Scratchpad: per array, per bank, the next free cycle (greedy).
  std::map<const void*, std::vector<unsigned>> banks;

  // Memory ordering within one instance: accesses that may conflict must
  // keep program order (same array with a store involved, or any unknown
  // address). `ifaces.array` is the statically resolved base where known.
  auto mayConflict = [&](const ir::Instruction* a, const ir::Instruction* b) {
    if (a->opcode() != ir::Opcode::Store && b->opcode() != ir::Opcode::Store) {
      return false;
    }
    const ir::GlobalArray* arrA = ifaceFor(*a, ifaces).array;
    const ir::GlobalArray* arrB = ifaceFor(*b, ifaces).array;
    if (arrA == nullptr || arrB == nullptr) return true;  // unknown base
    return arrA == arrB;
  };

  unsigned overallFinish = 0;
  for (unsigned instance = 0; instance < unroll; ++instance) {
    std::map<const ir::Instruction*, unsigned> finish;
    std::map<const ir::Instruction*, unsigned> start;
    unsigned lastConflictingFinish = 0;  // per-instance memory ordering chain

    std::vector<const ir::Instruction*> memOrder;  // accesses seen so far
    for (const ir::Instruction* inst : nodes) {
      unsigned ready = 0;
      for (const ir::Value* operand : inst->operands()) {
        const auto* def = ir::dynCast<ir::Instruction>(operand);
        if (def == nullptr || def->parent() != &block) continue;
        auto it = finish.find(def);
        if (it != finish.end()) ready = std::max(ready, it->second);
      }

      unsigned latency = opLatency(*inst, ifaces);
      unsigned startCycle = ready;

      if (inst->isMemoryAccess() && !ifaceFor(*inst, ifaces).promoted) {
        // Honour intra-instance memory ordering.
        for (const ir::Instruction* prior : memOrder) {
          if (mayConflict(prior, inst)) {
            startCycle = std::max(startCycle, finish[prior]);
          }
        }
        memOrder.push_back(inst);

        AccessIface iface = ifaceFor(*inst, ifaces);
        switch (iface.kind) {
          case IfaceKind::Coupled: {
            unsigned occupancy = inst->opcode() == ir::Opcode::Load
                                     ? timing_.coupledLoadOccupancy
                                     : timing_.coupledStoreOccupancy;
            startCycle = std::max(startCycle, coupledPortFree);
            coupledPortFree = startCycle + occupancy;
            break;
          }
          case IfaceKind::Scratchpad: {
            auto& bankFree = banks[bankKey(iface, *inst)];
            if (bankFree.size() < iface.partitions) {
              bankFree.resize(std::max<size_t>(iface.partitions, 1), 0);
            }
            auto slot = std::min_element(bankFree.begin(), bankFree.end());
            startCycle = std::max(startCycle, *slot);
            *slot = startCycle + 1;  // single-cycle bank occupancy
            break;
          }
          case IfaceKind::Decoupled:
            break;  // private FIFO: no shared resource
        }
        (void)lastConflictingFinish;
      }

      start[inst] = startCycle;
      finish[inst] = startCycle + latency;
      overallFinish = std::max(overallFinish, finish[inst]);
    }
    if (instance == 0) result.start = std::move(start);
  }

  result.latency = nodes.empty() ? 1 : std::max(1u, overallFinish);

  // Area: operators replicate per unroll instance; every multi-cycle value
  // needs a pipeline/holding register.
  double opArea = 0.0;
  double regArea = 0.0;
  for (const ir::Instruction* inst : nodes) {
    opArea += tech_.opInfo(inst->opcode(), inst->type()).areaUm2;
    if (!inst->type()->isVoid()) {
      regArea += tech_.registerAreaPerBit * inst->type()->bitWidth();
    }
  }
  result.opAreaUm2 = opArea * unroll;
  result.regAreaUm2 = regArea * unroll;
  return result;
}

unsigned Scheduler::resMII(const ir::BasicBlock& block,
                           const IfaceAssignment& ifaces,
                           unsigned unroll) const {
  unsigned coupledDemand = 0;
  std::map<const void*, std::pair<unsigned, unsigned>> bankDemand;  // count, parts
  for (const auto& inst : block.instructions()) {
    if (!inst->isMemoryAccess()) continue;
    AccessIface iface = ifaceFor(*inst, ifaces);
    if (iface.promoted) continue;  // register-held: no port demand
    switch (iface.kind) {
      case IfaceKind::Coupled:
        coupledDemand += (inst->opcode() == ir::Opcode::Load
                              ? timing_.coupledLoadOccupancy
                              : timing_.coupledStoreOccupancy) *
                         unroll;
        break;
      case IfaceKind::Scratchpad: {
        auto& [count, parts] = bankDemand[bankKey(iface, *inst)];
        count += unroll;
        parts = std::max(parts, std::max(1u, iface.partitions));
        break;
      }
      case IfaceKind::Decoupled:
        break;
    }
  }
  unsigned ii = std::max(1u, coupledDemand);
  for (const auto& [key, demand] : bankDemand) {
    (void)key;
    auto [count, parts] = demand;
    ii = std::max(ii, (count + parts - 1) / parts);
  }
  return ii;
}

unsigned Scheduler::recMII(std::span<const analysis::LoopCarriedDep> deps,
                           const IfaceAssignment& ifaces) const {
  unsigned ii = 1;
  for (const analysis::LoopCarriedDep& dep : deps) {
    unsigned chainLatency = 0;
    for (const ir::Instruction* inst : dep.chain) {
      chainLatency += opLatency(*inst, ifaces);
    }
    unsigned distance = std::max(1u, dep.distance);
    ii = std::max(ii, (chainLatency + distance - 1) / distance);
  }
  return ii;
}

uint64_t Scheduler::pipelinedCycles(uint64_t iterations, unsigned depth,
                                    unsigned ii) {
  if (iterations == 0) return 0;
  return depth + (iterations - 1) * static_cast<uint64_t>(ii);
}

}  // namespace cayman::hls
