// Tree-walking reference interpreter: the semantic oracle the decoded engine
// (sim::Interpreter) is tested against. It walks ir::Instructions directly,
// numbers SSA values through a hash map and evaluates phis per incoming edge,
// so it shares no lowering with sim::Decoder — only the scalar semantics of
// sim/semantics.h. The decoded engine must reproduce its Result (cycles,
// instruction count, per-block counts, return value) and its memory image
// bit for bit.
//
// Test-, bench- and fuzz-only: nothing the shipped tool builds links it.
#pragma once

#include <span>
#include <unordered_map>

#include "sim/interpreter.h"

namespace cayman::oracles {

class ReferenceInterpreter {
 public:
  explicit ReferenceInterpreter(
      const ir::Module& module,
      sim::CpuCostModel model = sim::CpuCostModel::cva6());

  /// Same contract as sim::Interpreter::run/runFunction: memory is reset to
  /// its initial image first, integer arguments map positionally.
  sim::Interpreter::Result run(std::span<const int64_t> args = {});
  sim::Interpreter::Result runFunction(const ir::Function& function,
                                       std::span<const int64_t> args = {});

  sim::SimMemory& memory() { return memory_; }
  const sim::SimMemory& memory() const { return memory_; }

  void setInstructionLimit(uint64_t limit) { instructionLimit_ = limit; }
  void setCancelToken(const support::CancelToken* token) { cancel_ = token; }

 private:
  /// Frame index of every argument and instruction of one function.
  struct Numbering {
    std::unordered_map<const ir::Value*, int> index;
    int count = 0;
  };

  const Numbering& numberingFor(const ir::Function& function);
  sim::Slot exec(const ir::Function& function, std::vector<sim::Slot> args,
                 sim::Interpreter::Result& result, int depth);

  const ir::Module& module_;
  sim::CpuCostModel model_;
  sim::SimMemory memory_;
  std::unordered_map<const ir::Function*, Numbering> numberings_;
  std::unordered_map<const ir::BasicBlock*, double> blockCost_;
  uint64_t instructionLimit_ = sim::Interpreter::kDefaultInstructionLimit;
  uint64_t executed_ = 0;
  const support::CancelToken* cancel_ = nullptr;
  uint64_t cancelTick_ = 0;
};

}  // namespace cayman::oracles
