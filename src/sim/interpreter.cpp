#include "sim/interpreter.h"

#include <cmath>
#include <cstring>

#include "sim/semantics.h"
#include "support/trace.h"

namespace cayman::sim {

Interpreter::Interpreter(const ir::Module& module, CpuCostModel model)
    : module_(module), model_(model), memory_(module) {}

Interpreter::DecodedEntry& Interpreter::decodedFor(
    const ir::Function& function) {
  auto it = decoded_.find(&function);
  if (it != decoded_.end()) return *it->second;
  auto entry = std::make_unique<DecodedEntry>();
  entry->df = Decoder(memory_, model_).decode(function);
  entry->counts.assign(entry->df.numBlocks(), 0);
  return *decoded_.emplace(&function, std::move(entry)).first->second;
}

Interpreter::DecodeStats Interpreter::predecodeAll(bool force) {
  if (force) decoded_.clear();
  DecodeStats stats;
  for (const auto& function : module_.functions()) {
    const DecodedEntry& entry = decodedFor(*function);
    ++stats.functions;
    stats.microOps += entry.df.ops.size();
    stats.constants += entry.df.constPool.size();
  }
  return stats;
}

Interpreter::Result Interpreter::run(std::span<const int64_t> args) {
  return runFunction(*module_.entryFunction(), args);
}

Interpreter::Result Interpreter::runFunction(const ir::Function& function,
                                             std::span<const int64_t> args) {
  memory_.reset();
  Result result;
  executed_ = 0;
  cancelTick_ = 0;
  Slot returnValue = execDecoded(decodedFor(function),
                                 argumentSlots(function, args), result, 0);
  // Map dense per-function counts back onto BasicBlock pointers.
  for (auto& [fn, entry] : decoded_) {
    for (size_t i = 0; i < entry->counts.size(); ++i) {
      if (entry->counts[i] == 0) continue;
      result.blockCounts[entry->df.blockOf[i]] += entry->counts[i];
      entry->counts[i] = 0;
    }
  }
  if (!function.returnType()->isVoid()) result.returnValue = returnValue;
  if (support::trace::on()) {
    support::trace::count("interp.runs", 1);
    support::trace::count("interp.instructions", result.instructions);
    uint64_t blocks = 0;
    for (const auto& [block, blockCount] : result.blockCounts) {
      (void)block;
      blocks += blockCount;
    }
    support::trace::count("interp.blocks", blocks);
  }
  return result;
}

Slot Interpreter::execDecoded(DecodedEntry& entry, std::vector<Slot> args,
                              Result& result, int depth) {
  CAYMAN_ASSERT(depth < 64, "interpreter call depth exceeded");
  const DecodedFunction& df = entry.df;
  std::vector<Slot> frame(df.frameSize);
  for (size_t i = 0; i < args.size(); ++i) frame[i] = args[i];
  for (size_t i = 0; i < df.constPool.size(); ++i) {
    frame[df.constBase + i] = df.constPool[i];
  }

  Slot* f = frame.data();
  const MicroOp* ops = df.ops.data();
  uint64_t* counts = entry.counts.data();
  uint32_t pc = 0;
  for (;;) {
    const MicroOp& u = ops[pc];
    switch (u.op) {
      case MicroOpcode::BlockHead: {
        uint32_t id = u.b;
        ++counts[id];
        result.totalCycles += df.blockCost[id];
        result.instructions += df.blockSize[id];
        executed_ += df.blockSize[id];
        if (executed_ > instructionLimit_) {
          throwInstructionLimit(df.source->name(), instructionLimit_);
        }
        if (cancel_ != nullptr && (++cancelTick_ & 0x3FF) == 0) {
          cancel_->check(support::Stage::Profile, df.source->name());
        }
        ++pc;
        break;
      }
      case MicroOpcode::Add:
        f[u.dst] = {wrapKind(u.aux, wrapAdd(f[u.a].i, f[u.b].i)), 0.0};
        ++pc;
        break;
      case MicroOpcode::Sub:
        f[u.dst] = {wrapKind(u.aux, wrapSub(f[u.a].i, f[u.b].i)), 0.0};
        ++pc;
        break;
      case MicroOpcode::Mul:
        f[u.dst] = {wrapKind(u.aux, wrapMul(f[u.a].i, f[u.b].i)), 0.0};
        ++pc;
        break;
      case MicroOpcode::SDiv:
        f[u.dst] = {wrapKind(u.aux, safeSDiv(f[u.a].i, f[u.b].i)), 0.0};
        ++pc;
        break;
      case MicroOpcode::SRem:
        f[u.dst] = {wrapKind(u.aux, safeSRem(f[u.a].i, f[u.b].i)), 0.0};
        ++pc;
        break;
      case MicroOpcode::And:
        f[u.dst] = {f[u.a].i & f[u.b].i, 0.0};
        ++pc;
        break;
      case MicroOpcode::Or:
        f[u.dst] = {f[u.a].i | f[u.b].i, 0.0};
        ++pc;
        break;
      case MicroOpcode::Xor:
        f[u.dst] = {f[u.a].i ^ f[u.b].i, 0.0};
        ++pc;
        break;
      case MicroOpcode::Shl:
        f[u.dst] = {wrapKind(u.aux, wrapShl(f[u.a].i, f[u.b].i)), 0.0};
        ++pc;
        break;
      case MicroOpcode::AShr:
        f[u.dst] = {f[u.a].i >> (f[u.b].i & 63), 0.0};
        ++pc;
        break;
      case MicroOpcode::LShr:
        f[u.dst] = {static_cast<int64_t>(static_cast<uint64_t>(f[u.a].i) >>
                                         (f[u.b].i & 63)),
                    0.0};
        ++pc;
        break;
      case MicroOpcode::FAdd:
        f[u.dst] = {0, f[u.a].f + f[u.b].f};
        ++pc;
        break;
      case MicroOpcode::FSub:
        f[u.dst] = {0, f[u.a].f - f[u.b].f};
        ++pc;
        break;
      case MicroOpcode::FMul:
        f[u.dst] = {0, f[u.a].f * f[u.b].f};
        ++pc;
        break;
      case MicroOpcode::FDiv:
        f[u.dst] = {0, f[u.a].f / f[u.b].f};
        ++pc;
        break;
      case MicroOpcode::FNeg:
        f[u.dst] = {0, -f[u.a].f};
        ++pc;
        break;
      case MicroOpcode::FSqrt:
        f[u.dst] = {0, std::sqrt(std::fabs(f[u.a].f))};
        ++pc;
        break;
      case MicroOpcode::FAbs:
        f[u.dst] = {0, std::fabs(f[u.a].f)};
        ++pc;
        break;
      case MicroOpcode::FMin:
        f[u.dst] = {0, std::fmin(f[u.a].f, f[u.b].f)};
        ++pc;
        break;
      case MicroOpcode::FMax:
        f[u.dst] = {0, std::fmax(f[u.a].f, f[u.b].f)};
        ++pc;
        break;
      case MicroOpcode::ICmp:
        f[u.dst] = {compareInt(static_cast<ir::CmpPred>(u.aux), f[u.a].i,
                               f[u.b].i)
                        ? 1
                        : 0,
                    0.0};
        ++pc;
        break;
      case MicroOpcode::FCmp:
        f[u.dst] = {compareFloat(static_cast<ir::CmpPred>(u.aux), f[u.a].f,
                                 f[u.b].f)
                        ? 1
                        : 0,
                    0.0};
        ++pc;
        break;
      case MicroOpcode::SelectOp:
        f[u.dst] = f[u.a].i != 0 ? f[u.b] : f[u.c];
        ++pc;
        break;
      case MicroOpcode::ZExt: {
        int64_t v = f[u.a].i;
        switch (static_cast<ir::Type::Kind>(u.aux)) {
          case ir::Type::Kind::I32:
            v = static_cast<int64_t>(static_cast<uint32_t>(v));
            break;
          case ir::Type::Kind::I1:
            v &= 1;
            break;
          default:
            break;
        }
        f[u.dst] = {v, 0.0};
        ++pc;
        break;
      }
      case MicroOpcode::MoveI:
        f[u.dst] = {f[u.a].i, 0.0};
        ++pc;
        break;
      case MicroOpcode::Trunc:
        f[u.dst] = {wrapKind(u.aux, f[u.a].i), 0.0};
        ++pc;
        break;
      case MicroOpcode::SIToFP:
        f[u.dst] = {0, static_cast<double>(f[u.a].i)};
        ++pc;
        break;
      case MicroOpcode::FPToSI:
        f[u.dst] = {wrapKind(u.aux, static_cast<int64_t>(f[u.a].f)), 0.0};
        ++pc;
        break;
      case MicroOpcode::Gep:
        f[u.dst] = {wrapAdd(f[u.a].i, wrapMul(f[u.b].i, u.imm)), 0.0};
        ++pc;
        break;
      case MicroOpcode::LoadI1: {
        uint8_t v;
        std::memcpy(&v, memory_.rawAt(static_cast<uint64_t>(f[u.a].i), 1), 1);
        f[u.dst] = {v != 0, 0.0};
        ++pc;
        break;
      }
      case MicroOpcode::LoadI32: {
        int32_t v;
        std::memcpy(&v, memory_.rawAt(static_cast<uint64_t>(f[u.a].i), 4), 4);
        f[u.dst] = {v, 0.0};
        ++pc;
        break;
      }
      case MicroOpcode::LoadI64: {
        int64_t v;
        std::memcpy(&v, memory_.rawAt(static_cast<uint64_t>(f[u.a].i), 8), 8);
        f[u.dst] = {v, 0.0};
        ++pc;
        break;
      }
      case MicroOpcode::LoadF32: {
        float v;
        std::memcpy(&v, memory_.rawAt(static_cast<uint64_t>(f[u.a].i), 4), 4);
        f[u.dst] = {0, v};
        ++pc;
        break;
      }
      case MicroOpcode::LoadF64: {
        double v;
        std::memcpy(&v, memory_.rawAt(static_cast<uint64_t>(f[u.a].i), 8), 8);
        f[u.dst] = {0, v};
        ++pc;
        break;
      }
      case MicroOpcode::StoreI1: {
        uint8_t v = f[u.a].i != 0;
        std::memcpy(memory_.rawAt(static_cast<uint64_t>(f[u.b].i), 1), &v, 1);
        ++pc;
        break;
      }
      case MicroOpcode::StoreI32: {
        int32_t v = static_cast<int32_t>(f[u.a].i);
        std::memcpy(memory_.rawAt(static_cast<uint64_t>(f[u.b].i), 4), &v, 4);
        ++pc;
        break;
      }
      case MicroOpcode::StoreI64: {
        std::memcpy(memory_.rawAt(static_cast<uint64_t>(f[u.b].i), 8),
                    &f[u.a].i, 8);
        ++pc;
        break;
      }
      case MicroOpcode::StoreF32: {
        float v = static_cast<float>(f[u.a].f);
        std::memcpy(memory_.rawAt(static_cast<uint64_t>(f[u.b].i), 4), &v, 4);
        ++pc;
        break;
      }
      case MicroOpcode::StoreF64: {
        std::memcpy(memory_.rawAt(static_cast<uint64_t>(f[u.b].i), 8),
                    &f[u.a].f, 8);
        ++pc;
        break;
      }
      case MicroOpcode::Copy:
        f[u.dst] = f[u.a];
        ++pc;
        break;
      case MicroOpcode::Jump:
        pc = u.b;
        break;
      case MicroOpcode::CondJump:
        pc = f[u.a].i != 0 ? u.b : u.c;
        break;
      case MicroOpcode::Call: {
        std::vector<Slot> callArgs(u.b);
        for (uint32_t i = 0; i < u.b; ++i) {
          callArgs[i] = f[df.callArgSlots[u.a + i]];
        }
        DecodedEntry& callee =
            decodedFor(*df.callees[static_cast<size_t>(u.imm)]);
        Slot ret = execDecoded(callee, std::move(callArgs), result, depth + 1);
        if (u.aux != 0) f[u.dst] = ret;
        ++pc;
        break;
      }
      case MicroOpcode::Ret:
        return u.aux != 0 ? f[u.a] : Slot{};
    }
  }
}

}  // namespace cayman::sim
