// Scalar semantics shared by the decoded interpreter (sim::Interpreter) and
// the tree-walking reference oracle the tests run it against: integer
// wrapping, guarded division, comparisons, entry-argument marshaling and the
// instruction-limit error. Both engines include this one header so their
// semantics cannot drift apart. Internal to the interpreter engines.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "ir/function.h"
#include "sim/decoder.h"
#include "support/error.h"

namespace cayman::sim {

inline int64_t wrapInt(const ir::Type* type, int64_t value) {
  switch (type->kind()) {
    case ir::Type::Kind::I1: return value & 1;
    case ir::Type::Kind::I32: return static_cast<int32_t>(value);
    default: return value;
  }
}

/// Decoded-path variant keyed by the Type::Kind baked into MicroOp::aux.
inline int64_t wrapKind(uint16_t kind, int64_t value) {
  switch (static_cast<ir::Type::Kind>(kind)) {
    case ir::Type::Kind::I1: return value & 1;
    case ir::Type::Kind::I32: return static_cast<int32_t>(value);
    default: return value;
  }
}

/// Two's-complement wrapping arithmetic via unsigned casts: signed overflow
/// is UB in C++, but several workloads (hash mixing, LCG-style token
/// scramblers) rely on i64 wraparound.
inline int64_t wrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

inline int64_t wrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

inline int64_t wrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

inline int64_t wrapShl(int64_t a, int64_t shift) {
  return static_cast<int64_t>(static_cast<uint64_t>(a)
                              << (shift & 63));
}

/// Division guarded against the two C++-undefined cases: x/0 (defined here as
/// 0) and INT64_MIN / -1 (defined as the two's-complement wrap, INT64_MIN).
inline int64_t safeSDiv(int64_t a, int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<int64_t>::min() && b == -1) return a;
  return a / b;
}

inline int64_t safeSRem(int64_t a, int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<int64_t>::min() && b == -1) return 0;
  return a % b;
}

inline bool compareInt(ir::CmpPred pred, int64_t a, int64_t b) {
  switch (pred) {
    case ir::CmpPred::EQ: return a == b;
    case ir::CmpPred::NE: return a != b;
    case ir::CmpPred::LT: return a < b;
    case ir::CmpPred::LE: return a <= b;
    case ir::CmpPred::GT: return a > b;
    case ir::CmpPred::GE: return a >= b;
  }
  return false;
}

inline bool compareFloat(ir::CmpPred pred, double a, double b) {
  switch (pred) {
    case ir::CmpPred::EQ: return a == b;
    case ir::CmpPred::NE: return a != b;
    case ir::CmpPred::LT: return a < b;
    case ir::CmpPred::LE: return a <= b;
    case ir::CmpPred::GT: return a > b;
    case ir::CmpPred::GE: return a >= b;
  }
  return false;
}

/// Maps integer call arguments positionally onto the function's parameter
/// slots (float parameters get the converted value); missing ones are zero.
inline std::vector<Slot> argumentSlots(const ir::Function& function,
                                       std::span<const int64_t> args) {
  std::vector<Slot> slots(function.numArguments());
  for (size_t i = 0; i < function.numArguments() && i < args.size(); ++i) {
    if (function.argument(i)->type()->isFloat()) {
      slots[i].f = static_cast<double>(args[i]);
    } else {
      slots[i].i = args[i];
    }
  }
  return slots;
}

[[noreturn]] inline void throwInstructionLimit(const std::string& functionName,
                                               uint64_t limit) {
  throw Error("instruction limit exceeded in " + functionName + " (" +
              std::to_string(limit) + " dynamic instructions)");
}

}  // namespace cayman::sim
