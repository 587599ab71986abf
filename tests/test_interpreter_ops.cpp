// Table-driven semantics tests: every arithmetic / comparison / conversion
// opcode is executed through a one-instruction function on both the
// interpreter and the tree-walking reference oracle, which must agree, and
// checked against the host's reference arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "ir/builder.h"
#include "oracles/reference_interpreter.h"
#include "sim/interpreter.h"

namespace cayman::sim {
namespace {

/// Runs `f` on the interpreter and on the reference oracle, checks that both
/// return the same integer, and returns it.
int64_t runBoth(const ir::Module& m, const ir::Function& f,
                std::span<const int64_t> args) {
  int64_t decoded = Interpreter(m).runFunction(f, args).returnValue->i;
  int64_t reference =
      oracles::ReferenceInterpreter(m).runFunction(f, args).returnValue->i;
  EXPECT_EQ(decoded, reference) << "decoded vs reference engine";
  return decoded;
}

/// Runs `op(a, b)` on i64 operands through both engines.
int64_t evalI64(ir::Opcode op, int64_t a, int64_t b) {
  ir::Module m("op");
  ir::Function* f = m.addFunction(
      "f", ir::Type::i64(), {{ir::Type::i64(), "a"}, {ir::Type::i64(), "b"}});
  ir::BasicBlock* entry = f->addBlock("entry");
  auto inst = std::make_unique<ir::Instruction>(
      op, ir::Type::i64(),
      std::vector<ir::Value*>{f->argument(0), f->argument(1)}, "r");
  ir::Instruction* raw = entry->append(std::move(inst));
  ir::IRBuilder builder(&m);
  builder.setInsertPoint(entry);
  builder.ret(raw);
  int64_t args[] = {a, b};
  SCOPED_TRACE(std::string(ir::opcodeSpelling(op)) + "(" + std::to_string(a) +
               ", " + std::to_string(b) + ")");
  return runBoth(m, *f, args);
}

/// Runs `fop(a, b)` on f64 operands (passed via globals to keep precision)
/// through both engines, which must store bit-identical results.
double evalF64(ir::Opcode op, double a, double b, bool unary = false) {
  ir::Module m("fop");
  auto* in = m.addGlobal("in", ir::Type::f64(), 2);
  in->setInit({a, b});
  auto* out = m.addGlobal("out", ir::Type::f64(), 1);
  ir::Function* f = m.addFunction("main", ir::Type::voidTy(), {});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder builder(&m);
  builder.setInsertPoint(entry);
  ir::Value* va =
      builder.load(ir::Type::f64(), builder.gep(in, builder.i64(0),
                                                ir::Type::f64()));
  ir::Value* vb =
      builder.load(ir::Type::f64(), builder.gep(in, builder.i64(1),
                                                ir::Type::f64()));
  std::vector<ir::Value*> operands{va};
  if (!unary) operands.push_back(vb);
  auto inst = std::make_unique<ir::Instruction>(op, ir::Type::f64(),
                                                operands, "r");
  ir::Instruction* raw = entry->append(std::move(inst));
  builder.store(raw, builder.gep(out, builder.i64(0), ir::Type::f64()));
  builder.ret();
  Interpreter interp(m);
  interp.run();
  oracles::ReferenceInterpreter reference(m);
  reference.run();
  double decoded = interp.memory().readElemF64(out, 0);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded),
            std::bit_cast<uint64_t>(reference.memory().readElemF64(out, 0)))
      << ir::opcodeSpelling(op) << ": decoded vs reference engine";
  return decoded;
}

struct IntCase {
  ir::Opcode op;
  int64_t a, b, expected;
};

class IntOpTest : public ::testing::TestWithParam<IntCase> {};

TEST_P(IntOpTest, MatchesReference) {
  const IntCase& c = GetParam();
  EXPECT_EQ(evalI64(c.op, c.a, c.b), c.expected)
      << ir::opcodeSpelling(c.op) << "(" << c.a << ", " << c.b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, IntOpTest,
    ::testing::Values(
        IntCase{ir::Opcode::Add, 40, 2, 42},
        IntCase{ir::Opcode::Add, -5, 3, -2},
        IntCase{ir::Opcode::Sub, 10, 25, -15},
        IntCase{ir::Opcode::Mul, -6, 7, -42},
        IntCase{ir::Opcode::SDiv, 42, 5, 8},
        IntCase{ir::Opcode::SDiv, -42, 5, -8},
        IntCase{ir::Opcode::SDiv, 42, 0, 0},  // guarded: no trap
        // INT64_MIN / -1 overflows in C++; the interpreter defines it as the
        // two's-complement wrap (and the remainder as 0), so UBSan stays
        // quiet and results are deterministic.
        IntCase{ir::Opcode::SDiv, std::numeric_limits<int64_t>::min(), -1,
                std::numeric_limits<int64_t>::min()},
        IntCase{ir::Opcode::SRem, std::numeric_limits<int64_t>::min(), -1, 0},
        IntCase{ir::Opcode::SRem, 42, 5, 2},
        IntCase{ir::Opcode::SRem, 7, 0, 0},
        IntCase{ir::Opcode::And, 0b1100, 0b1010, 0b1000},
        IntCase{ir::Opcode::Or, 0b1100, 0b1010, 0b1110},
        IntCase{ir::Opcode::Xor, 0b1100, 0b1010, 0b0110},
        IntCase{ir::Opcode::Shl, 3, 4, 48},
        IntCase{ir::Opcode::AShr, -16, 2, -4},
        IntCase{ir::Opcode::LShr, -1, 60, 15}));

struct FloatCase {
  ir::Opcode op;
  double a, b, expected;
  bool unary = false;
};

class FloatOpTest : public ::testing::TestWithParam<FloatCase> {};

TEST_P(FloatOpTest, MatchesReference) {
  const FloatCase& c = GetParam();
  EXPECT_DOUBLE_EQ(evalF64(c.op, c.a, c.b, c.unary), c.expected)
      << ir::opcodeSpelling(c.op);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, FloatOpTest,
    ::testing::Values(
        FloatCase{ir::Opcode::FAdd, 1.5, 2.25, 3.75},
        FloatCase{ir::Opcode::FSub, 1.0, 0.75, 0.25},
        FloatCase{ir::Opcode::FMul, -2.0, 3.5, -7.0},
        FloatCase{ir::Opcode::FDiv, 1.0, 4.0, 0.25},
        FloatCase{ir::Opcode::FMin, 2.0, -3.0, -3.0},
        FloatCase{ir::Opcode::FMax, 2.0, -3.0, 2.0},
        FloatCase{ir::Opcode::FNeg, 2.5, 0.0, -2.5, true},
        FloatCase{ir::Opcode::FAbs, -2.5, 0.0, 2.5, true},
        FloatCase{ir::Opcode::FSqrt, 9.0, 0.0, 3.0, true}));

TEST(CmpOpTest, IntegerPredicates) {
  ir::Module m("cmp");
  ir::Function* f = m.addFunction(
      "f", ir::Type::i64(), {{ir::Type::i64(), "a"}, {ir::Type::i64(), "b"}});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder b(&m);
  b.setInsertPoint(entry);
  ir::Value* cmp = b.icmp(ir::CmpPred::LT, f->argument(0), f->argument(1));
  b.ret(b.zext(cmp, ir::Type::i64()));
  {
    int64_t args[] = {1, 2};
    EXPECT_EQ(runBoth(m, *f, args), 1);
  }
  {
    int64_t args[] = {2, 2};
    EXPECT_EQ(runBoth(m, *f, args), 0);
  }
  {
    int64_t args[] = {-5, 2};
    EXPECT_EQ(runBoth(m, *f, args), 1);
  }
}

TEST(ConversionTest, RoundTripsAndTruncation) {
  ir::Module m("conv");
  ir::Function* f =
      m.addFunction("f", ir::Type::i64(), {{ir::Type::i64(), "a"}});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder b(&m);
  b.setInsertPoint(entry);
  // i64 -> f64 -> scaled -> i64.
  ir::Value* asF = b.sitofp(f->argument(0), ir::Type::f64());
  ir::Value* scaled = b.fmul(asF, b.f64(0.5));
  b.ret(b.fptosi(scaled, ir::Type::i64()));
  int64_t args[] = {9};
  EXPECT_EQ(runBoth(m, *f, args), 4);  // trunc toward 0
}

TEST(ConversionTest, TruncAndExtWrapCorrectly) {
  ir::Module m("tw");
  ir::Function* f =
      m.addFunction("f", ir::Type::i64(), {{ir::Type::i64(), "a"}});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder b(&m);
  b.setInsertPoint(entry);
  ir::Value* narrow = b.trunc(f->argument(0), ir::Type::i32());
  b.ret(b.sext(narrow, ir::Type::i64()));
  // 2^32 + 5 truncates to 5; -1 stays -1 (sign extension).
  {
    int64_t args[] = {(int64_t{1} << 32) + 5};
    EXPECT_EQ(runBoth(m, *f, args), 5);
  }
  {
    int64_t args[] = {-1};
    EXPECT_EQ(runBoth(m, *f, args), -1);
  }
}

TEST(SelectTest, PicksByCondition) {
  EXPECT_EQ(evalI64(ir::Opcode::Add, 1, 1), 2);  // sanity
  ir::Module m("sel");
  ir::Function* f = m.addFunction(
      "f", ir::Type::i64(), {{ir::Type::i64(), "a"}, {ir::Type::i64(), "b"}});
  ir::BasicBlock* entry = f->addBlock("entry");
  ir::IRBuilder b(&m);
  b.setInsertPoint(entry);
  ir::Value* bigger = b.select(
      b.icmp(ir::CmpPred::GT, f->argument(0), f->argument(1)),
      f->argument(0), f->argument(1), "max");
  b.ret(bigger);
  {
    int64_t args[] = {3, 8};
    EXPECT_EQ(runBoth(m, *f, args), 8);
  }
  {
    int64_t args[] = {9, -4};
    EXPECT_EQ(runBoth(m, *f, args), 9);
  }
}

}  // namespace
}  // namespace cayman::sim
