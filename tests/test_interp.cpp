/** @file End-to-end interpreter tests: language semantics, marker
 * traces, limits, and the paper's example programs. */
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "helpers.hpp"

#include "ir/builder.hpp"
#include "ir/lowering.hpp"
#include "lang/parser.hpp"

namespace dce::interp {
namespace {

using dce::test::runSource;

/** Shorthand: run and expect a clean exit with the given value. */
void
expectExit(const std::string &source, int64_t expected)
{
    ExecResult result = runSource(source);
    ASSERT_EQ(result.status, ExecStatus::Ok);
    EXPECT_EQ(result.exitValue, expected) << source;
}

TEST(Interp, ReturnsConstant)
{
    expectExit("int main() { return 42; }", 42);
}

TEST(Interp, ArithmeticAndPrecedence)
{
    expectExit("int main() { return 2 + 3 * 4 - 6 / 2; }", 11);
}

TEST(Interp, SafeDivisionByZero)
{
    expectExit("int a = 7; int b = 0; int main() { return a / b; }", 7);
    expectExit("int a = 9; int b = 0; int main() { return a % b; }", 9);
}

TEST(Interp, SignedOverflowWraps)
{
    expectExit(
        "int a = 2147483647; int main() { return a + 1 == -2147483647 - 1; }",
        1);
}

TEST(Interp, NarrowingAssignmentWraps)
{
    expectExit("char c; int main() { c = 300; return c; }", 44);
    expectExit("char c; int main() { c = 200; return c; }", -56);
}

TEST(Interp, UnsignedComparison)
{
    expectExit("unsigned u = 0; int main() { return u - 1 > 100; }", 1);
}

TEST(Interp, ShiftSemantics)
{
    expectExit("int main() { int a = 1; return a << 33; }", 2);
    expectExit("int main() { int a = -8; return a >> 1; }", -4);
}

TEST(Interp, GlobalsInitializeAndPersist)
{
    expectExit(R"(
        int a = 5;
        void bump(void) { a += 2; }
        int main() { bump(); bump(); return a; }
    )",
               9);
}

TEST(Interp, LocalsZeroInitialized)
{
    expectExit("int main() { int x; return x; }", 0);
}

TEST(Interp, LoopsAccumulate)
{
    expectExit(R"(
        int main() {
            int g = 0;
            for (int f = 0; f < 10; f++) { g += f; }
            return g;
        }
    )",
               45);
}

TEST(Interp, WhileAndDoWhile)
{
    expectExit(R"(
        int main() {
            int n = 5, s = 0;
            while (n) { s += n; n--; }
            do { s++; } while (0);
            return s;
        }
    )",
               16);
}

TEST(Interp, BreakAndContinue)
{
    expectExit(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 10; i++) {
                if (i == 3) { continue; }
                if (i == 6) { break; }
                s += i;
            }
            return s;
        }
    )",
               0 + 1 + 2 + 4 + 5);
}

TEST(Interp, SwitchDispatch)
{
    expectExit(R"(
        int pick(int v) {
            int r = 0;
            switch (v) {
              case 1:
                r = 10;
                break;
              case 2:
                r = 20;
                break;
              default:
                r = 30;
                break;
            }
            return r;
        }
        int main() { return pick(1) + pick(2) + pick(9); }
    )",
               60);
}

TEST(Interp, ShortCircuitSkipsSideEffects)
{
    expectExit(R"(
        int calls = 0;
        int bump(void) { calls++; return 1; }
        int main() {
            int r = 0 && bump();
            r = r + (1 || bump());
            return calls * 10 + r;
        }
    )",
               1);
}

TEST(Interp, TernaryChoosesLazily)
{
    expectExit(R"(
        int calls = 0;
        int bump(void) { calls++; return 7; }
        int main() {
            int r = 1 ? 3 : bump();
            return calls * 10 + r;
        }
    )",
               3);
}

TEST(Interp, PointersReadAndWriteThrough)
{
    expectExit(R"(
        int c;
        int main() {
            int *g = &c;
            *g = 12;
            return c;
        }
    )",
               12);
}

TEST(Interp, PointerToPointer)
{
    expectExit(R"(
        int a = 3, *f, **d = &f;
        int main() {
            f = &a;
            **d = 9;
            return a;
        }
    )",
               9);
}

TEST(Interp, DistinctObjectsCompareUnequal)
{
    // The Listing-3 shape: &a == &b[1] must be false.
    expectExit(R"(
        char a;
        char b[2];
        int main() {
            char *c = &a;
            char *d = &b[1];
            return c == d;
        }
    )",
               0);
}

TEST(Interp, ArraysIndexAndAlias)
{
    expectExit(R"(
        int a[4] = {1, 2, 3, 4};
        int main() {
            int *p = &a[1];
            p[1] = 30; // writes a[2]
            return a[0] + a[2];
        }
    )",
               31);
}

TEST(Interp, PointerGlobalInitializer)
{
    expectExit(R"(
        static int a[2];
        static int *c = &a[1];
        int main() {
            *c = 5;
            return a[1];
        }
    )",
               5);
}

TEST(Interp, OutOfBoundsIsDefined)
{
    expectExit(R"(
        int a[2] = {1, 2};
        int main() {
            int i = 5;
            a[i] = 99;      // dropped
            return a[i];    // 0
        }
    )",
               0);
}

TEST(Interp, MarkerCallsAreTraced)
{
    ExecResult result = runSource(R"(
        void DCEMarker0(void);
        void DCEMarker1(void);
        int a = 1;
        int main() {
            if (a) { DCEMarker0(); }
            if (!a) { DCEMarker1(); }
            return 0;
        }
    )");
    ASSERT_EQ(result.status, ExecStatus::Ok);
    EXPECT_EQ(result.calledExternals.count("DCEMarker0"), 1u);
    EXPECT_EQ(result.calledExternals.count("DCEMarker1"), 0u);
    ASSERT_EQ(result.callTrace.size(), 1u);
    EXPECT_EQ(result.callTrace[0], "DCEMarker0");
}

TEST(Interp, TraceKeepsCallOrderAndMultiplicity)
{
    ExecResult result = runSource(R"(
        void M(void);
        int main() {
            for (int i = 0; i < 3; i++) { M(); }
            return 0;
        }
    )");
    ASSERT_EQ(result.status, ExecStatus::Ok);
    EXPECT_EQ(result.callTrace.size(), 3u);
}

TEST(Interp, InfiniteLoopTimesOut)
{
    DiagnosticEngine diags;
    auto unit = lang::parseAndCheck("int main() { while (1) { } return 0; }",
                                    diags);
    ASSERT_TRUE(unit != nullptr);
    auto module = ir::lowerToIr(*unit);
    ExecLimits limits;
    limits.maxSteps = 10000;
    ExecResult result = execute(*module, "main", limits);
    EXPECT_EQ(result.status, ExecStatus::Timeout);
}

TEST(Interp, RunawayRecursionTraps)
{
    ExecResult result = runSource(R"(
        int f(int n) { return f(n + 1); }
        int main() { return f(0); }
    )");
    EXPECT_TRUE(result.status == ExecStatus::Trap ||
                result.status == ExecStatus::Timeout);
}

TEST(Interp, FinalGlobalsCaptureExternalsOnly)
{
    ExecResult result = runSource(R"(
        int visible = 1;
        static int hidden = 2;
        int main() { visible = 10; hidden = 20; return 0; }
    )");
    ASSERT_EQ(result.status, ExecStatus::Ok);
    ASSERT_EQ(result.finalGlobals.count("visible"), 1u);
    EXPECT_EQ(result.finalGlobals.count("hidden"), 0u);
    EXPECT_EQ(result.finalGlobals.at("visible")[0].i, 10);
}

TEST(Interp, PaperListing1ComputesCorrectly)
{
    // Listing 1a without the printf; both ifs are dead.
    ExecResult result = runSource(R"(
        void DCECheck0(void);
        void DCECheck1(void);
        void DCECheck2(void);
        char a;
        char b[2];
        static int c = 0;
        int main() {
            char *d = &a;
            char *e = &b[1];
            if (d == e) {
                DCECheck0();
                int f = 0;
                int g = 0;
                for (; f < 10; f++) {
                    DCECheck1();
                    g += f;
                }
            }
            if (c) {
                DCECheck2();
                b[0] = 1;
                b[1] = 1;
            }
            c = 0;
            return 0;
        }
    )");
    ASSERT_EQ(result.status, ExecStatus::Ok);
    EXPECT_TRUE(result.callTrace.empty());
    EXPECT_EQ(result.exitValue, 0);
}

TEST(Interp, PaperListing8bComputesCorrectly)
{
    ExecResult result = runSource(R"(
        void dead(void);
        static long a = 78240;
        static int b, d;
        static short e;
        static short c(short f, short h) {
            return h == 0 || (f && h == 1) ? f : f % h;
        }
        int main() {
            short g = a;
            for (b = 0; b < 1; b++) {
                e = a;
                d = c((e == a) ^ g, a);
            }
            if (d) {
                dead();
                for (; a; a++) { }
            }
            return 0;
        }
    )");
    ASSERT_EQ(result.status, ExecStatus::Ok);
    EXPECT_TRUE(result.callTrace.empty()) << "dead() must not execute";
}

/**
 * A hand-built module that reaches every interpreter path the lowering
 * of MiniC source rarely or never produces: a select feeding a switch
 * (cases listed out of order), a loop whose phis swap two values (they
 * must evaluate simultaneously), a phi after a non-phi instruction,
 * out-of-bounds loads and stores, an internal global, recursion, and
 * an unreachable block. Functions in layout order: DCEMarker0,
 * DCEMarker1 (declarations), fact (entry, base, rec), main (entry, c7,
 * c9, default, loop, exit, never).
 */
std::unique_ptr<ir::Module>
buildCoverageModule()
{
    using namespace ir;
    auto module = std::make_unique<Module>();
    Module &m = *module;
    Function *marker0 = m.addFunction("DCEMarker0", IrType::voidTy(), false);
    Function *marker1 = m.addFunction("DCEMarker1", IrType::voidTy(), false);
    GlobalVar *g = m.addGlobal("g", IrType::i32(), 1, false);
    GlobalVar *arr = m.addGlobal("arr", IrType::i32(), 4, false);
    arr->setIsArray(true);
    GlobalVar *hidden = m.addGlobal("hidden", IrType::i32(), 1, true);
    IrBuilder b(m);

    // fact(n) = n <= 1 ? 1 : n * fact(n - 1)
    Function *fact = m.addFunction("fact", IrType::i32(), false);
    Param *n = fact->addParam(IrType::i32(), "n");
    BasicBlock *f_entry = fact->addBlock("entry");
    BasicBlock *f_base = fact->addBlock("base");
    BasicBlock *f_rec = fact->addBlock("rec");
    b.setInsertionBlock(f_entry);
    b.condBr(b.cmp(CmpPred::Sle, n, m.i32Const(1)), f_base, f_rec);
    b.setInsertionBlock(f_base);
    b.ret(m.i32Const(1));
    b.setInsertionBlock(f_rec);
    Value *sub = b.bin(BinOp::Sub, n, m.i32Const(1));
    b.ret(b.bin(BinOp::Mul, n, b.call(fact, {sub})));

    Function *main_fn = m.addFunction("main", IrType::i32(), false);
    BasicBlock *entry = main_fn->addBlock("entry");
    BasicBlock *c7 = main_fn->addBlock("c7");
    BasicBlock *c9 = main_fn->addBlock("c9");
    BasicBlock *dflt = main_fn->addBlock("default");
    BasicBlock *loop = main_fn->addBlock("loop");
    BasicBlock *exit = main_fn->addBlock("exit");
    BasicBlock *never = main_fn->addBlock("never");

    b.setInsertionBlock(entry);
    Value *x = b.select(b.cmp(CmpPred::Eq, m.i32Const(1), m.i32Const(1)),
                        m.i32Const(7), m.i32Const(9));
    Instr *sw = b.switch_(x, dflt);
    sw->caseValues = {9, 7};
    sw->addBlockOperand(c9);
    sw->addBlockOperand(c7);
    for (BasicBlock *arm : {c7, c9, dflt}) {
        b.setInsertionBlock(arm);
        if (arm == c7)
            b.call(marker0, {});
        if (arm == c9)
            b.call(marker1, {});
        b.br(loop);
    }

    // Three rounds of a swap: a and b exchange values simultaneously.
    b.setInsertionBlock(loop);
    Instr *i = b.phi(IrType::i32());
    Instr *a = b.phi(IrType::i32());
    Instr *bb = b.phi(IrType::i32());
    Value *next_i = b.bin(BinOp::Add, i, m.i32Const(1));
    // A phi after a non-phi instruction is not a block-entry phi: it
    // is never evaluated and costs no step.
    auto stray = m.newInstr(Opcode::Phi, IrType::i32());
    stray->setId(m.nextValueId());
    Instr *stray_phi = loop->insertBefore(loop->size(), std::move(stray));
    b.condBr(b.cmp(CmpPred::Slt, next_i, m.i32Const(3)), loop, exit);
    for (BasicBlock *pred : {c7, c9, dflt}) {
        i->addIncoming(m.i32Const(0), pred);
        a->addIncoming(m.i32Const(10), pred);
        bb->addIncoming(m.i32Const(20), pred);
        stray_phi->addIncoming(m.i32Const(99), pred);
    }
    i->addIncoming(next_i, loop);
    a->addIncoming(bb, loop);
    bb->addIncoming(a, loop);
    stray_phi->addIncoming(m.i32Const(99), loop);

    b.setInsertionBlock(exit);
    b.store(a, g);
    b.store(m.i32Const(5), hidden);
    b.store(m.i32Const(1), b.gep(arr, m.i32Const(10), 4)); // OOB: dropped
    Value *oob = b.load(IrType::i32(), b.gep(arr, m.i32Const(-1), 4));
    Value *f5 = b.call(fact, {m.i32Const(5)});
    b.store(b.bin(BinOp::Add, oob, f5), b.gep(arr, m.i32Const(2), 4));
    b.call(marker0, {});
    b.ret(bb);

    b.setInsertionBlock(never);
    b.unreachable();
    return module;
}

/** Flags for fact's and main's blocks, in layout order. */
std::vector<unsigned char>
blockFlags(std::initializer_list<int> flags)
{
    return std::vector<unsigned char>(flags.begin(), flags.end());
}

TEST(Interp, DecodedMachineCoversEveryControlPath)
{
    auto module = buildCoverageModule();
    ExecLimits limits;
    limits.recordBlocks = true;
    ExecResult result = execute(*module, "main", limits);
    ASSERT_EQ(result.status, ExecStatus::Ok);
    // Three swaps from (a, b) = (10, 20) end at (10, 20): the phis read
    // each other's values from before the edge, not after.
    EXPECT_EQ(result.exitValue, 20);
    EXPECT_EQ(result.steps, 53u);
    EXPECT_EQ(result.callTrace,
              (std::vector<std::string>{"DCEMarker0", "DCEMarker0"}));
    EXPECT_EQ(result.calledExternals, std::set<std::string>{"DCEMarker0"});
    // The OOB store was dropped and the OOB load read 0: arr[2] holds
    // just fact(5). The internal global is not observable.
    ASSERT_EQ(result.finalGlobals.size(), 2u);
    EXPECT_EQ(result.finalGlobals.at("g"),
              std::vector<IValue>{IValue::intValue(10)});
    EXPECT_EQ(result.finalGlobals.at("arr"),
              (std::vector<IValue>{IValue::intValue(0), IValue::intValue(0),
                                   IValue::intValue(120),
                                   IValue::intValue(0)}));
    EXPECT_EQ(result.executedBlocks,
              blockFlags({1, 1, 1, 1, 1, 0, 0, 1, 1, 0}));

    // Without recordBlocks there is no block record; nothing else
    // changes.
    ExecResult plain = execute(*module);
    EXPECT_TRUE(plain.executedBlocks.empty());
    EXPECT_TRUE(observablyEqual(plain, result));
    EXPECT_EQ(plain.steps, result.steps);
}

TEST(Interp, DecodedMachineStopsAtTheLimits)
{
    auto module = buildCoverageModule();
    ExecLimits limits;
    limits.recordBlocks = true;

    // Step 26 is fact(4)'s first instruction: the run stops there with
    // the state up to step 25 — g stored, arr[2] not yet.
    limits.maxSteps = 25;
    ExecResult timeout = execute(*module, "main", limits);
    EXPECT_EQ(timeout.status, ExecStatus::Timeout);
    EXPECT_EQ(timeout.steps, 26u);
    EXPECT_EQ(timeout.callTrace, std::vector<std::string>{"DCEMarker0"});
    EXPECT_EQ(timeout.finalGlobals.at("g")[0].i, 10);
    EXPECT_EQ(timeout.finalGlobals.at("arr")[2].i, 0);
    EXPECT_EQ(timeout.executedBlocks,
              blockFlags({1, 0, 1, 1, 1, 0, 0, 1, 1, 0}));

    // main -> fact(5) -> fact(4) -> fact(3) exceeds a depth of 3.
    limits.maxSteps = ExecLimits{}.maxSteps;
    limits.maxCallDepth = 3;
    ExecResult deep = execute(*module, "main", limits);
    EXPECT_EQ(deep.status, ExecStatus::Trap);
    EXPECT_EQ(deep.steps, 29u);
    EXPECT_EQ(deep.executedBlocks,
              blockFlags({1, 0, 1, 1, 1, 0, 0, 1, 1, 0}));

    // Executing an unreachable terminator traps on its step.
    ir::Function *boom =
        module->addFunction("boom", ir::IrType::i32(), false);
    ir::IrBuilder builder(*module);
    builder.setInsertionBlock(boom->addBlock("entry"));
    builder.unreachable();
    ExecResult trapped = execute(*module, "boom");
    EXPECT_EQ(trapped.status, ExecStatus::Trap);
    EXPECT_EQ(trapped.steps, 1u);

    EXPECT_EQ(execute(*module, "missing").status, ExecStatus::NoEntry);
    EXPECT_EQ(execute(*module, "DCEMarker0").status, ExecStatus::NoEntry);
}

TEST(Interp, ObservablyEqualComparesTraces)
{
    ExecResult a = runSource(R"(
        void M(void);
        int main() { M(); return 1; }
    )");
    ExecResult b = runSource(R"(
        void M(void);
        int main() { M(); return 1; }
    )");
    ExecResult c = runSource(R"(
        void M(void);
        int main() { M(); M(); return 1; }
    )");
    EXPECT_TRUE(observablyEqual(a, b));
    EXPECT_FALSE(observablyEqual(a, c));
    EXPECT_FALSE(explainDifference(a, c).empty());
}

} // namespace
} // namespace dce::interp
