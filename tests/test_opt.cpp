/** @file Optimizer tests: per-pass behaviour, translation validation
 * against the interpreter, and the engineered capability knobs. */
#include <gtest/gtest.h>

#include "compiler/compiler.hpp"
#include "gen/generator.hpp"
#include "helpers.hpp"
#include "instrument/instrument.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "ir/cfg.hpp"
#include "ir/lowering.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "lang/parser.hpp"

namespace dce {
namespace {

using compiler::Compiler;
using compiler::CompilerId;
using compiler::OptLevel;
using test::lowerOk;
using test::parseOk;

size_t
countOpcode(const ir::Module &module, ir::Opcode opcode)
{
    size_t count = 0;
    for (const auto &fn : module.functions()) {
        for (const auto &block : fn->blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() == opcode)
                    ++count;
            }
        }
    }
    return count;
}

bool
callsFunction(const ir::Module &module, const std::string &name)
{
    for (const auto &fn : module.functions()) {
        for (const auto &block : fn->blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() == ir::Opcode::Call &&
                    instr->callee->name() == name) {
                    return true;
                }
            }
        }
    }
    return false;
}

/** Compile @p source with @p compiler (verifying after every pass) and
 * check the optimized module behaves exactly like the -O0 build. */
std::unique_ptr<ir::Module>
compileValidated(const std::string &source, const Compiler &comp)
{
    auto unit = parseOk(source);
    if (!unit)
        return nullptr;
    compiler::Compilation result = comp.compile(*unit, /*verify_each=*/true);
    EXPECT_TRUE(result.ok())
        << comp.describe() << " verification failure:\n"
        << result.error() << "\nsource:\n"
        << source << "\nIR:\n"
        << ir::printModule(result.module());
    auto optimized = result.takeModule();
    auto baseline_module = ir::lowerToIr(*unit);
    interp::ExecResult expected = interp::execute(*baseline_module);
    interp::ExecResult actual = interp::execute(*optimized);
    EXPECT_TRUE(interp::observablyEqual(expected, actual))
        << comp.describe() << " miscompiled:\n"
        << interp::explainDifference(expected, actual) << "source:\n"
        << source << "\noptimized IR:\n"
        << ir::printModule(*optimized);
    return optimized;
}

//===------------------------------------------------------------------===//
// Individual pass behaviour (via the full pipelines)
//===------------------------------------------------------------------===//

TEST(Opt, Mem2RegRemovesScalarAllocas)
{
    Compiler comp(CompilerId::Beta, OptLevel::O1);
    auto module = compileValidated(R"(
        int main() {
            int a = 3;
            int b = a + 4;
            return b;
        }
    )",
                                   comp);
    ASSERT_TRUE(module);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Alloca), 0u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Load), 0u);
}

TEST(Opt, ConstantsFoldToReturn)
{
    Compiler comp(CompilerId::Beta, OptLevel::O1);
    auto module = compileValidated(
        "int main() { int a = 3; int b = 4; return a * b + 2; }", comp);
    ASSERT_TRUE(module);
    // main should be a single block returning the constant 14.
    ir::Function *main_fn = module->getFunction("main");
    EXPECT_EQ(main_fn->numBlocks(), 1u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Bin), 0u);
}

TEST(Opt, SccpFoldsThroughBranches)
{
    Compiler comp(CompilerId::Beta, OptLevel::O1);
    auto module = compileValidated(R"(
        void DCEMarker0(void);
        int main() {
            int a = 1;
            int b;
            if (a) { b = 2; } else { b = 3; }
            if (b == 3) { DCEMarker0(); }
            return b;
        }
    )",
                                   comp);
    ASSERT_TRUE(module);
    EXPECT_FALSE(callsFunction(*module, "DCEMarker0"));
}

TEST(Opt, DeadLoopsDisappear)
{
    Compiler comp(CompilerId::Beta, OptLevel::O2);
    auto module = compileValidated(R"(
        void DCEMarker0(void);
        int main() {
            int a = 0;
            while (a) { DCEMarker0(); }
            return 0;
        }
    )",
                                   comp);
    ASSERT_TRUE(module);
    EXPECT_FALSE(callsFunction(*module, "DCEMarker0"));
}

TEST(Opt, MarkersInLiveCodeSurviveEveryLevel)
{
    for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
        for (OptLevel level : compiler::allOptLevels()) {
            Compiler comp(id, level);
            auto module = compileValidated(R"(
                void DCEMarker0(void);
                int a = 1;
                int main() {
                    if (a) { DCEMarker0(); }
                    return 0;
                }
            )",
                                           comp);
            ASSERT_TRUE(module);
            EXPECT_TRUE(callsFunction(*module, "DCEMarker0"))
                << comp.describe()
                << " removed a live marker (unsound!)";
        }
    }
}

TEST(Opt, InlinerSeesThroughHelpers)
{
    Compiler comp(CompilerId::Beta, OptLevel::O2);
    auto module = compileValidated(R"(
        void DCEMarker0(void);
        static int five(void) { return 5; }
        int main() {
            if (five() != 5) { DCEMarker0(); }
            return 0;
        }
    )",
                                   comp);
    ASSERT_TRUE(module);
    EXPECT_FALSE(callsFunction(*module, "DCEMarker0"));
    // The helper itself is gone too (inlined + globaldce).
    EXPECT_EQ(module->getFunction("five"), nullptr);
}

TEST(Opt, GlobalOptFoldsNeverStoredGlobals)
{
    for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
        Compiler comp(id, OptLevel::O2);
        auto module = compileValidated(R"(
            void DCEMarker0(void);
            static int g = 0;
            int main() {
                if (g) { DCEMarker0(); }
                return 0;
            }
        )",
                                       comp);
        ASSERT_TRUE(module);
        EXPECT_FALSE(callsFunction(*module, "DCEMarker0"))
            << comp.describe();
    }
}

TEST(Opt, StoredEqualsInitDivergence)
{
    // Listing 4a: `static int a = 0; if (a) dead(); a = 0;`
    // beta folds (stored value == initializer), alpha does not (its
    // global value analysis is flow-insensitive). The paper's flagship
    // GCC miss (PR99357).
    const std::string source = R"(
        void DCEMarker0(void);
        static int a = 0;
        int main() {
            if (a) { DCEMarker0(); }
            a = 0;
            return 0;
        }
    )";
    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_FALSE(callsFunction(*beta_module, "DCEMarker0"));

    Compiler alpha(CompilerId::Alpha, OptLevel::O3);
    auto alpha_module = compileValidated(source, alpha);
    ASSERT_TRUE(alpha_module);
    EXPECT_TRUE(callsFunction(*alpha_module, "DCEMarker0"));
}

TEST(Opt, StoredNotEqualInitMissedByBothAtHead)
{
    // Listing 6a: `a = 1` at the end — beta's old flow-sensitive
    // analysis handled it; the R7 commit regressed it.
    const std::string source = R"(
        void DCEMarker0(void);
        static int a = 0;
        int main() {
            if (a) { DCEMarker0(); }
            a = 1;
            return 0;
        }
    )";
    Compiler beta_head(CompilerId::Beta, OptLevel::O3);
    auto head_module = compileValidated(source, beta_head);
    ASSERT_TRUE(head_module);
    EXPECT_TRUE(callsFunction(*head_module, "DCEMarker0"));

    // Pre-regression build (before commit 65c02df91e4).
    Compiler beta_old(CompilerId::Beta, OptLevel::O3, 1);
    auto old_module = compileValidated(source, beta_old);
    ASSERT_TRUE(old_module);
    EXPECT_FALSE(callsFunction(*old_module, "DCEMarker0"));
}

TEST(Opt, PtrCmpOffsetDivergence)
{
    // Listing 3: &a == &b[1]. alpha folds any constant offset; beta
    // only offset 0 (LLVM PR49434).
    const std::string source = R"(
        void DCEMarker0(void);
        char a;
        char b[2];
        int main() {
            char *c = &a;
            char *d = &b[1];
            if (c == d) { DCEMarker0(); }
            return 0;
        }
    )";
    Compiler alpha(CompilerId::Alpha, OptLevel::O3);
    auto alpha_module = compileValidated(source, alpha);
    ASSERT_TRUE(alpha_module);
    EXPECT_FALSE(callsFunction(*alpha_module, "DCEMarker0"));

    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_TRUE(callsFunction(*beta_module, "DCEMarker0"));

    // The b[0] variant folds for both — the paper notes changing the
    // index to 0 lets EarlyCSE manage.
    const std::string zero_variant = R"(
        void DCEMarker0(void);
        char a;
        char b[2];
        int main() {
            char *c = &a;
            char *d = &b[0];
            if (c == d) { DCEMarker0(); }
            return 0;
        }
    )";
    auto beta_zero = compileValidated(zero_variant, beta);
    ASSERT_TRUE(beta_zero);
    EXPECT_FALSE(callsFunction(*beta_zero, "DCEMarker0"));
}

TEST(Opt, UniformZeroArrayDivergence)
{
    // Listing 9f: b[a] with b = {0, 0}. beta folds, alpha misses
    // (GCC PR99419, duplicate of developer-reported PR80603).
    const std::string source = R"(
        void DCEMarker0(void);
        int a;
        static int b[2] = {0, 0};
        int main() {
            if (b[a]) { DCEMarker0(); }
            return 0;
        }
    )";
    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_FALSE(callsFunction(*beta_module, "DCEMarker0"));

    Compiler alpha(CompilerId::Alpha, OptLevel::O3);
    auto alpha_module = compileValidated(source, alpha);
    ASSERT_TRUE(alpha_module);
    EXPECT_TRUE(callsFunction(*alpha_module, "DCEMarker0"));
}

TEST(Opt, ExitDseDivergence)
{
    // Listing 1's trailing `c = 0;`: beta removes the dead store,
    // alpha emits it (movl $0, c(%rip) in the paper's GCC output).
    const std::string source = R"(
        static int c = 0;
        int main() {
            c = 5;
            c = 0;
            return 0;
        }
    )";
    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_EQ(countOpcode(*beta_module, ir::Opcode::Store), 0u);
}

TEST(Opt, UnswitchFreezeRegression)
{
    // Listing 7: beta at -O2 eliminates dead(), at -O3 the unswitch
    // regression (freeze) blocks it.
    const std::string source = R"(
        void dead(void);
        int a, c;
        static int b;
        int main() {
            b = 0;
            while (a) { while (c) { if (b) { dead(); } } }
            return 0;
        }
    )";
    Compiler beta_o2(CompilerId::Beta, OptLevel::O2);
    auto o2_module = compileValidated(source, beta_o2);
    ASSERT_TRUE(o2_module);
    EXPECT_FALSE(callsFunction(*o2_module, "dead"))
        << ir::printModule(*o2_module);

    Compiler beta_o3(CompilerId::Beta, OptLevel::O3);
    auto o3_module = compileValidated(source, beta_o3);
    ASSERT_TRUE(o3_module);
    EXPECT_TRUE(callsFunction(*o3_module, "dead"))
        << ir::printModule(*o3_module);
}

TEST(Opt, O3IsIndependentOfHeapLayout)
{
    // The loop passes pick the branch to unswitch, the loads to hoist
    // and the order of cloned regions by walking loop blocks. Those
    // walks must follow the function layout, not heap addresses: the
    // same module compiled after different allocation histories has
    // to come out the same, or a marker's verdict depends on where
    // the allocator put the blocks. The generator seeds are programs
    // whose O3 output moved with the heap while loop blocks were kept
    // in a pointer-hashed set.
    std::vector<std::unique_ptr<ir::Module>> modules;
    modules.push_back(lowerOk(R"(
        void dead(void);
        int a, b, c, out;
        int main() {
            int i = 0;
            while (i < 8) {
                if (a) { out = out + 1; } else { out = out - 1; }
                if (b) { dead(); }
                if (c) { out = out * 2; } else { dead(); }
                i = i + 1;
            }
            return out;
        }
    )"));
    for (uint64_t seed : {18u, 33u, 144u, 201u, 210u, 277u})
        modules.push_back(ir::lowerToIr(
            *instrument::instrumentUnit(*gen::generateProgram(seed))
                 .unit));

    std::vector<std::unique_ptr<char[]>> ballast;
    for (size_t m = 0; m < modules.size(); ++m) {
        ASSERT_TRUE(modules[m]);
        for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
            Compiler comp(id, OptLevel::O3);
            std::string first;
            for (unsigned round = 0; round < 6; ++round) {
                // Fragment the heap differently before each compile.
                for (unsigned k = 0; k < 50 + 37 * round; ++k)
                    ballast.push_back(std::make_unique<char[]>(
                        16 + (k * 53 + round * 97) % 3000));
                for (size_t k = round % 3; k < ballast.size(); k += 3)
                    ballast[k].reset();
                compiler::Compilation result =
                    comp.compileLowered(*modules[m]);
                ASSERT_TRUE(result.ok()) << result.error();
                std::string printed = ir::printModule(result.module());
                if (round == 0)
                    first = printed;
                else
                    ASSERT_EQ(printed, first)
                        << comp.describe() << " module " << m
                        << " round " << round;
            }
        }
    }
}

TEST(Opt, VrpRemRegression)
{
    // Listing 8b essence: equality facts folding through %.
    const std::string source = R"(
        void dead(void);
        int x;
        int main() {
            int v = x;
            if (v == 7) {
                if (v % 3 == 0) { dead(); }
            }
            return 0;
        }
    )";
    Compiler beta_o2(CompilerId::Beta, OptLevel::O2);
    auto o2_module = compileValidated(source, beta_o2);
    ASSERT_TRUE(o2_module);
    EXPECT_FALSE(callsFunction(*o2_module, "dead"));

    Compiler beta_o3(CompilerId::Beta, OptLevel::O3);
    auto o3_module = compileValidated(source, beta_o3);
    ASSERT_TRUE(o3_module);
    EXPECT_TRUE(callsFunction(*o3_module, "dead"));

    // The post-head fix commit restores it.
    Compiler beta_fixed(CompilerId::Beta, OptLevel::O3,
                        compiler::spec(CompilerId::Beta).latestIndex());
    auto fixed_module = compileValidated(source, beta_fixed);
    ASSERT_TRUE(fixed_module);
    EXPECT_FALSE(callsFunction(*fixed_module, "dead"));
}

TEST(Opt, ShiftNonzeroRelationDivergence)
{
    // Listing 9a essence: (x << y) != 0 implies x != 0.
    const std::string source = R"(
        void dead(void);
        int x, y;
        int main() {
            if (x << y) {
                if (x == 0) { dead(); }
            }
            return 0;
        }
    )";
    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_FALSE(callsFunction(*beta_module, "dead"));

    Compiler alpha(CompilerId::Alpha, OptLevel::O3);
    auto alpha_module = compileValidated(source, alpha);
    ASSERT_TRUE(alpha_module);
    EXPECT_TRUE(callsFunction(*alpha_module, "dead"));

    // alpha's post-head fix commit adds the relation.
    Compiler alpha_fixed(
        CompilerId::Alpha, OptLevel::O3,
        compiler::spec(CompilerId::Alpha).headIndex() + 1);
    auto fixed_module = compileValidated(source, alpha_fixed);
    ASSERT_TRUE(fixed_module);
    EXPECT_FALSE(callsFunction(*fixed_module, "dead"));
}

TEST(Opt, LoopUnrollEnablesForwarding)
{
    // Listing 9e shape with static globals: the loop stores &a[1] into
    // c[0] and c[1]; `!c[0]` is then false.
    const std::string source = R"(
        void dead(void);
        static int a[2];
        static int b;
        static int *c[2];
        int main() {
            for (b = 0; b < 2; b++) {
                c[b] = &a[1];
            }
            if (!c[0]) { dead(); }
            return 0;
        }
    )";
    // beta at O3: clean unroll + forwarding eliminates the call.
    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_FALSE(callsFunction(*beta_module, "dead"))
        << ir::printModule(*beta_module);

    // alpha at O1 also eliminates (no vectorizer); at O3 the
    // store-rewrite regression (freeze) blocks the fold.
    Compiler alpha_o1(CompilerId::Alpha, OptLevel::O1);
    auto o1_module = compileValidated(source, alpha_o1);
    ASSERT_TRUE(o1_module);

    Compiler alpha_o3(CompilerId::Alpha, OptLevel::O3);
    auto o3_module = compileValidated(source, alpha_o3);
    ASSERT_TRUE(o3_module);
    EXPECT_TRUE(callsFunction(*o3_module, "dead"))
        << ir::printModule(*o3_module);
}

TEST(Opt, InlinedHuskRegression)
{
    // Listing 9b essence: at O2+, alpha's IPA-clone commit keeps the
    // husk of an inlined static alive; markers inside survive.
    const std::string source = R"(
        void dead(void);
        static int g = 0;
        static void helper(void) {
            if (g) { dead(); }
        }
        int main() {
            helper();
            return 0;
        }
    )";
    Compiler alpha_o1(CompilerId::Alpha, OptLevel::O1);
    auto o1_module = compileValidated(source, alpha_o1);
    ASSERT_TRUE(o1_module);

    Compiler alpha_o3(CompilerId::Alpha, OptLevel::O3);
    auto o3_module = compileValidated(source, alpha_o3);
    ASSERT_TRUE(o3_module);
    // The husk remains as a function in the module even though main no
    // longer calls it.
    EXPECT_NE(o3_module->getFunction("helper"), nullptr);

    Compiler beta_o3(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta_o3);
    ASSERT_TRUE(beta_module);
    EXPECT_EQ(beta_module->getFunction("helper"), nullptr);
}

TEST(Opt, AliasForwardingRegression)
{
    // Listing 9c essence: forwarding a global's value across stores
    // through provably-unrelated pointers. alpha-O3's alias regression
    // clobbers everything; O1 forwards.
    const std::string source = R"(
        void dead(void);
        static char b;
        static int c;
        int main() {
            b = 0;
            int *g = &c;
            *g = 5;
            if (b != 0) { dead(); }
            return 0;
        }
    )";
    Compiler alpha_o1(CompilerId::Alpha, OptLevel::O1);
    auto o1_module = compileValidated(source, alpha_o1);
    ASSERT_TRUE(o1_module);
    EXPECT_FALSE(callsFunction(*o1_module, "dead"))
        << ir::printModule(*o1_module);

    Compiler alpha_o3(CompilerId::Alpha, OptLevel::O3);
    auto o3_module = compileValidated(source, alpha_o3);
    ASSERT_TRUE(o3_module);
    EXPECT_TRUE(callsFunction(*o3_module, "dead"))
        << ir::printModule(*o3_module);
}

//===------------------------------------------------------------------===//
// Translation validation sweep: every compiler/level must preserve
// behaviour on a battery of semantically-interesting programs.
//===------------------------------------------------------------------===//

const char *kValidationPrograms[] = {
    R"(int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; })",
    R"(int a = 7; int b = 0; int main() { return a / b + a % b; })",
    R"(char c; int main() { c = 200; return c >> 2; })",
    R"(unsigned u = 3000000000; int main() { return u > 2000000000; })",
    R"(int g; void bump(void) { g += 3; } int main() { bump(); bump(); return g; })",
    R"(void M(void); int a = 2; int main() { switch (a) { case 1: M(); break; case 2: a = 9; break; default: break; } return a; })",
    R"(int a[4] = {1,2,3,4}; int main() { int s = 0; for (int i = 0; i < 4; i++) { s += a[i]; } return s; })",
    R"(static int x = 5; int main() { int *p = &x; *p = 6; return x; })",
    R"(int main() { int a = 1, b = 2; return (a < b ? a : b) + (a && b) + (a || b); })",
    R"(void M(void); int n = 3; int main() { while (n) { M(); n--; } return n; })",
    R"(static short e; static long a = 78240; int main() { short g = a; e = a; return (e == a) ^ g; })",
    R"(int a; int main() { int r = 0; do { r++; a++; } while (a < 5); return r; })",
    R"(static int a, b; int main() { for (a = 0; a < 3; a++) { for (b = 0; b < 2; b++) { } } return a * 10 + b; })",
    R"(int f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); } int main() { return f(5); })",
    R"(char b[2]; int main() { char *e = &b[1]; *e = 7; return b[1]; })",
};

TEST(Opt, RemoveUnreachableBlocksFixesPhisOfManyDeadPredecessors)
{
    // entry -> mid -> join is the live path. Dead blocks d0..d39 sit
    // interleaved with it, chain values through each other, and feed
    // the phis of mid, join and each other.
    ir::Module m;
    ir::IrBuilder b(m);
    ir::Function *fn = m.addFunction("main", ir::IrType::i32(), false);
    ir::Param *p = fn->addParam(ir::IrType::i32(), "p");
    ir::BasicBlock *entry = fn->addBlock("entry");
    std::vector<ir::BasicBlock *> dead;
    dead.push_back(fn->addBlock("d0"));
    ir::BasicBlock *mid = fn->addBlock("mid");
    for (int i = 1; i < 40; ++i)
        dead.push_back(fn->addBlock("d" + std::to_string(i)));
    ir::BasicBlock *join = fn->addBlock("join");

    b.setInsertionBlock(entry);
    b.br(mid);
    b.setInsertionBlock(mid);
    ir::Instr *mid_phi = b.phi(ir::IrType::i32());
    mid_phi->addIncoming(m.i32Const(0), entry);
    b.br(join);
    b.setInsertionBlock(join);
    ir::Instr *join_phi = b.phi(ir::IrType::i32());
    join_phi->addIncoming(mid_phi, mid);
    b.ret(join_phi);

    // d(i) branches to d(i+1), whose phi takes d(i)'s value; even
    // blocks also feed join's phi, odd ones mid's.
    ir::Value *prev = p;
    ir::Instr *incoming_phi = nullptr;
    for (size_t i = 0; i < dead.size(); ++i) {
        b.setInsertionBlock(dead[i]);
        ir::Instr *dead_phi = i ? b.phi(ir::IrType::i32()) : nullptr;
        if (dead_phi)
            dead_phi->addIncoming(prev, dead[i - 1]);
        ir::Value *value = b.bin(ir::BinOp::Add,
                                 dead_phi ? dead_phi : prev,
                                 m.i32Const(int64_t(i)));
        ir::BasicBlock *next =
            i + 1 < dead.size() ? dead[i + 1] : join;
        if (i % 2 == 0) {
            b.condBr(b.cmp(ir::CmpPred::Eq, value, p), join, next);
            join_phi->addIncoming(value, dead[i]);
        } else {
            b.condBr(b.cmp(ir::CmpPred::Slt, value, p), mid, next);
            mid_phi->addIncoming(value, dead[i]);
        }
        if (next == join)
            join_phi->addIncoming(value, dead[i]);
        prev = value;
        incoming_phi = dead_phi;
    }
    ASSERT_NE(incoming_phi, nullptr);
    ASSERT_TRUE(ir::verifyFunction(*fn).ok())
        << ir::verifyFunction(*fn).str();

    EXPECT_EQ(ir::removeUnreachableBlocks(*fn), 40u);
    ASSERT_EQ(fn->numBlocks(), 3u);
    EXPECT_EQ(fn->blocks()[0].get(), entry);
    EXPECT_EQ(fn->blocks()[1].get(), mid);
    EXPECT_EQ(fn->blocks()[2].get(), join);
    for (size_t i = 0; i < fn->numBlocks(); ++i)
        EXPECT_EQ(fn->blocks()[i]->indexInFn(), i);
    ASSERT_EQ(mid_phi->numOperands(), 1u);
    EXPECT_EQ(mid_phi->blockOperands()[0], entry);
    ASSERT_EQ(join_phi->numOperands(), 1u);
    EXPECT_EQ(join_phi->operand(0), mid_phi);
    // The dead chain's uses are gone from the live values' user lists.
    EXPECT_FALSE(p->hasUsers());
    ASSERT_EQ(mid_phi->users().size(), 1u);
    EXPECT_EQ(mid_phi->users()[0], join_phi);
    EXPECT_TRUE(ir::verifyFunction(*fn).ok())
        << ir::verifyFunction(*fn).str();
    EXPECT_EQ(ir::removeUnreachableBlocks(*fn), 0u);
}

class ValidationSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ValidationSweep, OptimizedBehaviourMatchesO0)
{
    auto [compiler_index, program_index] = GetParam();
    CompilerId id = compiler_index == 0 ? CompilerId::Alpha
                                        : CompilerId::Beta;
    const char *source = kValidationPrograms[program_index];
    for (OptLevel level : compiler::allOptLevels()) {
        Compiler comp(id, level);
        compileValidated(source, comp);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, ValidationSweep,
    ::testing::Combine(
        ::testing::Range(0, 2),
        ::testing::Range(0, static_cast<int>(
                                std::size(kValidationPrograms)))));

} // namespace
} // namespace dce
