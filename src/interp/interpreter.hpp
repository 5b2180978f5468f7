/**
 * @file
 * Reference interpreter for the IR. Two roles, both central to the
 * paper's methodology:
 *
 *  1. Ground truth (§4.1): instrumented test programs are deterministic
 *     and input-free, so executing them yields the set of markers that
 *     actually run — the *alive* blocks. Every non-executed marker is
 *     dead, which is what the "ideal compiler" comparison needs.
 *
 *  2. Translation validation (our testing oracle): the optimized module
 *     must produce the same external-call trace, the same exit value,
 *     and the same final global memory as the -O0 module.
 *
 * MiniC has no undefined behavior, so the interpreter defines every
 * outcome: allocas are zero-initialized, out-of-bounds loads yield 0,
 * out-of-bounds stores are dropped, pointers to distinct objects never
 * compare equal, and arithmetic follows support/ints.hpp.
 *
 * Each execution first decodes every function with a body into flat
 * frame slots, keyed by the module's dense value ids (so every
 * value-producing instruction must carry a unique id below
 * Module::valueIdBound(), as the IR guarantees). Only the leading phis
 * of a block execute, simultaneously, on entry; every other
 * instruction costs one step.
 */
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace dce::interp {

/** A runtime pointer: object handle plus element index. obj < 0 is the
 * null pointer. */
struct PtrVal {
    int32_t obj = -1;
    int64_t index = 0;

    bool isNull() const { return obj < 0; }
    bool operator==(const PtrVal &) const = default;
};

/** A dynamically-typed runtime value (integer or pointer). */
struct IValue {
    bool isPtr = false;
    int64_t i = 0;
    PtrVal p;

    static IValue
    intValue(int64_t value)
    {
        IValue v;
        v.i = value;
        return v;
    }
    static IValue
    ptrValue(PtrVal value)
    {
        IValue v;
        v.isPtr = true;
        v.p = value;
        return v;
    }

    bool operator==(const IValue &) const = default;
};

/** Why execution stopped. */
enum class ExecStatus {
    Ok,        ///< main returned
    Timeout,   ///< step budget exhausted (program likely diverges)
    Trap,      ///< recursion-depth or stack limit hit
    NoEntry,   ///< module lacks the requested entry function
};

/** Everything observable about one execution. */
struct ExecResult {
    ExecStatus status = ExecStatus::Ok;
    int64_t exitValue = 0;
    uint64_t steps = 0;
    /** External (declaration-only) calls, in order — the program's
     * observable behaviour. Includes every executed marker. */
    std::vector<std::string> callTrace;
    /** Deduplicated set of called externals. */
    std::set<std::string> calledExternals;
    /** Final global memory (name -> slot values), for validation. */
    std::map<std::string, std::vector<IValue>> finalGlobals;
    /** Blocks entered at least once, one flag per block in module
     * layout order: the functions in Module::functions() order, each
     * function's blocks in Function::blocks() order. Empty unless
     * ExecLimits::recordBlocks was set. Layout positions, not
     * pointers: the record stays valid for any module with the same
     * layout, such as another lowering of the same unit. */
    std::vector<unsigned char> executedBlocks;

    bool ok() const { return status == ExecStatus::Ok; }
};

/** Tunable execution limits. */
struct ExecLimits {
    uint64_t maxSteps = 2'000'000;
    unsigned maxCallDepth = 128;
    /** Record which basic blocks execute (ExecResult::executedBlocks;
     * primary-marker CFG analysis needs per-block ground truth). */
    bool recordBlocks = false;
};

/**
 * Execute @p module's @p entry function with no arguments.
 * The module is not modified.
 */
ExecResult execute(const ir::Module &module,
                   const std::string &entry = "main",
                   const ExecLimits &limits = {});

/** True if two results are observably equal (status, exit value, call
 * trace, final globals) — the translation-validation criterion. */
bool observablyEqual(const ExecResult &a, const ExecResult &b);

/** Human-readable diff of two results (empty when equal). */
std::string explainDifference(const ExecResult &a, const ExecResult &b);

} // namespace dce::interp
