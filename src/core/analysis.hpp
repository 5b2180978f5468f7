/**
 * @file
 * The paper's core machinery (§3): marker liveness per compiler build,
 * execution-derived ground truth, missed-marker differentials, and the
 * primary-missed-block analysis (§3.2).
 *
 * Terminology matches the paper:
 *  - Comp(M) = alive  <=>  `call DCEMarkerM` appears in Comp's assembly;
 *  - a marker is *truly dead* iff it never executes (the programs are
 *    deterministic and input-free, so one run decides);
 *  - Comp *misses* M iff Comp(M) = alive but M is truly dead;
 *  - a missed M is *primary* iff no CFG-predecessor block of M's block
 *    is itself missed-dead (Definition, §3.2).
 */
#pragma once

#include <set>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "instrument/instrument.hpp"
#include "interp/interpreter.hpp"

namespace dce::core {

/** Markers whose calls survive in @p assembly. */
std::set<unsigned> aliveMarkersInAsm(const std::string &assembly);

/**
 * Where a build's alive-marker set is read from. The two sources are
 * byte-identical by construction (the backend emits every call of
 * every function with a body — see compiler::survivingMarkersInIr);
 * Ir is the hot path, Assembly the paper's original black-box recipe,
 * kept selectable so the equivalence stays a tested invariant rather
 * than an assumption.
 */
enum class SurvivalSource {
    Ir,       ///< walk the optimized IR (no codegen — the fast path)
    Assembly, ///< emit assembly and grep it (the paper's method)
};

/**
 * Compile the instrumented unit with @p comp and return the alive
 * marker set Comp(M) — step (2)+(3) of Figure 1 for one build.
 */
std::set<unsigned> aliveMarkers(const lang::TranslationUnit &unit,
                                const compiler::Compiler &comp);

/**
 * Same, but from an already-lowered O0 module (not modified): the
 * build's pipeline runs over an ir::cloneModule copy. Lower once with
 * ir::lowerToIr, then call this once per build — the campaign engine's
 * lowering cache in miniature. An O0 build runs no pass, so with the
 * Ir source it reads @p lowered directly and clones nothing.
 *
 * @param observers optional remark/metric sinks for the build's
 *        pipeline run (DESIGN.md §9).
 * @param source    read survival from IR (default) or assembly.
 */
std::set<unsigned>
aliveMarkers(const ir::Module &lowered, const compiler::Compiler &comp,
             compiler::BuildObservers observers = {},
             SurvivalSource source = SurvivalSource::Ir);

/** Ground truth from execution. */
struct GroundTruth {
    bool valid = false; ///< program executed to completion
    /** Why execution failed when !valid (Ok when valid). */
    interp::ExecStatus status = interp::ExecStatus::Ok;
    std::set<unsigned> aliveMarkers; ///< executed at least once
    std::set<unsigned> deadMarkers;  ///< never executed
    /** Blocks the run entered, in module layout order
     * (interp::ExecResult::executedBlocks) — the block-level ground
     * truth PrimaryAnalysis needs, so the program executes once. */
    std::vector<unsigned char> executedBlocks;
};

GroundTruth groundTruth(const instrument::Instrumented &prog);

/** Ground truth from an already-lowered O0 module of a program with
 * @p marker_count markers. */
GroundTruth groundTruthFor(const ir::Module &lowered,
                           unsigned marker_count);

/** Set helpers over markers. */
inline std::set<unsigned>
setMinus(const std::set<unsigned> &a, const std::set<unsigned> &b)
{
    std::set<unsigned> out;
    for (unsigned m : a) {
        if (!b.count(m))
            out.insert(m);
    }
    return out;
}

inline std::set<unsigned>
setIntersect(const std::set<unsigned> &a, const std::set<unsigned> &b)
{
    std::set<unsigned> out;
    for (unsigned m : a) {
        if (b.count(m))
            out.insert(m);
    }
    return out;
}

/** Markers a build failed to eliminate although they are truly dead. */
inline std::set<unsigned>
missedMarkers(const std::set<unsigned> &alive_in_asm,
              const GroundTruth &truth)
{
    return setIntersect(alive_in_asm, truth.deadMarkers);
}

/**
 * §3.2's primary-missed-block analysis, factored so its per-program
 * setup — the interprocedural CFG over the O0 lowering — is built once
 * and then queried per build. A missed marker is secondary when a
 * backwards walk from its block, through dead detected-or-markerless
 * blocks, reaches another missed marker's block. Block-level liveness
 * comes from the ground-truth run (GroundTruth::executedBlocks); the
 * program is not executed again.
 *
 * Per-block state is keyed by module layout position (functions in
 * order, blocks in order) in flat arrays.
 */
class PrimaryAnalysis {
  public:
    /** @param truth ground truth of @p lowered, or of another lowering
     *        of the same unit (lowering is deterministic, so the block
     *        layouts agree). A truth whose block record does not match
     *        the layout counts as invalid. */
    PrimaryAnalysis(const ir::Module &lowered, const GroundTruth &truth);

    /** Runs the ground-truth execution itself, so the program executes
     * a second time. Kept only for the workflow benchmark's traced
     * pipeline (perfbench/pipeline.cpp), which already holds the
     * truth; delete it in the change that makes that pipeline pass
     * its truth, leaving the single-execution constructor above. */
    explicit PrimaryAnalysis(const ir::Module &lowered);

    /** Block-level ground truth executed cleanly; when false,
     * primary() degrades to the identity (be safe, report all). */
    bool valid() const { return valid_; }

    /** The primary subset of @p missed (a build's dead-but-alive-in-
     * assembly markers). */
    std::set<unsigned> primary(const std::set<unsigned> &missed) const;

  private:
    static constexpr uint32_t kNoBlock = UINT32_MAX;

    bool valid_ = false;
    /** Predecessors of block b: preds_[predBegin_[b] .. predBegin_[b+1]). */
    std::vector<uint32_t> predBegin_;
    std::vector<uint32_t> preds_;
    /** Markers in block b: blockMarkers_[markerBegin_[b] .. [b+1]). */
    std::vector<uint32_t> markerBegin_;
    std::vector<unsigned> blockMarkers_;
    /** Block holding each marker's call, kNoBlock if none. */
    std::vector<uint32_t> markerBlock_;
    std::vector<unsigned char> executedBlocks_;
};

/**
 * §3.2 one-shot convenience: lower @p prog at O0 and run the analysis.
 * Prefer PrimaryAnalysis (or the lowered-module overload) when
 * filtering several builds of the same program.
 *
 * @param prog     the instrumented program
 * @param missed   the build's missed (dead but alive-in-asm) markers
 * @param truth    execution ground truth (must be valid)
 */
std::set<unsigned> primaryMissedMarkers(
    const instrument::Instrumented &prog,
    const std::set<unsigned> &missed, const GroundTruth &truth);

/** Same over an existing O0 lowering of the instrumented program. */
std::set<unsigned> primaryMissedMarkers(
    const ir::Module &lowered, const std::set<unsigned> &missed,
    const GroundTruth &truth);

} // namespace dce::core
