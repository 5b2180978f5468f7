#include "core/analysis.hpp"

#include <vector>

#include "backend/codegen.hpp"
#include "compiler/compilation.hpp"
#include "ir/lowering.hpp"

namespace dce::core {

using instrument::Instrumented;
using instrument::markerIndex;

std::set<unsigned>
aliveMarkersInAsm(const std::string &assembly)
{
    std::set<unsigned> alive;
    for (const std::string &symbol : backend::calledSymbols(assembly)) {
        if (auto index = markerIndex(symbol))
            alive.insert(*index);
    }
    return alive;
}

std::set<unsigned>
aliveMarkers(const lang::TranslationUnit &unit,
             const compiler::Compiler &comp)
{
    return comp.compile(unit).survivingMarkers();
}

std::set<unsigned>
aliveMarkers(const ir::Module &lowered, const compiler::Compiler &comp,
             compiler::BuildObservers observers, SurvivalSource source)
{
    // An O0 build runs no pass: its optimized module is the lowering
    // itself, so read survival there instead of cloning it. (Assembly
    // still needs a clone: codegen's phi demotion mutates the module.)
    if (comp.level() == compiler::OptLevel::O0 &&
        source == SurvivalSource::Ir)
        return compiler::survivingMarkersInIr(lowered);
    compiler::Compilation result =
        comp.compileLowered(lowered, /*verify_each=*/false, observers);
    if (source == SurvivalSource::Assembly)
        return aliveMarkersInAsm(result.assembly());
    return result.survivingMarkers();
}

GroundTruth
groundTruthFor(const ir::Module &lowered, unsigned marker_count)
{
    GroundTruth truth;
    interp::ExecLimits limits;
    limits.recordBlocks = true;
    interp::ExecResult result = interp::execute(lowered, "main", limits);
    truth.status = result.status;
    if (!result.ok())
        return truth; // timeout/trap: unusable for ground truth
    truth.valid = true;
    truth.executedBlocks = std::move(result.executedBlocks);
    for (const std::string &name : result.calledExternals) {
        if (auto index = markerIndex(name))
            truth.aliveMarkers.insert(*index);
    }
    for (unsigned m = 0; m < marker_count; ++m) {
        if (!truth.aliveMarkers.count(m))
            truth.deadMarkers.insert(m);
    }
    return truth;
}

GroundTruth
groundTruth(const Instrumented &prog)
{
    auto module = ir::lowerToIr(*prog.unit);
    return groundTruthFor(*module, prog.markerCount());
}

//===------------------------------------------------------------------===//
// Primary missed-block analysis (§3.2)
//===------------------------------------------------------------------===//

PrimaryAnalysis::PrimaryAnalysis(const ir::Module &lowered,
                                 const GroundTruth &truth)
{
    // Interprocedural CFG view over the O0 module: per-block
    // predecessor lists, where a function entry's predecessors are all
    // blocks containing calls to it. Blocks are numbered in module
    // layout order, the numbering of GroundTruth::executedBlocks.
    const auto &functions = lowered.functions();
    std::vector<uint32_t> first_block(functions.size() + 1, 0);
    for (size_t f = 0; f < functions.size(); ++f) {
        first_block[f + 1] =
            first_block[f] +
            static_cast<uint32_t>(functions[f]->numBlocks());
    }
    const uint32_t num_blocks = first_block.back();
    auto entry_of = [&](const ir::Function *fn) {
        for (size_t f = 0; f < functions.size(); ++f) {
            if (functions[f].get() == fn)
                return first_block[f];
        }
        return kNoBlock;
    };

    // (to, from) edges and (block, marker) pairs in walk order; both
    // become CSR arrays with a stable counting sort.
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    std::vector<std::pair<uint32_t, unsigned>> markers;
    for (size_t f = 0; f < functions.size(); ++f) {
        for (const auto &block : functions[f]->blocks()) {
            const uint32_t from = first_block[f] + block->indexInFn();
            for (ir::BasicBlock *succ : block->successors())
                edges.emplace_back(first_block[f] + succ->indexInFn(), from);
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() != ir::Opcode::Call)
                    continue;
                const ir::Function *callee = instr->callee;
                if (callee->isDeclaration()) {
                    if (auto index = markerIndex(callee->name())) {
                        if (*index >= markerBlock_.size())
                            markerBlock_.resize(*index + 1, kNoBlock);
                        markerBlock_[*index] = from;
                        markers.emplace_back(from, *index);
                    }
                    continue;
                }
                // Call edge: the calling block reaches the callee's
                // entry.
                edges.emplace_back(entry_of(callee), from);
            }
        }
    }
    auto to_csr = [num_blocks](const auto &pairs, auto &begin,
                               auto &flat) {
        begin.assign(num_blocks + 1, 0);
        for (const auto &[block, item] : pairs)
            ++begin[block + 1];
        for (uint32_t b = 0; b < num_blocks; ++b)
            begin[b + 1] += begin[b];
        flat.resize(pairs.size());
        std::vector<uint32_t> fill(begin.begin(), begin.end() - 1);
        for (const auto &[block, item] : pairs)
            flat[fill[block]++] = item;
    };
    to_csr(edges, predBegin_, preds_);
    to_csr(markers, markerBegin_, blockMarkers_);

    valid_ = truth.valid && truth.executedBlocks.size() == num_blocks;
    if (valid_)
        executedBlocks_ = truth.executedBlocks;
}

PrimaryAnalysis::PrimaryAnalysis(const ir::Module &lowered)
    : PrimaryAnalysis(lowered, groundTruthFor(lowered, 0))
{
}

std::set<unsigned>
PrimaryAnalysis::primary(const std::set<unsigned> &missed) const
{
    if (missed.empty())
        return {};
    if (!valid_)
        return missed; // no block truth: be safe, keep everything

    // (contains_missed_dead_marker, contains_any_marker).
    auto block_state = [&](uint32_t block) -> std::pair<bool, bool> {
        bool has_missed = false;
        for (uint32_t i = markerBegin_[block]; i < markerBegin_[block + 1];
             ++i)
            has_missed |= missed.count(blockMarkers_[i]) != 0;
        return {has_missed, markerBegin_[block] != markerBegin_[block + 1]};
    };

    std::set<unsigned> primary;
    std::vector<uint32_t> worklist;
    // visited[b] == stamp marks b as seen by the current marker's walk.
    std::vector<uint32_t> visited(predBegin_.size() - 1, 0);
    uint32_t stamp = 0;
    for (unsigned marker : missed) {
        if (marker >= markerBlock_.size() ||
            markerBlock_[marker] == kNoBlock)
            continue; // marker vanished at lowering (front-end DCE)
        const uint32_t origin = markerBlock_[marker];

        // Backwards reachability from the marker's block through dead
        // territory. Hitting an executed (live) block ends that path
        // per the Definition (live predecessors are fine); hitting a
        // block with a *detected* dead marker also ends it; hitting a
        // block with another *missed* dead marker makes `marker`
        // secondary.
        bool secondary = false;
        ++stamp;
        visited[origin] = stamp;
        worklist.assign(preds_.begin() + predBegin_[origin],
                        preds_.begin() + predBegin_[origin + 1]);
        while (!worklist.empty()) {
            const uint32_t block = worklist.back();
            worklist.pop_back();
            if (visited[block] == stamp)
                continue;
            visited[block] = stamp;
            if (executedBlocks_[block])
                continue; // live predecessor: fine
            auto [has_missed, has_any_marker] = block_state(block);
            if (has_missed) {
                secondary = true;
                break;
            }
            if (has_any_marker)
                continue; // detected dead marker: root cause resolved
            // Dead, markerless: keep walking up.
            worklist.insert(worklist.end(),
                            preds_.begin() + predBegin_[block],
                            preds_.begin() + predBegin_[block + 1]);
        }
        if (!secondary)
            primary.insert(marker);
    }
    return primary;
}

std::set<unsigned>
primaryMissedMarkers(const ir::Module &lowered,
                     const std::set<unsigned> &missed,
                     const GroundTruth &truth)
{
    if (missed.empty() || !truth.valid)
        return {};
    return PrimaryAnalysis(lowered, truth).primary(missed);
}

std::set<unsigned>
primaryMissedMarkers(const Instrumented &prog,
                     const std::set<unsigned> &missed,
                     const GroundTruth &truth)
{
    if (missed.empty() || !truth.valid)
        return {};
    auto module = ir::lowerToIr(*prog.unit);
    return primaryMissedMarkers(*module, missed, truth);
}

} // namespace dce::core
