#include "ir/cfg.hpp"

#include <algorithm>

namespace dce::ir {

PredecessorMap::PredecessorMap(const Function &fn)
{
    lists_.resize(fn.numBlocks());
    for (const auto &block : fn.blocks()) {
        for (BasicBlock *succ : block->successors())
            lists_[succ->indexInFn()].push_back(block.get());
    }
}

namespace {

/** Fill @p reachable (resized to fn's block count) with reachable-
 * from-entry flags. */
void
markReachable(const Function &fn, std::vector<unsigned char> &reachable)
{
    reachable.assign(fn.numBlocks(), 0);
    if (fn.isDeclaration())
        return;
    // Per-thread scratch: reset here, never live across another walk.
    thread_local std::vector<const BasicBlock *> worklist;
    worklist.assign(1, fn.entry());
    reachable[fn.entry()->indexInFn()] = 1;
    while (!worklist.empty()) {
        const BasicBlock *block = worklist.back();
        worklist.pop_back();
        for (BasicBlock *succ : block->successors()) {
            unsigned char &seen = reachable[succ->indexInFn()];
            if (!seen) {
                seen = 1;
                worklist.push_back(succ);
            }
        }
    }
}

} // namespace

std::unordered_set<const BasicBlock *>
reachableBlocks(const Function &fn)
{
    std::vector<unsigned char> flags;
    markReachable(fn, flags);
    std::unordered_set<const BasicBlock *> reachable;
    for (const auto &block : fn.blocks()) {
        if (flags[block->indexInFn()])
            reachable.insert(block.get());
    }
    return reachable;
}

std::vector<BasicBlock *>
reversePostorder(const Function &fn)
{
    std::vector<BasicBlock *> order;
    if (fn.isDeclaration())
        return order;
    order.reserve(fn.numBlocks());

    // Iterative DFS to avoid stack overflow on long CFG chains. Each
    // frame walks the block's successor list in place — terminators
    // are not mutated during the walk.
    struct Frame {
        BasicBlock *block;
        const support::SmallVector<BasicBlock *, 2> *succs;
        size_t next = 0;
    };
    thread_local std::vector<unsigned char> visited;
    thread_local std::vector<Frame> stack;
    visited.assign(fn.numBlocks(), 0);
    stack.clear();
    visited[fn.entry()->indexInFn()] = 1;
    stack.push_back({fn.entry(), &fn.entry()->successors(), 0});
    while (!stack.empty()) {
        Frame &frame = stack.back();
        if (frame.next < frame.succs->size()) {
            BasicBlock *succ = (*frame.succs)[frame.next++];
            unsigned char &seen = visited[succ->indexInFn()];
            if (!seen) {
                seen = 1;
                stack.push_back({succ, &succ->successors(), 0});
            }
        } else {
            order.push_back(frame.block);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

unsigned
removeUnreachableBlocks(Function &fn)
{
    if (fn.isDeclaration())
        return 0;
    // Per-thread scratch, reset by markReachable.
    thread_local std::vector<unsigned char> reachable;
    markReachable(fn, reachable);
    size_t live = 0;
    for (unsigned char flag : reachable)
        live += flag;
    if (live == reachable.size())
        return 0;

    // Only a doomed block's live successors can carry phi entries for
    // it; drop those, then erase every doomed block in one compaction.
    for (const auto &block : fn.blocks()) {
        if (reachable[block->indexInFn()])
            continue;
        for (BasicBlock *succ : block->successors()) {
            if (reachable[succ->indexInFn()])
                succ->removePhiIncomingFor(block.get());
        }
    }
    fn.eraseBlocksExcept(reachable);
    return static_cast<unsigned>(reachable.size() - live);
}

} // namespace dce::ir
