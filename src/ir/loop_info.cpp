#include "ir/loop_info.hpp"

#include <algorithm>

#include "ir/cfg.hpp"
#include "support/trace.hpp"

namespace dce::ir {

std::vector<BasicBlock *>
Loop::exitBlocks() const
{
    std::vector<BasicBlock *> exits;
    for (BasicBlock *block : blocks) {
        for (BasicBlock *succ : block->successors()) {
            if (!contains(succ) &&
                std::find(exits.begin(), exits.end(), succ) == exits.end()) {
                exits.push_back(succ);
            }
        }
    }
    return exits;
}

BasicBlock *
Loop::preheader(const PredecessorMap &preds) const
{
    BasicBlock *candidate = nullptr;
    for (BasicBlock *pred : preds.at(header)) {
        if (contains(pred))
            continue;
        if (candidate && candidate != pred)
            return nullptr; // multiple outside predecessors
        candidate = pred;
    }
    if (!candidate)
        return nullptr;
    if (candidate->successors().size() != 1)
        return nullptr;
    return candidate;
}

unsigned
Loop::depth() const
{
    unsigned d = 1;
    for (const Loop *p = parent; p; p = p->parent)
        ++d;
    return d;
}

LoopInfo::LoopInfo(const Function &fn, const DominatorTree &domtree)
{
    support::TraceSpan span("loopinfo", "analysis");
    if (fn.isDeclaration())
        return;
    auto preds = predecessorMap(fn);

    // Find back edges: latch -> header where header dominates latch.
    // Group by header (a header can have several latches).
    std::unordered_map<BasicBlock *, Loop *> loop_of_header;
    for (BasicBlock *block : domtree.rpo()) {
        for (BasicBlock *succ : block->successors()) {
            if (!domtree.dominates(succ, block))
                continue;
            Loop *&loop = loop_of_header[succ];
            if (!loop) {
                loops_.push_back(std::make_unique<Loop>());
                loop = loops_.back().get();
                loop->header = succ;
            }
            loop->latches.push_back(block);
        }
    }

    // Build each loop body by walking predecessors from the latches,
    // then lay it out in function order. in_loop is indexed by
    // indexInFn() and cleared again after each loop.
    std::vector<unsigned char> in_loop(fn.blocks().size(), 0);
    std::vector<BasicBlock *> worklist;
    for (auto &loop : loops_) {
        in_loop[loop->header->indexInFn()] = 1;
        loop->blocks.push_back(loop->header);
        worklist.assign(loop->latches.begin(), loop->latches.end());
        while (!worklist.empty()) {
            BasicBlock *block = worklist.back();
            worklist.pop_back();
            if (in_loop[block->indexInFn()])
                continue;
            in_loop[block->indexInFn()] = 1;
            loop->blocks.push_back(block);
            for (BasicBlock *pred : preds.at(block)) {
                if (domtree.isReachable(pred) && !in_loop[pred->indexInFn()])
                    worklist.push_back(pred);
            }
        }
        std::sort(loop->blocks.begin(), loop->blocks.end(),
                  [](const BasicBlock *a, const BasicBlock *b) {
                      return a->indexInFn() < b->indexInFn();
                  });
        loop->members.assign(loop->blocks.begin(), loop->blocks.end());
        std::sort(loop->members.begin(), loop->members.end(),
                  std::less<const BasicBlock *>());
        for (const BasicBlock *block : loop->blocks)
            in_loop[block->indexInFn()] = 0;
    }

    // Sort outermost (largest) first so nesting links are easy to set;
    // equal sizes go in header layout order (headers are distinct).
    std::sort(loops_.begin(), loops_.end(),
              [](const auto &a, const auto &b) {
                  if (a->blocks.size() != b->blocks.size())
                      return a->blocks.size() > b->blocks.size();
                  return a->header->indexInFn() < b->header->indexInFn();
              });

    // Nesting: the innermost loop containing a header (other than the
    // loop itself) is the parent.
    for (size_t i = 0; i < loops_.size(); ++i) {
        for (size_t j = i + 1; j < loops_.size(); ++j) {
            if (loops_[i]->contains(loops_[j]->header) &&
                loops_[i].get() != loops_[j].get()) {
                // loops_ sorted by size descending, so j is nested in i;
                // keep the innermost parent (latest i that contains j).
                loops_[j]->parent = loops_[i].get();
            }
        }
    }
    for (auto &loop : loops_) {
        if (loop->parent)
            loop->parent->subloops.push_back(loop.get());
    }

    // innermost_ map: smaller loops overwrite larger ones.
    for (auto &loop : loops_) {
        for (BasicBlock *block : loop->blocks)
            innermost_[block] = loop.get();
    }
}

Loop *
LoopInfo::loopFor(const BasicBlock *block) const
{
    auto it = innermost_.find(block);
    return it == innermost_.end() ? nullptr : it->second;
}

} // namespace dce::ir
