/**
 * @file
 * Natural-loop detection from back edges. Consumed by the loop
 * optimizations (rotation, unswitching, unrolling, the vectorizer-like
 * rewrite) and by the generator's termination reasoning in tests.
 */
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/dominators.hpp"
#include "ir/ir.hpp"

namespace dce::ir {

/** One natural loop: header plus the set of blocks that reach the back
 * edge without leaving the header's dominance region. */
struct Loop {
    BasicBlock *header = nullptr;
    /** Blocks in the loop, header included, in function layout order.
     * Passes pick branches and order cloned regions by iterating this,
     * so its order must never depend on heap addresses. */
    std::vector<BasicBlock *> blocks;
    /** The same blocks sorted by address: a lookup index for
     * contains(), never to be iterated. */
    std::vector<const BasicBlock *> members;
    /** Back-edge sources (latches). */
    std::vector<BasicBlock *> latches;
    /** Enclosing loop, or null for top-level loops. */
    Loop *parent = nullptr;
    std::vector<Loop *> subloops;

    bool contains(const BasicBlock *block) const
    {
        return std::binary_search(members.begin(), members.end(), block,
                                  std::less<const BasicBlock *>());
    }

    /** Blocks outside the loop that loop blocks branch to. */
    std::vector<BasicBlock *> exitBlocks() const;

    /** The unique pre-header predecessor (outside block whose only
     * successor is the header), or null. */
    BasicBlock *preheader(const PredecessorMap &preds) const;

    /** Loop nest depth; top-level = 1. */
    unsigned depth() const;
};

/** All natural loops of a function, outermost first; loops of equal
 * size in the layout order of their headers. */
class LoopInfo {
  public:
    LoopInfo(const Function &fn, const DominatorTree &domtree);

    const std::vector<std::unique_ptr<Loop>> &loops() const
    {
        return loops_;
    }

    /** Innermost loop containing @p block, or null. */
    Loop *loopFor(const BasicBlock *block) const;

  private:
    std::vector<std::unique_ptr<Loop>> loops_;
    std::unordered_map<const BasicBlock *, Loop *> innermost_;
};

} // namespace dce::ir
