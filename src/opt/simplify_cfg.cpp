/**
 * @file
 * CFG cleanup: fold constant branches, remove unreachable blocks,
 * collapse trivial phis, merge straight-line block chains, and skip
 * empty forwarding blocks. This is the mechanical half of dead-code
 * elimination — the analyses under test (SCCP, globalopt, VRP, ...)
 * are what *make* branches constant; SimplifyCFG then deletes the dead
 * arms.
 */
#include <algorithm>

#include "ir/cfg.hpp"
#include "opt/pass.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::Constant;
using ir::Function;
using ir::Instr;
using ir::Module;
using ir::Opcode;
using ir::Value;

namespace {

class SimplifyCfg : public Pass {
  public:
    std::string name() const override { return "simplifycfg"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        if (!config.simplifyCfg)
            return false;
        ctx_ = &ctx;
        bool changed = false;
        for (const auto &fn : module.functions()) {
            if (fn->isDeclaration())
                continue;
            while (iterate(*fn))
                changed = true;
        }
        ctx_ = nullptr;
        return changed;
    }

  private:
    /** One cleanup sweep; returns true if anything changed. */
    bool
    iterate(Function &fn)
    {
        bool changed = false;
        changed |= removeUnreachable(fn, "dangling unreachable code");
        if (foldConstantTerminators(fn)) {
            changed = true;
            changed |= removeUnreachable(fn, "constant branch folded");
        }
        changed |= collapseTrivialPhis(fn);
        changed |= mergeStraightLineChains(fn);
        changed |= skipForwardingBlocks(fn);
        return changed;
    }

    /** removeUnreachableBlocks with remark hooks: any marker call in a
     * block about to be deleted gets a detail remark first. */
    bool
    removeUnreachable(Function &fn, const char *why)
    {
        if (ctx_ && ctx_->wantRemarks())
            reportUnreachableMarkerCalls(fn, name(), *ctx_, why);
        return ir::removeUnreachableBlocks(fn) > 0;
    }

    bool
    foldConstantTerminators(Function &fn)
    {
        bool changed = false;
        for (const auto &block : fn.blocks()) {
            Instr *term = block->terminator();
            if (!term)
                continue;
            if (term->opcode() == Opcode::CondBr) {
                BasicBlock *t = term->blockOperands()[0];
                BasicBlock *f = term->blockOperands()[1];
                Value *cond = term->operand(0);
                if (cond->isConstant()) {
                    bool taken =
                        !static_cast<Constant *>(cond)->isZero();
                    BasicBlock *target = taken ? t : f;
                    BasicBlock *dropped = taken ? f : t;
                    replaceTerminatorWithBr(*block, term, target);
                    if (dropped != target)
                        dropped->removePhiIncomingFor(block.get());
                    changed = true;
                } else if (t == f) {
                    // Both edges to the same block: collapse, dropping
                    // the duplicate phi entries (they carry identical
                    // values when produced by our passes; bail if not).
                    if (dedupPhiEntries(*t, block.get())) {
                        replaceTerminatorWithBr(*block, term, t);
                        changed = true;
                    }
                }
            } else if (term->opcode() == Opcode::Switch &&
                       term->operand(0)->isConstant()) {
                int64_t value =
                    static_cast<Constant *>(term->operand(0))->value();
                BasicBlock *target = term->blockOperands()[0];
                for (size_t i = 0; i < term->caseValues.size(); ++i) {
                    if (term->caseValues[i] == value) {
                        target = term->blockOperands()[i + 1];
                        break;
                    }
                }
                std::vector<BasicBlock *> all(
                    term->blockOperands().begin(),
                    term->blockOperands().end());
                replaceTerminatorWithBr(*block, term, target);
                for (BasicBlock *succ : all) {
                    if (succ != target)
                        succ->removePhiIncomingFor(block.get());
                }
                changed = true;
            }
        }
        return changed;
    }

    /** If @p pred reaches @p block through multiple edges, its phis
     * have several entries for pred. Keep one entry iff all values
     * agree. @return true if afterwards at most one entry remains. */
    bool
    dedupPhiEntries(BasicBlock &block, BasicBlock *pred)
    {
        for (Instr *phi : block.phis()) {
            Value *seen = nullptr;
            for (size_t i = 0; i < phi->blockOperands().size(); ++i) {
                if (phi->blockOperands()[i] != pred)
                    continue;
                if (seen && phi->operand(i) != seen)
                    return false;
                seen = phi->operand(i);
            }
        }
        for (Instr *phi : block.phis()) {
            bool kept = false;
            for (size_t i = phi->blockOperands().size(); i-- > 0;) {
                if (phi->blockOperands()[i] != pred)
                    continue;
                if (kept)
                    phi->removeIncoming(i);
                kept = true;
            }
        }
        return true;
    }

    void
    replaceTerminatorWithBr(BasicBlock &block, Instr *term,
                            BasicBlock *target)
    {
        block.erase(term);
        auto br = block.parent()->parent()->newInstr(Opcode::Br,
                                          ir::IrType::voidTy());
        br->addBlockOperand(target);
        block.append(std::move(br));
    }

    bool
    collapseTrivialPhis(Function &fn)
    {
        bool changed = false;
        for (const auto &block : fn.blocks()) {
            // Index walk: erasing a phi shifts the ones after it.
            for (size_t p = 0; p < block->size() &&
                               block->instrs()[p]->opcode() == Opcode::Phi;) {
                Instr *phi = block->instrs()[p].get();
                // Single distinct incoming value (or self-references
                // plus one value) collapses to that value.
                Value *unique_value = nullptr;
                bool trivial = true;
                for (size_t i = 0; i < phi->numOperands(); ++i) {
                    Value *incoming = phi->operand(i);
                    if (incoming == phi)
                        continue;
                    if (unique_value && incoming != unique_value) {
                        trivial = false;
                        break;
                    }
                    unique_value = incoming;
                }
                if (trivial && unique_value) {
                    phi->replaceAllUsesWith(unique_value);
                    block->erase(phi);
                    changed = true;
                } else {
                    ++p;
                }
            }
        }
        return changed;
    }

    bool
    mergeStraightLineChains(Function &fn)
    {
        // One sweep merges every straight-line chain. Incoming-edge
        // counts are kept incrementally: merging B into A neither
        // changes any surviving block's count (A inherits B's edges
        // one-for-one) nor invalidates indexes, because emptied blocks
        // are erased only after the sweep.
        std::vector<unsigned> &pred_count = predCount_;
        pred_count.assign(fn.numBlocks(), 0);
        for (const auto &owned : fn.blocks()) {
            for (BasicBlock *succ : owned->successors())
                ++pred_count[succ->indexInFn()];
        }
        std::vector<BasicBlock *> &emptied = doomed_;
        emptied.clear();
        for (const auto &owned : fn.blocks()) {
            BasicBlock *pred = owned.get();
            // Chain-walk: after one merge, pred's new terminator may
            // immediately qualify for the next.
            for (;;) {
                Instr *term = pred->terminator();
                if (!term || term->opcode() != Opcode::Br)
                    break;
                BasicBlock *block = term->blockOperands()[0];
                if (block == pred || block == fn.entry())
                    break;
                if (pred_count[block->indexInFn()] != 1)
                    break;
                // Phis in a single-pred block are trivial; collapse
                // first.
                while (block->front()->opcode() == Opcode::Phi) {
                    Instr *phi = block->front();
                    phi->replaceAllUsesWith(phi->operand(0));
                    block->erase(phi);
                }
                // Splice block's instructions into pred.
                pred->erase(term);
                while (!block->empty()) {
                    ir::InstrPtr moved =
                        block->detach(block->front());
                    pred->reattach(std::move(moved));
                }
                // Successors' phis must now name pred.
                for (BasicBlock *succ : pred->successors())
                    succ->replacePhiIncomingBlock(block, pred);
                pred_count[block->indexInFn()] = 0;
                emptied.push_back(block);
            }
        }
        for (BasicBlock *block : emptied)
            fn.eraseBlock(block);
        return !emptied.empty();
    }

    bool
    skipForwardingBlocks(Function &fn)
    {
        // One sweep over all forwarding blocks. Predecessor lists are
        // maintained incrementally across redirects (a redirect only
        // changes the lists of the skipped block and its target), and
        // skipped blocks are erased after the sweep so indexes stay
        // stable. Candidates this sweep passes over (e.g. a conflict
        // that a later redirect resolves) are picked up by the
        // caller's fixpoint loop.
        std::vector<BlockList> &preds = preds_;
        if (preds.size() < fn.numBlocks())
            preds.resize(fn.numBlocks());
        for (size_t b = 0; b < fn.numBlocks(); ++b)
            preds[b].clear();
        for (const auto &owned : fn.blocks()) {
            for (BasicBlock *succ : owned->successors())
                preds[succ->indexInFn()].push_back(owned.get());
        }
        std::vector<BasicBlock *> &skipped = doomed_;
        skipped.clear();
        for (const auto &owned : fn.blocks()) {
            BasicBlock *block = owned.get();
            if (block == fn.entry())
                continue;
            Instr *term = block->terminator();
            if (!term || term->opcode() != Opcode::Br ||
                block->size() != 1) {
                continue;
            }
            BasicBlock *target = term->blockOperands()[0];
            if (target == block)
                continue;
            BlockList &block_preds = preds[block->indexInFn()];
            if (block_preds.empty())
                continue;
            // Ambiguity guard: if the target has phis and some pred
            // already branches to it, redirecting would create
            // duplicate-pred entries with possibly different values.
            if (!target->phis().empty()) {
                bool conflict = false;
                for (BasicBlock *pred : block_preds) {
                    for (BasicBlock *succ : pred->successors())
                        conflict |= succ == target;
                }
                if (conflict)
                    continue;
            }
            // Redirect every incoming edge.
            for (BasicBlock *pred : block_preds)
                pred->terminator()->replaceSuccessor(block, target);
            // Each phi entry for `block` becomes one entry per pred.
            for (Instr *phi : target->phis()) {
                for (size_t i = phi->blockOperands().size(); i-- > 0;) {
                    if (phi->blockOperands()[i] != block)
                        continue;
                    Value *value = phi->operand(i);
                    phi->removeIncoming(i);
                    for (BasicBlock *pred : block_preds)
                        phi->addIncoming(value, pred);
                }
            }
            // Maintain the lists: target loses the edge from `block`
            // and gains every redirected edge; nothing reaches
            // `block` any more.
            BlockList &target_preds = preds[target->indexInFn()];
            for (size_t i = 0; i < target_preds.size(); ++i) {
                if (target_preds[i] == block) {
                    target_preds.erase(target_preds.begin() +
                                       static_cast<ptrdiff_t>(i));
                    break;
                }
            }
            for (BasicBlock *pred : block_preds)
                target_preds.push_back(pred);
            block_preds.clear();
            skipped.push_back(block);
        }
        for (BasicBlock *block : skipped)
            fn.eraseBlock(block);
        return !skipped.empty();
    }

    using BlockList = support::SmallVector<BasicBlock *, 4>;

    PassContext *ctx_ = nullptr;
    // Per-sweep scratch, reused across sweeps and functions: each
    // sweep resets what it uses on entry.
    std::vector<unsigned> predCount_;
    std::vector<BlockList> preds_;
    std::vector<BasicBlock *> doomed_;
};

} // namespace

std::unique_ptr<Pass>
createSimplifyCfgPass()
{
    return std::make_unique<SimplifyCfg>();
}

} // namespace dce::opt
