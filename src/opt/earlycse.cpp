/**
 * @file
 * EarlyCSE / GVN: dominator-scoped common-subexpression elimination,
 * store-to-load forwarding, redundant-load elimination, and no-op
 * store removal. The memory side is alias-aware: a store only
 * invalidates available loads that may alias it, and a call only
 * invalidates objects its transitive memory summary says it may write.
 *
 * R5 `preciseAliasForwarding`: with the flag off, *any* intervening
 * store or call invalidates everything — the regressed GCC behaviour
 * of Listing 9c (PR100051), where lost alias precision at -O3 blocked
 * a fold that -O1 performed.
 *
 * Join-block conservatism: when the dominator-tree walk descends into
 * a block with more than one CFG predecessor, paths not passing
 * through the parent may have stored, so all memory availability is
 * invalidated (LLVM EarlyCSE does the same without MemorySSA).
 */
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/dominators.hpp"
#include "opt/alias.hpp"
#include "opt/pass.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::Function;
using ir::Instr;
using ir::Module;
using ir::Opcode;
using ir::Value;

namespace {

/** Key identifying a pure expression for value numbering. */
using ExprKey = std::tuple<int,      // opcode
                           int,      // sub-operation
                           const Value *, const Value *, const Value *,
                           int,      // type bits
                           int>;     // type signedness/kind

/** Hash for ExprKey / pointer keys (FNV-style mix of the tuple). */
struct KeyHash {
    static size_t
    mix(size_t seed, uint64_t v)
    {
        seed ^= static_cast<size_t>(v * 0x9E3779B97F4A7C15ULL) +
                (seed << 6) + (seed >> 2);
        return seed;
    }
    size_t
    operator()(const std::tuple<int, int, const Value *, const Value *,
                                const Value *, int, int> &key) const
    {
        size_t h = mix(0, static_cast<uint64_t>(std::get<0>(key)));
        h = mix(h, static_cast<uint64_t>(std::get<1>(key)));
        h = mix(h, reinterpret_cast<uintptr_t>(std::get<2>(key)));
        h = mix(h, reinterpret_cast<uintptr_t>(std::get<3>(key)));
        h = mix(h, reinterpret_cast<uintptr_t>(std::get<4>(key)));
        h = mix(h, static_cast<uint64_t>(std::get<5>(key)));
        h = mix(h, static_cast<uint64_t>(std::get<6>(key)));
        return h;
    }
    size_t
    operator()(const Value *key) const
    {
        return mix(0, reinterpret_cast<uintptr_t>(key));
    }
};

/**
 * Scoped hash table with tombstones (nullptr value shadows an outer
 * entry): one hash map from key to a stack of per-scope bindings plus
 * one undo log of the keys each scope bound, so lookup is a single
 * probe and popScope unwinds exactly the bindings its scope made — the
 * standard LLVM-ScopedHashTable shape. The map and the log live as
 * long as the pass, so their buckets and capacity carry over between
 * functions. The outcome of every operation is identical to a stack of
 * per-scope maps; only the cost differs.
 */
template <typename Key>
class ScopedTable {
  public:
    void pushScope() { scopes_.push_back(undo_.size()); }

    void
    popScope()
    {
        // Inner scopes are already gone: this scope's keys are the
        // log's tail, each bound once.
        size_t mark = scopes_.back();
        scopes_.pop_back();
        for (size_t i = mark; i < undo_.size(); ++i) {
            auto it = table_.find(undo_[i]);
            it->second.pop_back();
            if (it->second.empty())
                table_.erase(it);
        }
        undo_.resize(mark);
    }

    void
    insert(const Key &key, Value *value)
    {
        unsigned scope = static_cast<unsigned>(scopes_.size() - 1);
        auto &stack = table_[key];
        if (!stack.empty() && stack.back().scope == scope) {
            stack.back().value = value;
            return;
        }
        stack.push_back({value, scope});
        undo_.push_back(key);
    }

    /** Innermost entry, or nullptr when absent or tombstoned. */
    Value *
    lookup(const Key &key) const
    {
        auto it = table_.find(key);
        if (it == table_.end())
            return nullptr;
        return it->second.back().value;
    }

    /** Invoke @p fn on every live (non-tombstoned) key, innermost
     * binding shadowing outer. Enumeration order is unspecified; every
     * caller applies an order-independent filter. The callback may
     * insert() for keys already present (tombstoning) — that never
     * rehashes, so iteration stays valid — but must not introduce new
     * keys. */
    template <typename Fn>
    void
    forEachLive(Fn fn)
    {
        for (auto &[key, stack] : table_) {
            if (stack.back().value)
                fn(key);
        }
    }

  private:
    struct Binding {
        Value *value;
        unsigned scope;
    };
    std::unordered_map<Key, support::SmallVector<Binding, 2>, KeyHash>
        table_;
    std::vector<Key> undo_;     ///< key per binding made, scope order
    std::vector<size_t> scopes_; ///< undo_ size at each pushScope
};

class EarlyCse : public Pass {
  public:
    std::string name() const override { return "earlycse"; }

    bool
    run(Module &module, const PassConfig &config, PassContext &) override
    {
        if (!config.earlyCse)
            return false;
        config_ = &config;
        escape_ = std::make_unique<EscapeInfo>(module);
        summary_ = std::make_unique<MemorySummary>(module, *escape_);
        bool changed = false;
        for (const auto &fn : module.functions()) {
            if (!fn->isDeclaration())
                changed |= runOnFunction(*fn);
        }
        escape_.reset();
        summary_.reset();
        return changed;
    }

  private:
    static bool
    isCseable(const Instr &instr)
    {
        switch (instr.opcode()) {
          case Opcode::Bin:
          case Opcode::Cmp:
          case Opcode::Cast:
          case Opcode::Gep:
          case Opcode::Select:
          case Opcode::Freeze:
            return true;
          default:
            return false;
        }
    }

    static ExprKey
    keyOf(const Instr &instr)
    {
        int sub = 0;
        switch (instr.opcode()) {
          case Opcode::Bin:
            sub = static_cast<int>(instr.binOp);
            break;
          case Opcode::Cmp:
            sub = static_cast<int>(instr.cmpPred);
            break;
          case Opcode::Cast:
            sub = static_cast<int>(instr.castOp);
            break;
          case Opcode::Gep:
            sub = static_cast<int>(instr.gepElemSize);
            break;
          default:
            break;
        }
        const Value *op0 =
            instr.numOperands() > 0 ? instr.operand(0) : nullptr;
        const Value *op1 =
            instr.numOperands() > 1 ? instr.operand(1) : nullptr;
        const Value *op2 =
            instr.numOperands() > 2 ? instr.operand(2) : nullptr;
        return {static_cast<int>(instr.opcode()), sub, op0, op1, op2,
                instr.type().bits,
                static_cast<int>(instr.type().kind) * 2 +
                    (instr.type().isSigned ? 1 : 0)};
    }

    /** Drop every available load that may alias a store to @p ptr. */
    void
    invalidateMayAlias(const Value *ptr)
    {
        memory_.forEachLive([&](const Value *key) {
            if (alias(key, ptr) != AliasResult::NoAlias)
                memory_.insert(key, nullptr);
        });
    }

    void
    invalidateAll()
    {
        memory_.forEachLive(
            [&](const Value *key) { memory_.insert(key, nullptr); });
    }

    void
    invalidateForCall(const Instr &call)
    {
        const Function *callee = call.callee;
        const bool writes_unknown = summary_->writesUnknown(callee);
        memory_.forEachLive([&](const Value *key) {
            PtrBase base = resolvePtrBase(key);
            bool clobbered;
            if (base.kind == PtrBase::Kind::Global) {
                const auto *g =
                    static_cast<const ir::GlobalVar *>(base.object);
                clobbered = summary_->mayWrite(callee, g) ||
                            (escape_->escapes(g) && writes_unknown);
            } else if (base.kind == PtrBase::Kind::Alloca) {
                clobbered =
                    escape_->escapes(base.object) && writes_unknown;
            } else {
                clobbered = true;
            }
            if (clobbered)
                memory_.insert(key, nullptr);
        });
    }

    bool
    runOnFunction(Function &fn)
    {
        ir::DominatorTree domtree(fn);
        auto preds = ir::predecessorMap(fn);

        std::vector<std::vector<BasicBlock *>> dom_children(
            fn.numBlocks());
        for (BasicBlock *block : domtree.rpo()) {
            if (const BasicBlock *parent = domtree.idom(block))
                dom_children[parent->indexInFn()].push_back(block);
        }

        bool changed = false;

        // Explicit-stack DFS so each scope pops exactly once.
        struct Action {
            BasicBlock *block;
            bool entering;
        };
        std::vector<Action> stack{{fn.entry(), true}};
        while (!stack.empty()) {
            Action action = stack.back();
            stack.pop_back();
            if (!action.entering) {
                expressions_.popScope();
                memory_.popScope();
                continue;
            }
            expressions_.pushScope();
            memory_.pushScope();
            stack.push_back({action.block, false});

            // Memory availability does not survive into join blocks:
            // off-tree paths may have stored.
            if (action.block != fn.entry() &&
                preds.at(action.block).size() != 1) {
                invalidateAll();
            }

            changed |= processBlock(*action.block);

            for (BasicBlock *child :
                 dom_children[action.block->indexInFn()])
                stack.push_back({child, true});
        }
        return changed;
    }

    bool
    processBlock(BasicBlock &block)
    {
        bool changed = false;
        for (size_t i = 0; i < block.size();) {
            Instr *instr = block.instrs()[i].get();
            if (isCseable(*instr)) {
                ExprKey key = keyOf(*instr);
                if (Value *known = expressions_.lookup(key)) {
                    instr->replaceAllUsesWith(known);
                    block.erase(instr);
                    changed = true;
                    continue;
                }
                expressions_.insert(key, instr);
            } else if (instr->opcode() == Opcode::Load) {
                Value *ptr = instr->operand(0);
                if (Value *known = memory_.lookup(ptr)) {
                    if (known->type() == instr->type()) {
                        instr->replaceAllUsesWith(known);
                        block.erase(instr);
                        changed = true;
                        continue;
                    }
                }
                memory_.insert(ptr, instr);
            } else if (instr->opcode() == Opcode::Store) {
                Value *value = instr->operand(0);
                Value *ptr = instr->operand(1);
                Value *known = memory_.lookup(ptr);
                if (known == value) {
                    // Memory already holds this value: no-op store.
                    block.erase(instr);
                    changed = true;
                    continue;
                }
                if (config_->preciseAliasForwarding)
                    invalidateMayAlias(ptr);
                else
                    invalidateAll(); // R5 regressed behaviour
                if (value->type() == memorySlotType(ptr))
                    memory_.insert(ptr, value);
            } else if (instr->opcode() == Opcode::Call) {
                if (config_->preciseAliasForwarding)
                    invalidateForCall(*instr);
                else
                    invalidateAll();
            }
            ++i;
        }
        return changed;
    }

    /** The element type behind @p ptr when derivable (guards the
     * forwarded value's type; stores always match in well-typed IR but
     * unknown-base pointers are checked defensively). */
    static ir::IrType
    memorySlotType(const Value *ptr)
    {
        PtrBase base = resolvePtrBase(ptr);
        if (base.kind == PtrBase::Kind::Global) {
            return static_cast<const ir::GlobalVar *>(base.object)
                ->elementType();
        }
        if (base.kind == PtrBase::Kind::Alloca) {
            return static_cast<const Instr *>(base.object)
                ->allocatedType;
        }
        return ir::IrType::voidTy(); // unknown: never matches
    }

    const PassConfig *config_ = nullptr;
    std::unique_ptr<EscapeInfo> escape_;
    std::unique_ptr<MemorySummary> summary_;
    ScopedTable<ExprKey> expressions_;
    ScopedTable<const Value *> memory_;
};

} // namespace

std::unique_ptr<Pass>
createEarlyCsePass()
{
    return std::make_unique<EarlyCse>();
}

} // namespace dce::opt
