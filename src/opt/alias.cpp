#include "opt/alias.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <vector>

#include "support/trace.hpp"

namespace dce::opt {

using ir::Function;
using ir::GlobalVar;
using ir::Instr;
using ir::Module;
using ir::Opcode;
using ir::Value;
using ir::ValueKind;

PtrBase
resolvePtrBase(const Value *pointer, bool look_through_freeze)
{
    PtrBase base;
    int64_t offset = 0;
    bool offset_known = true;
    const Value *current = pointer;
    for (;;) {
        if (current->valueKind() == ValueKind::Global) {
            base.kind = PtrBase::Kind::Global;
            base.object = current;
            if (offset_known)
                base.offset = offset;
            return base;
        }
        if (!current->isInstruction())
            return base; // param or constant (null): unknown
        const auto *instr = static_cast<const Instr *>(current);
        switch (instr->opcode()) {
          case Opcode::Alloca:
            base.kind = PtrBase::Kind::Alloca;
            base.object = instr;
            if (offset_known)
                base.offset = offset;
            return base;
          case Opcode::Gep: {
            const Value *index = instr->operand(1);
            if (index->isConstant()) {
                offset +=
                    static_cast<const ir::Constant *>(index)->value();
            } else {
                offset_known = false;
            }
            current = instr->operand(0);
            break;
          }
          case Opcode::Freeze:
            if (!look_through_freeze)
                return base;
            current = instr->operand(0);
            break;
          default:
            return base; // load, phi, select, call: unknown
        }
    }
}

AliasResult
alias(const Value *a, const Value *b)
{
    if (a == b)
        return AliasResult::MustAlias;
    PtrBase base_a = resolvePtrBase(a);
    PtrBase base_b = resolvePtrBase(b);
    if (base_a.isIdentified() && base_b.isIdentified()) {
        if (base_a.object != base_b.object) {
            // Distinct objects never overlap: exact under MiniC's
            // object-level memory model.
            return AliasResult::NoAlias;
        }
        if (base_a.offset && base_b.offset) {
            return *base_a.offset == *base_b.offset
                       ? AliasResult::MustAlias
                       : AliasResult::NoAlias;
        }
        return AliasResult::MayAlias; // same object, variable offsets
    }
    return AliasResult::MayAlias;
}

//===------------------------------------------------------------------===//
// EscapeInfo
//===------------------------------------------------------------------===//

EscapeInfo::EscapeInfo(const Module &module)
{
    support::TraceSpan span("escapeinfo", "analysis");
    escaped_.assign(module.valueIdBound(), 0);
    visited_.assign(module.valueIdBound(), 0);
    // A global referenced by another global's initializer is reachable
    // through memory, i.e. escaped.
    for (const auto &global : module.globals()) {
        for (const ir::GlobalInit &init : global->init) {
            if (init.isAddress())
                escaped_[init.base->id()] = 1;
        }
    }
    for (const auto &global : module.globals())
        markEscaping(global.get());
    for (const auto &fn : module.functions()) {
        for (const auto &block : fn->blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() == Opcode::Alloca)
                    markEscaping(instr.get());
            }
        }
    }
}

void
EscapeInfo::markEscaping(const Value *root)
{
    if (escaped_[root->id()])
        return;
    // Chase every SSA value derived from the object's address. If any
    // derived pointer is stored to memory, passed to a call, returned,
    // or flows somewhere we cannot track (phi/select merge is tracked;
    // being a store *value* is not), the object escapes.
    std::vector<const Value *> &worklist = worklist_;
    worklist.assign(1, root);
    ++stamp_;
    while (!worklist.empty()) {
        const Value *value = worklist.back();
        worklist.pop_back();
        if (visited_[value->id()] == stamp_)
            continue;
        visited_[value->id()] = stamp_;
        for (const Instr *user : value->users()) {
            switch (user->opcode()) {
              case Opcode::Load:
                break; // reading through the pointer: fine
              case Opcode::Store:
                // Fine when the pointer is the *address*; escaping when
                // it is the stored value.
                if (user->operand(0) == value) {
                    escaped_[root->id()] = 1;
                    return;
                }
                break;
              case Opcode::Cmp:
                break; // comparisons do not leak write capability
              case Opcode::Gep:
                if (user->operand(0) == value)
                    worklist.push_back(user);
                else
                    break; // pointer as index is impossible (typed)
                break;
              case Opcode::Freeze:
              case Opcode::Select:
              case Opcode::Phi:
                worklist.push_back(user);
                break;
              case Opcode::Call:
              case Opcode::Ret:
                escaped_[root->id()] = 1;
                return;
              default:
                // Unexpected use of a pointer (bin/cast impossible in
                // well-typed IR); be conservative.
                escaped_[root->id()] = 1;
                return;
            }
        }
    }
}

//===------------------------------------------------------------------===//
// MemorySummary
//===------------------------------------------------------------------===//

namespace {

void
setBit(support::SmallVector<uint64_t, 1> &bits, unsigned index)
{
    bits[index / 64] |= uint64_t{1} << (index % 64);
}

bool
testBit(const support::SmallVector<uint64_t, 1> &bits, unsigned index)
{
    return (bits[index / 64] >> (index % 64)) & 1;
}

} // namespace

MemorySummary::MemorySummary(const Module &module, const EscapeInfo &escape)
{
    support::TraceSpan span("memorysummary", "analysis");
    // Direct effects, then propagate through calls to a fixed point
    // (handles recursion and mutual recursion).
    const auto &globals = module.globals();
    const auto &functions = module.functions();
    const unsigned num_globals = static_cast<unsigned>(globals.size());
    const size_t words = (num_globals + 63) / 64;
    globalIndex_.assign(module.valueIdBound(), -1);
    for (unsigned i = 0; i < num_globals; ++i)
        globalIndex_[globals[i]->id()] = static_cast<int>(i);
    fnIndex_.reserve(functions.size());
    effects_.resize(functions.size());
    for (unsigned i = 0; i < functions.size(); ++i) {
        fnIndex_.emplace_back(functions[i].get(), i);
        effects_[i].reads.resize(words, 0);
        effects_[i].writes.resize(words, 0);
    }
    std::sort(fnIndex_.begin(), fnIndex_.end(),
              [](const auto &a, const auto &b) {
                  return std::less<const Function *>()(a.first, b.first);
              });

    // An external callee may touch every non-internal global, anything
    // escaped, and may call back into this module's non-internal
    // functions (handled below by unioning their effects in the
    // fixpoint via a pseudo call edge).
    Effects external_effects;
    external_effects.reads.resize(words, 0);
    external_effects.writes.resize(words, 0);
    for (unsigned i = 0; i < num_globals; ++i) {
        if (!globals[i]->isInternal()) {
            setBit(external_effects.reads, i);
            setBit(external_effects.writes, i);
        }
    }
    external_effects.readsUnknown = true;
    external_effects.writesUnknown = true;

    // Direct effects and, in the same walk, each function's unique
    // callees — so the fixpoint below never re-walks instructions.
    std::vector<support::SmallVector<unsigned, 4>> callees(
        functions.size());
    for (unsigned f = 0; f < functions.size(); ++f) {
        const Function *fn = functions[f].get();
        Effects &eff = effects_[f];
        if (fn->isDeclaration()) {
            eff = external_effects;
            continue;
        }
        for (const auto &block : fn->blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() == Opcode::Call) {
                    unsigned callee = fnIndex(instr->callee);
                    bool seen = false;
                    for (unsigned c : callees[f])
                        seen |= c == callee;
                    if (!seen)
                        callees[f].push_back(callee);
                    continue;
                }
                if (instr->opcode() == Opcode::Load ||
                    instr->opcode() == Opcode::Store) {
                    bool is_store = instr->opcode() == Opcode::Store;
                    const Value *ptr =
                        instr->operand(is_store ? 1 : 0);
                    PtrBase base = resolvePtrBase(ptr);
                    if (base.kind == PtrBase::Kind::Global) {
                        auto *g = static_cast<const GlobalVar *>(
                            base.object);
                        setBit(is_store ? eff.writes : eff.reads,
                               static_cast<unsigned>(globalIndex(g)));
                    } else if (base.kind == PtrBase::Kind::Unknown) {
                        // Could be any escaped object or a global
                        // whose address escaped.
                        if (is_store)
                            eff.writesUnknown = true;
                        else
                            eff.readsUnknown = true;
                    }
                    // Alloca bases are function-local: invisible to
                    // callers unless escaped, which the Unknown case
                    // plus EscapeInfo covers at query time.
                    (void)escape;
                }
            }
        }
    }

    // Callback edges: externals may call any non-internal defined
    // function. Model by having every declaration's effect set absorb
    // those functions' effects during the fixpoint.
    // Whole-program assumption: external code may call back any
    // non-internal defined function *except main* (the entry point is
    // never re-entered; real compilers infer the same via norecurse).
    for (unsigned f = 0; f < functions.size(); ++f) {
        if (!functions[f]->isDeclaration())
            continue;
        for (unsigned t = 0; t < functions.size(); ++t) {
            if (!functions[t]->isDeclaration() &&
                !functions[t]->isInternal() &&
                functions[t]->name() != "main") {
                callees[f].push_back(t);
            }
        }
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (unsigned f = 0; f < functions.size(); ++f) {
            Effects &eff = effects_[f];
            for (unsigned c : callees[f]) {
                const Effects &callee = effects_[c];
                for (size_t w = 0; w < words; ++w) {
                    uint64_t reads = eff.reads[w] | callee.reads[w];
                    uint64_t writes = eff.writes[w] | callee.writes[w];
                    changed |= reads != eff.reads[w] ||
                               writes != eff.writes[w];
                    eff.reads[w] = reads;
                    eff.writes[w] = writes;
                }
                changed |= callee.readsUnknown && !eff.readsUnknown;
                changed |= callee.writesUnknown && !eff.writesUnknown;
                eff.readsUnknown |= callee.readsUnknown;
                eff.writesUnknown |= callee.writesUnknown;
            }
        }
    }
}

unsigned
MemorySummary::fnIndex(const Function *fn) const
{
    auto it = std::lower_bound(
        fnIndex_.begin(), fnIndex_.end(), fn,
        [](const auto &entry, const Function *key) {
            return std::less<const Function *>()(entry.first, key);
        });
    assert(it != fnIndex_.end() && it->first == fn &&
           "function not in the summarized module");
    return it->second;
}

bool
MemorySummary::mayRead(const Function *fn, const GlobalVar *g) const
{
    int index = globalIndex(g);
    return index >= 0 &&
           testBit(effectsOf(fn).reads, static_cast<unsigned>(index));
}

bool
MemorySummary::mayWrite(const Function *fn, const GlobalVar *g) const
{
    int index = globalIndex(g);
    return index >= 0 &&
           testBit(effectsOf(fn).writes, static_cast<unsigned>(index));
}

bool
MemorySummary::readsUnknown(const Function *fn) const
{
    return effectsOf(fn).readsUnknown;
}

bool
MemorySummary::writesUnknown(const Function *fn) const
{
    return effectsOf(fn).writesUnknown;
}

} // namespace dce::opt
