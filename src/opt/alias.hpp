/**
 * @file
 * Pointer analyses shared by the optimization passes:
 *
 *  - PtrBase: resolve a pointer SSA value to its base memory object
 *    (global or alloca) plus a constant element offset when derivable.
 *  - alias(): May/Must/NoAlias on two pointers. MiniC's object-level
 *    memory model (out-of-bounds accesses never touch neighbouring
 *    objects) makes distinct-base => NoAlias *exact*, not heuristic.
 *  - EscapeInfo: which globals/allocas have their address taken (stored
 *    somewhere, passed to a call, returned, or referenced by another
 *    global's initializer). Non-escaping objects can only be accessed
 *    through directly-derived pointers, enabling strong global value
 *    reasoning.
 *  - MemorySummary: per-function transitive may-read/may-write sets of
 *    global objects, for interprocedural load forwarding and exit DSE.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ir/ir.hpp"
#include "support/small_vector.hpp"

namespace dce::opt {

/** Resolution of a pointer to its base object. */
struct PtrBase {
    enum class Kind {
        Global,  ///< object is a GlobalVar
        Alloca,  ///< object is an Alloca instruction
        Unknown, ///< loaded / phi-merged / parameter pointer
    };

    Kind kind = Kind::Unknown;
    const ir::Value *object = nullptr;
    /** Element offset from the object start, when constant. */
    std::optional<int64_t> offset;

    bool isIdentified() const { return kind != Kind::Unknown; }
};

/**
 * Walk gep (and, by default, freeze) chains to the base object.
 * Alias queries look through freeze — that is sound, freeze is the
 * identity. Folding transforms that model freeze as opaque (the
 * regression mechanism) pass look_through_freeze = false.
 */
PtrBase resolvePtrBase(const ir::Value *pointer,
                       bool look_through_freeze = true);

enum class AliasResult {
    NoAlias,
    MayAlias,
    MustAlias,
};

/** Alias relation between two pointer values. */
AliasResult alias(const ir::Value *a, const ir::Value *b);

/** Address-taken / escape facts for one module snapshot. Objects are
 * keyed by their dense value id (Module::valueIdBound()); objects
 * created after the snapshot do not escape as far as it knows. */
class EscapeInfo {
  public:
    explicit EscapeInfo(const ir::Module &module);

    /** True if pointers to this object can exist outside directly
     * derived SSA chains (so arbitrary loads/stores may touch it). */
    bool escapes(const ir::Value *object) const
    {
        return object->id() < escaped_.size() && escaped_[object->id()];
    }

  private:
    void markEscaping(const ir::Value *root);

    std::vector<unsigned char> escaped_;
    // markEscaping scratch, shared by every root: visited[id] == stamp
    // marks a value seen by the current root's walk.
    std::vector<uint32_t> visited_;
    uint32_t stamp_ = 0;
    std::vector<const ir::Value *> worklist_;
};

/** Transitive memory effects of each function on global objects. */
class MemorySummary {
  public:
    MemorySummary(const ir::Module &module, const EscapeInfo &escape);

    /** May the call (transitively) read/write this global object? */
    bool mayRead(const ir::Function *fn, const ir::GlobalVar *g) const;
    bool mayWrite(const ir::Function *fn, const ir::GlobalVar *g) const;
    /** May the function read/write through escaped or unknown
     * pointers (clobbering anything escaped)? */
    bool readsUnknown(const ir::Function *fn) const;
    bool writesUnknown(const ir::Function *fn) const;

  private:
    /** Read/write sets as bitmasks over the module's global index —
     * the call-graph fixpoint then unions effects with word ORs
     * instead of hash-set merges. */
    struct Effects {
        support::SmallVector<uint64_t, 1> reads;
        support::SmallVector<uint64_t, 1> writes;
        bool readsUnknown = false;
        bool writesUnknown = false;
    };

    /** Position of @p fn in the module's function list. */
    unsigned fnIndex(const ir::Function *fn) const;
    const Effects &effectsOf(const ir::Function *fn) const
    {
        return effects_[fnIndex(fn)];
    }
    /** Bit index of @p g, or -1 for a global the snapshot lacks. */
    int globalIndex(const ir::GlobalVar *g) const
    {
        return g->id() < globalIndex_.size() ? globalIndex_[g->id()] : -1;
    }

    /** (function, position) sorted by address, for fnIndex. */
    std::vector<std::pair<const ir::Function *, unsigned>> fnIndex_;
    /** Global bit index by value id, -1 for non-globals. */
    std::vector<int> globalIndex_;
    std::vector<Effects> effects_;
};

} // namespace dce::opt
