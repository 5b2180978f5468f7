/**
 * @file
 * Core IR data structures: Value, Constant, GlobalVar, Param, Instr,
 * BasicBlock, Function, Module.
 *
 * The IR is an SSA, explicit-CFG, load/store IR in the LLVM tradition:
 *  - Scalars promoted to SSA registers carry values between Instrs.
 *  - Globals, arrays, and address-taken locals live in memory objects
 *    accessed by Load/Store through opaque pointers; Gep does *element*
 *    addressing (base pointer + element index).
 *  - Every BasicBlock ends in exactly one terminator (Ret / Br /
 *    CondBr / Switch / Unreachable).
 *  - Def-use chains are maintained: every Value knows its users, so
 *    passes can replaceAllUsesWith in O(uses).
 *
 * Ownership: Module owns GlobalVars, Functions and the constant pool;
 * Function owns Params and BasicBlocks; BasicBlock owns Instrs.
 * Instructions and blocks are allocated from the Module's bump arena
 * (ir/arena.hpp): creation goes through Module::newInstr /
 * Function::addBlock, the owning handles are ArenaPtrs whose deleter
 * runs only the destructor, and the memory is reclaimed wholesale when
 * the Module dies. Mid-life deletion must go through
 * BasicBlock::erase / Function::eraseBlock so def-use bookkeeping stays
 * consistent; destruction of a whole Module performs no bookkeeping.
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/arena.hpp"
#include "ir/type.hpp"
#include "support/small_vector.hpp"

namespace dce::ir {

class Instr;
class BasicBlock;
class Function;
class Module;
class GlobalVar;

/** Owning handle to an arena-backed instruction. */
using InstrPtr = ArenaPtr<Instr>;
/** Owning handle to an arena-backed basic block. */
using BlockPtr = ArenaPtr<BasicBlock>;

//===------------------------------------------------------------------===//
// Value
//===------------------------------------------------------------------===//

enum class ValueKind : uint8_t {
    Constant,
    Global,
    Param,
    Instruction,
};

/** Anything an instruction operand can reference. */
class Value {
  public:
    virtual ~Value() = default;
    Value(const Value &) = delete;
    Value &operator=(const Value &) = delete;

    ValueKind valueKind() const { return valueKind_; }
    IrType type() const { return type_; }
    void setType(IrType type) { type_ = type; }

    bool isConstant() const { return valueKind_ == ValueKind::Constant; }
    bool isInstruction() const
    {
        return valueKind_ == ValueKind::Instruction;
    }

    /** Users (instructions whose operand lists mention this value).
     * May contain duplicates when one instruction uses a value twice.
     * Constants track no users: they are interned module-wide (one
     * node for every use of `0`), so a use-list would grow with the
     * whole module and make each operand drop a linear scan of it —
     * and nothing ever needs it (constants are never replaced or
     * erased while the module lives). */
    const support::SmallVector<Instr *, 4> &users() const { return users_; }
    bool hasUsers() const { return !users_.empty(); }

    /** Rewrite every use of this value to @p replacement. */
    void replaceAllUsesWith(Value *replacement);

    /** Printer handle, unique within a module ("%5", "@g", ...). */
    unsigned id() const { return id_; }
    void setId(unsigned id) { id_ = id; }

  protected:
    Value(ValueKind kind, IrType type) : valueKind_(kind), type_(type) {}

  private:
    friend class Instr;
    void
    addUser(Instr *user)
    {
        if (valueKind_ != ValueKind::Constant)
            users_.push_back(user);
    }
    void removeUser(Instr *user);

    ValueKind valueKind_;
    IrType type_;
    unsigned id_ = 0;
    support::SmallVector<Instr *, 4> users_;
};

/** An integer constant, interned per (type, value) in the Module. */
class Constant : public Value {
  public:
    Constant(IrType type, int64_t value)
        : Value(ValueKind::Constant, type), value_(value)
    {
    }

    /** Canonical value (wrapped/extended per type, see support/ints). */
    int64_t value() const { return value_; }
    bool isZero() const { return value_ == 0; }

  private:
    int64_t value_;
};

/** One element of a global initializer: either an integer or the
 * address of (an element of) another global. */
struct GlobalInit {
    const GlobalVar *base = nullptr; ///< non-null => address constant
    int64_t value = 0;               ///< int value, or element offset

    static GlobalInit
    intValue(int64_t value)
    {
        return {nullptr, value};
    }
    static GlobalInit
    addressOf(const GlobalVar *base, int64_t element)
    {
        return {base, element};
    }
    bool isAddress() const { return base != nullptr; }
};

/** A global memory object: scalar or one-dimensional array. The Value
 * itself has pointer type (the object's address). */
class GlobalVar : public Value {
  public:
    GlobalVar(std::string name, IrType element_type, uint64_t count,
              bool internal)
        : Value(ValueKind::Global, IrType::ptrTy()), name_(std::move(name)),
          elementType_(element_type), count_(count), internal_(internal)
    {
    }

    const std::string &name() const { return name_; }
    /** Type of each element slot (an Int type or Ptr). */
    IrType elementType() const { return elementType_; }
    /** Number of element slots (1 for scalars). */
    uint64_t count() const { return count_; }
    bool isArray() const { return isArray_; }
    void setIsArray(bool is_array) { isArray_ = is_array; }
    /** Internal linkage (C "static"): no access outside this module. */
    bool isInternal() const { return internal_; }

    /** Initializers, one per slot; missing entries are zero. */
    std::vector<GlobalInit> init;

  private:
    std::string name_;
    IrType elementType_;
    uint64_t count_;
    bool internal_;
    bool isArray_ = false;
};

/** A formal parameter of a Function; an SSA value from entry. */
class Param : public Value {
  public:
    Param(IrType type, unsigned index, std::string name)
        : Value(ValueKind::Param, type), index_(index),
          name_(std::move(name))
    {
    }

    unsigned index() const { return index_; }
    const std::string &name() const { return name_; }

  private:
    unsigned index_;
    std::string name_;
};

//===------------------------------------------------------------------===//
// Instructions
//===------------------------------------------------------------------===//

enum class Opcode : uint8_t {
    Alloca,
    Load,
    Store,
    Bin,
    Cmp,
    Cast,
    Gep,
    Select,
    /** Value laundering barrier (LLVM's freeze): semantically the
     * identity on its operand, but most folds refuse to look through
     * it. Inserted by aggressive loop unswitching and the loop
     * vectorizer rewrite — the mechanism behind several of the paper's
     * catalogued regressions (Listings 7, 8a, 9e). */
    Freeze,
    Call,
    Phi,
    // Terminators:
    Ret,
    Br,
    CondBr,
    Switch,
    Unreachable,
};

enum class BinOp : uint8_t {
    Add, Sub, Mul, Div, Rem, Shl, Shr, And, Or, Xor,
};

/** Comparison predicates. Signedness is explicit (operands may be
 * either); result is i32 0/1. */
enum class CmpPred : uint8_t {
    Eq, Ne, Slt, Sle, Sgt, Sge, Ult, Ule, Ugt, Uge,
};

enum class CastOp : uint8_t {
    Trunc, ///< to a narrower integer
    Sext,  ///< sign-extend to a wider integer
    Zext,  ///< zero-extend to a wider integer
    /** Same width, signedness reinterpretation only. */
    Bitcast,
};

const char *opcodeName(Opcode op);
const char *binOpName(BinOp op);
const char *cmpPredName(CmpPred pred);
const char *castOpName(CastOp op);

/** True if the predicate's semantics depend on operand sign. */
bool cmpPredIsSigned(CmpPred pred);
/** Swap operand order: Slt -> Sgt etc. */
CmpPred cmpPredSwapped(CmpPred pred);
/** Logical negation: Eq -> Ne, Slt -> Sge etc. */
CmpPred cmpPredInverse(CmpPred pred);

/**
 * A single IR instruction. One concrete class for all opcodes with a
 * small set of per-opcode extras; passes dispatch on opcode().
 * Create through Module::newInstr (arena-backed).
 */
class Instr : public Value {
  public:
    Instr(Opcode op, IrType type) : Value(ValueKind::Instruction, type),
                                    opcode_(op)
    {
    }
    ~Instr() override;

    Opcode opcode() const { return opcode_; }
    BasicBlock *parent() const { return parent_; }

    size_t numOperands() const { return operands_.size(); }
    Value *operand(size_t index) const { return operands_[index]; }
    void setOperand(size_t index, Value *value);
    void addOperand(Value *value);
    void removeOperand(size_t index);
    const support::SmallVector<Value *, 4> &operands() const
    {
        return operands_;
    }

    /** Detach this instruction from all of its operands' use lists. */
    void dropOperands();

    bool
    isTerminator() const
    {
        switch (opcode_) {
          case Opcode::Ret:
          case Opcode::Br:
          case Opcode::CondBr:
          case Opcode::Switch:
          case Opcode::Unreachable:
            return true;
          default:
            return false;
        }
    }

    /** True if removing the instruction (when unused) changes program
     * behaviour: stores, calls, terminators. */
    bool hasSideEffects() const;

    // --- CFG edges (terminators) and phi incoming blocks ------------
    const support::SmallVector<BasicBlock *, 2> &blockOperands() const
    {
        return blockOperands_;
    }
    support::SmallVector<BasicBlock *, 2> &blockOperands()
    {
        return blockOperands_;
    }
    BasicBlock *blockOperand(size_t index) const
    {
        return blockOperands_[index];
    }
    void setBlockOperand(size_t index, BasicBlock *block)
    {
        blockOperands_[index] = block;
    }
    void addBlockOperand(BasicBlock *block)
    {
        blockOperands_.push_back(block);
    }
    /** Replace every successor edge @p from with @p to. */
    void replaceSuccessor(BasicBlock *from, BasicBlock *to);

    // --- Per-opcode extras -------------------------------------------
    BinOp binOp = BinOp::Add;          ///< Bin
    CmpPred cmpPred = CmpPred::Eq;     ///< Cmp
    CastOp castOp = CastOp::Trunc;     ///< Cast
    Function *callee = nullptr;        ///< Call
    IrType allocatedType;              ///< Alloca element type
    uint64_t allocatedCount = 1;       ///< Alloca element count
    bool allocaIsArray = false;        ///< Alloca models a source array
    uint64_t gepElemSize = 1;          ///< Gep element size in bytes
    std::vector<int64_t> caseValues;   ///< Switch case constants

    // --- Phi helpers --------------------------------------------------
    /** @pre opcode() == Phi. Incoming pairs are (operand(i),
     * blockOperand(i)). */
    void addIncoming(Value *value, BasicBlock *pred);
    void removeIncoming(size_t index);
    /** Value flowing in from @p pred, or null if absent. */
    Value *incomingValueFor(const BasicBlock *pred) const;

  private:
    friend class BasicBlock;
    Opcode opcode_;
    BasicBlock *parent_ = nullptr;
    support::SmallVector<Value *, 4> operands_;
    support::SmallVector<BasicBlock *, 2> blockOperands_;
};

//===------------------------------------------------------------------===//
// BasicBlock
//===------------------------------------------------------------------===//

/** A straight-line instruction sequence ending in one terminator.
 * Create through Function::addBlock (arena-backed). */
class BasicBlock {
  public:
    explicit BasicBlock(std::string name) : name_(std::move(name)) {}
    BasicBlock(const BasicBlock &) = delete;
    BasicBlock &operator=(const BasicBlock &) = delete;

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }
    Function *parent() const { return parent_; }

    /** Position in the parent function's block list, kept current by
     * every Function block mutation. CFG analyses use it to key flat
     * per-block arrays instead of hash maps. */
    uint32_t indexInFn() const { return indexInFn_; }

    const std::vector<InstrPtr> &instrs() const { return instrs_; }
    bool empty() const { return instrs_.empty(); }
    size_t size() const { return instrs_.size(); }
    Instr *front() const { return instrs_.front().get(); }

    /** The terminator, or null while the block is under construction. */
    Instr *
    terminator() const
    {
        if (instrs_.empty() || !instrs_.back()->isTerminator())
            return nullptr;
        return instrs_.back().get();
    }

    /** Successor blocks (empty for Ret/Unreachable). A view of the
     * terminator's block operands — invalidated by terminator edits. */
    const support::SmallVector<BasicBlock *, 2> &
    successors() const
    {
        static const support::SmallVector<BasicBlock *, 2> kNone{};
        Instr *term = terminator();
        if (!term)
            return kNone;
        return term->blockOperands();
    }

    Instr *append(InstrPtr instr);
    Instr *insertBefore(size_t index, InstrPtr instr);
    /** Position of @p instr in this block. */
    size_t indexOf(const Instr *instr) const;

    /** Remove and destroy @p instr. Drops its operand uses.
     * @pre instr has no users. */
    void erase(Instr *instr);
    /** Detach @p instr without destroying it (for moves). Operand uses
     * are kept. */
    InstrPtr detach(Instr *instr);
    /** Re-attach a detached instruction at the end. */
    Instr *reattach(InstrPtr instr)
    {
        return append(std::move(instr));
    }

    /**
     * The leading phis (all phis sit at the top of a block), as a view
     * of the instruction list — no copy. Invalidated by any insertion
     * into or removal from this block: a loop that erases or inserts
     * here must walk indices instead.
     */
    class PhiRange {
      public:
        class iterator {
          public:
            using iterator_category = std::forward_iterator_tag;
            using value_type = Instr *;
            using difference_type = std::ptrdiff_t;
            using pointer = Instr *const *;
            using reference = Instr *;

            iterator() = default;
            explicit iterator(const InstrPtr *pos) : pos_(pos) {}
            Instr *operator*() const { return pos_->get(); }
            iterator &
            operator++()
            {
                ++pos_;
                return *this;
            }
            iterator
            operator++(int)
            {
                iterator old = *this;
                ++pos_;
                return old;
            }
            bool operator==(const iterator &) const = default;

          private:
            const InstrPtr *pos_ = nullptr;
        };

        PhiRange(const InstrPtr *begin, const InstrPtr *end)
            : begin_(begin), end_(end)
        {
        }
        iterator begin() const { return iterator(begin_); }
        iterator end() const { return iterator(end_); }
        size_t size() const { return static_cast<size_t>(end_ - begin_); }
        bool empty() const { return begin_ == end_; }

      private:
        const InstrPtr *begin_;
        const InstrPtr *end_;
    };
    PhiRange phis() const;
    /** Reserve room for @p count instructions (bulk construction). */
    void reserve(size_t count) { instrs_.reserve(count); }
    /** Update phi bookkeeping when predecessor @p from becomes @p to. */
    void replacePhiIncomingBlock(BasicBlock *from, BasicBlock *to);
    /** Remove incoming entries for a predecessor that no longer
     * branches here. */
    void removePhiIncomingFor(BasicBlock *pred);

  private:
    friend class Function;
    std::string name_;
    Function *parent_ = nullptr;
    uint32_t indexInFn_ = 0;
    std::vector<InstrPtr> instrs_;
};

//===------------------------------------------------------------------===//
// Function
//===------------------------------------------------------------------===//

class Function {
  public:
    Function(std::string name, IrType return_type, bool internal)
        : name_(std::move(name)), returnType_(return_type),
          internal_(internal)
    {
    }
    Function(const Function &) = delete;
    Function &operator=(const Function &) = delete;

    const std::string &name() const { return name_; }
    IrType returnType() const { return returnType_; }
    bool isInternal() const { return internal_; }
    Module *parent() const { return parent_; }

    /** Declarations have no blocks; they are opaque to every analysis
     * and optimization — optimization markers are exactly this. */
    bool isDeclaration() const { return blocks_.empty(); }

    /** When set, global DCE must keep this function even if it has no
     * callers. The inliner sets it under the `keepInlinedHusks`
     * regression knob, modelling GCC's uncleaned IPA-SRA clones
     * (Listing 9b / PR100034). */
    bool noDce() const { return noDce_; }
    void setNoDce(bool keep) { noDce_ = keep; }

    Param *addParam(IrType type, std::string name);
    const std::vector<std::unique_ptr<Param>> &params() const
    {
        return params_;
    }

    BasicBlock *entry() const { return blocks_.front().get(); }
    const std::vector<BlockPtr> &blocks() const { return blocks_; }
    size_t numBlocks() const { return blocks_.size(); }

    /** Append a fresh arena-backed block. @pre the function belongs to
     * a Module (its arena provides the storage). */
    BasicBlock *addBlock(std::string name);
    /** Insert an existing (detached) block; used by the inliner.
     * @pre the block came from this function's module's arena. */
    BasicBlock *adoptBlock(BlockPtr block);
    /** Detach @p block without destroying it (intra-module moves). */
    BlockPtr detachBlock(BasicBlock *block);
    /**
     * Remove and destroy @p block: drops all its instructions' operand
     * uses first, so mutually-referencing dead blocks can be erased in
     * any order. @pre no live instruction outside @p block uses its
     * instructions, and no terminator outside branches to it.
     */
    void eraseBlock(BasicBlock *block);
    /** Move @p block to position @p index (printer/codegen ordering). */
    void moveBlockTo(size_t index, BasicBlock *block);
    size_t indexOfBlock(const BasicBlock *block) const;

  private:
    friend class Module;
    /** Restore indexInFn() for every block at or after @p start. */
    void renumberBlocksFrom(size_t start);

    std::string name_;
    IrType returnType_;
    bool internal_;
    bool noDce_ = false;
    Module *parent_ = nullptr;
    std::vector<std::unique_ptr<Param>> params_;
    std::vector<BlockPtr> blocks_;
    unsigned nextBlockId_ = 0;
};

//===------------------------------------------------------------------===//
// Module
//===------------------------------------------------------------------===//

class Module {
  public:
    Module() = default;
    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    /** The bump arena backing this module's instructions and blocks.
     * Single-threaded, like the module itself. */
    Arena &arena() { return arena_; }

    /** Allocate a fresh instruction from the module arena. Per-opcode
     * extras (binOp, callee, ...) are set by the caller afterwards,
     * exactly as with the old heap allocation. */
    InstrPtr
    newInstr(Opcode op, IrType type)
    {
        return InstrPtr(arena_.create<Instr>(op, type));
    }

    GlobalVar *addGlobal(std::string name, IrType element_type,
                         uint64_t count, bool internal);
    Function *addFunction(std::string name, IrType return_type,
                          bool internal);

    GlobalVar *getGlobal(const std::string &name) const;
    Function *getFunction(const std::string &name) const;

    /** Remove an unreferenced function (no remaining call sites).
     * Used by global DCE. */
    void eraseFunction(Function *fn);
    /** Remove an unreferenced global (no users, no initializer refs). */
    void eraseGlobal(GlobalVar *global);

    const std::vector<std::unique_ptr<GlobalVar>> &globals() const
    {
        return globals_;
    }
    const std::vector<std::unique_ptr<Function>> &functions() const
    {
        return functions_;
    }

    /** Interned integer constant of the given type (hash lookup). */
    Constant *constant(IrType type, int64_t value);
    Constant *i32Const(int64_t value)
    {
        return constant(IrType::i32(), value);
    }

    /** Fresh printer id. */
    unsigned nextValueId() { return nextValueId_++; }

    /** One past the largest value id handed out so far — the size a
     * flat id-indexed side table needs. */
    unsigned valueIdBound() const { return nextValueId_; }

  private:
    /** Interning key for the constant pool. */
    struct ConstantKey {
        uint32_t type; ///< packed {kind, bits, isSigned}
        int64_t value;
        bool operator==(const ConstantKey &o) const
        {
            return type == o.type && value == o.value;
        }
    };
    struct ConstantKeyHash {
        size_t
        operator()(const ConstantKey &k) const
        {
            uint64_t h = static_cast<uint64_t>(k.value) * 0x9E3779B97F4A7C15ULL;
            return static_cast<size_t>(h ^ (h >> 32) ^ k.type);
        }
    };

    // Declared first so it is destroyed last: every arena-backed node's
    // destructor (reached through functions_) must run before the
    // backing memory is released.
    Arena arena_;
    std::vector<std::unique_ptr<GlobalVar>> globals_;
    std::vector<std::unique_ptr<Function>> functions_;
    std::vector<std::unique_ptr<Constant>> constants_;
    std::unordered_map<ConstantKey, Constant *, ConstantKeyHash>
        constantIndex_;
    unsigned nextValueId_ = 1;
};

} // namespace dce::ir
