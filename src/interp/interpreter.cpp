#include "interp/interpreter.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "support/ints.hpp"
#include "support/trace.hpp"

namespace dce::interp {

using ir::BasicBlock;
using ir::BinOp;
using ir::CastOp;
using ir::CmpPred;
using ir::Constant;
using ir::Function;
using ir::GlobalVar;
using ir::Instr;
using ir::IrType;
using ir::Module;
using ir::Opcode;
using ir::Param;
using ir::Value;
using ir::ValueKind;

namespace {

/** One allocated memory object (global, or an executed alloca): a
 * window of the machine's flat slot heap. */
struct MemObject {
    size_t offset = 0;
    uint64_t count = 0;
    IrType elementType;
};

/** Thrown internally to unwind on timeout/trap. */
struct ExecStop {
    ExecStatus status;
};

/** An operand as decoded: >= 0 is a frame slot, < 0 is the bitwise
 * complement of an index into the immediates table (constants and
 * global addresses, resolved once at decode time). */
using OperandRef = int32_t;

/** One decoded non-phi instruction (an entry of Machine::code_).
 * Operands and successor block indices live in the machine's shared
 * pools. */
struct Step {
    const Instr *instr = nullptr; ///< source: extras (binOp, cases, ...)
    Opcode opcode = Opcode::Unreachable;
    int32_t dest = -1;        ///< frame slot of the result, -1 if void
    uint32_t operands = 0;    ///< first operand in Machine::operands_
    uint32_t numOperands = 0;
    uint32_t targets = 0;     ///< first successor in Machine::targets_
    int32_t callee = -1;      ///< Call: callee position; -1 = external
};

/** One leading phi: its incoming (predecessor, value) pairs sit in
 * Machine::incoming_ in the phi's operand order. */
struct DecodedPhi {
    int32_t dest = -1;
    uint32_t incoming = 0;
    uint32_t count = 0;
};

struct Incoming {
    int32_t pred = -1; ///< predecessor block index within the function
    OperandRef value = 0;
};

struct DecodedBlock {
    uint32_t phis = 0, numPhis = 0;
    uint32_t steps = 0, numSteps = 0;
};

/** A function decoded into flat frame slots: params take slots
 * [0, numParams), every value-producing instruction one slot after. */
struct DecodedFn {
    const Function *fn = nullptr;
    uint32_t blocks = 0;    ///< first block in Machine::blocks_
    uint32_t blockBase = 0; ///< module layout number of its entry block
    uint32_t numSlots = 0;
};

/**
 * The execution engine. Every function with a body is decoded once per
 * execution: SSA values map to frame slots through the module's dense
 * value ids, operands to slot or immediate references, successors to
 * block indices. Frames are windows of one value stack and memory
 * objects windows of one slot heap, so the run itself allocates only
 * when those grow.
 */
class Machine {
  public:
    Machine(const Module &module, const ExecLimits &limits)
        : module_(module), limits_(limits)
    {
        initGlobals();
        decode();
    }

    ExecResult
    run(const std::string &entry)
    {
        ExecResult result;
        const Function *fn = module_.getFunction(entry);
        if (!fn || fn->isDeclaration()) {
            result.status = ExecStatus::NoEntry;
            return result;
        }
        try {
            const DecodedFn &decoded = fns_[positionOf(fn)];
            stack_.resize(decoded.numSlots);
            IValue ret = callFunction(decoded, 0);
            result.status = ExecStatus::Ok;
            result.exitValue = ret.i;
        } catch (ExecStop &stop) {
            result.status = stop.status;
        }
        result.steps = steps_;
        result.executedBlocks = std::move(executed_);
        result.callTrace.reserve(callTrace_.size());
        for (const std::string *name : callTrace_) {
            result.callTrace.push_back(*name);
            result.calledExternals.insert(*name);
        }
        snapshotGlobals(result);
        return result;
    }

  private:
    void
    initGlobals()
    {
        // Global i is memory object i. Two passes: allocate all
        // objects, then fill address inits.
        const auto &globals = module_.globals();
        globalObjectById_.assign(module_.valueIdBound(), -1);
        size_t total = 0;
        for (const auto &global : globals)
            total += global->count();
        heap_.reserve(total);
        objects_.reserve(globals.size());
        for (const auto &global : globals) {
            globalObjectById_[global->id()] =
                static_cast<int32_t>(objects_.size());
            newObject(global->elementType(), global->count());
        }
        for (size_t g = 0; g < globals.size(); ++g) {
            const GlobalVar &global = *globals[g];
            const MemObject &object = objects_[g];
            for (size_t i = 0; i < global.init.size() && i < object.count;
                 ++i) {
                const ir::GlobalInit &init = global.init[i];
                IValue &slot = heap_[object.offset + i];
                if (init.isAddress()) {
                    PtrVal ptr;
                    ptr.obj = globalObjectById_[init.base->id()];
                    ptr.index = init.value;
                    slot = IValue::ptrValue(ptr);
                } else if (global.elementType().isPtr()) {
                    assert(init.value == 0 && "int init of pointer slot");
                    slot = IValue::ptrValue(PtrVal{});
                } else {
                    slot = IValue::intValue(
                        wrapInt(init.value, global.elementType().bits,
                                global.elementType().isSigned));
                }
            }
        }
    }

    /** Allocate a zero-initialized object; returns its handle. */
    int32_t
    newObject(IrType element_type, uint64_t count)
    {
        MemObject object;
        object.offset = heap_.size();
        object.count = count;
        object.elementType = element_type;
        heap_.insert(heap_.end(), count, zeroOf(element_type));
        objects_.push_back(object);
        return static_cast<int32_t>(objects_.size() - 1);
    }

    size_t
    positionOf(const Function *fn) const
    {
        auto it = std::lower_bound(
            fnPositions_.begin(), fnPositions_.end(), fn,
            [](const auto &entry, const Function *key) {
                return std::less<const Function *>()(entry.first, key);
            });
        assert(it != fnPositions_.end() && it->first == fn);
        return it->second;
    }

    /** Decode every function with a body (see Machine). Pools are
     * sized exactly up front. */
    void
    decode()
    {
        const auto &functions = module_.functions();
        size_t num_blocks = 0, num_instrs = 0, num_operands = 0,
               num_targets = 0;
        fnPositions_.reserve(functions.size());
        for (size_t f = 0; f < functions.size(); ++f) {
            fnPositions_.emplace_back(functions[f].get(), f);
            num_blocks += functions[f]->numBlocks();
            for (const auto &block : functions[f]->blocks()) {
                num_instrs += block->size();
                for (const auto &instr : block->instrs()) {
                    num_operands += instr->numOperands();
                    num_targets += instr->blockOperands().size();
                }
            }
        }
        std::sort(fnPositions_.begin(), fnPositions_.end(),
                  [](const auto &a, const auto &b) {
                      return std::less<const Function *>()(a.first,
                                                           b.first);
                  });
        fns_.resize(functions.size());
        blocks_.reserve(num_blocks);
        code_.reserve(num_instrs);
        operands_.reserve(num_operands);
        targets_.reserve(num_targets);
        slotOfId_.assign(module_.valueIdBound(), -1);
        if (limits_.recordBlocks)
            executed_.assign(num_blocks, 0);

        uint32_t block_base = 0;
        for (size_t f = 0; f < functions.size(); ++f) {
            const Function &fn = *functions[f];
            DecodedFn &decoded = fns_[f];
            decoded.fn = &fn;
            decoded.blocks = static_cast<uint32_t>(blocks_.size());
            decoded.blockBase = block_base;
            block_base += static_cast<uint32_t>(fn.numBlocks());
            if (fn.isDeclaration())
                continue;
            decodeFunction(fn, decoded);
        }
    }

    void
    decodeFunction(const Function &fn, DecodedFn &decoded)
    {
        // Slots first: operands may name values defined later in the
        // layout (phis, back edges).
        uint32_t slots = static_cast<uint32_t>(fn.params().size());
        for (const auto &block : fn.blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->type().isVoid())
                    continue;
                assert(instr->id() < slotOfId_.size() &&
                       "instruction without a module value id");
                slotOfId_[instr->id()] = static_cast<int32_t>(slots++);
            }
        }
        decoded.numSlots = slots;

        for (const auto &block : fn.blocks()) {
            DecodedBlock db;
            db.phis = static_cast<uint32_t>(phis_.size());
            db.steps = static_cast<uint32_t>(code_.size());
            bool leading = true;
            for (const auto &owned : block->instrs()) {
                const Instr *instr = owned.get();
                if (instr->opcode() == Opcode::Phi) {
                    // Only leading phis execute (on block entry); a
                    // phi after other instructions is never evaluated.
                    if (!leading)
                        continue;
                    DecodedPhi phi;
                    phi.dest = slotOf(instr);
                    phi.incoming = static_cast<uint32_t>(incoming_.size());
                    phi.count = static_cast<uint32_t>(instr->numOperands());
                    for (size_t i = 0; i < instr->numOperands(); ++i) {
                        incoming_.push_back(
                            {static_cast<int32_t>(
                                 instr->blockOperand(i)->indexInFn()),
                             operandRef(instr->operand(i))});
                    }
                    phis_.push_back(phi);
                    continue;
                }
                leading = false;
                Step step;
                step.instr = instr;
                step.opcode = instr->opcode();
                step.dest = instr->type().isVoid() ? -1 : slotOf(instr);
                step.operands = static_cast<uint32_t>(operands_.size());
                step.numOperands =
                    static_cast<uint32_t>(instr->numOperands());
                for (const Value *operand : instr->operands())
                    operands_.push_back(operandRef(operand));
                step.targets = static_cast<uint32_t>(targets_.size());
                for (const BasicBlock *target : instr->blockOperands())
                    targets_.push_back(target->indexInFn());
                if (step.opcode == Opcode::Call &&
                    !instr->callee->isDeclaration()) {
                    step.callee =
                        static_cast<int32_t>(positionOf(instr->callee));
                }
                code_.push_back(step);
            }
            db.numPhis = static_cast<uint32_t>(phis_.size()) - db.phis;
            db.numSteps = static_cast<uint32_t>(code_.size()) - db.steps;
            blocks_.push_back(db);
        }
    }

    int32_t
    slotOf(const Instr *instr) const
    {
        return slotOfId_[instr->id()];
    }

    OperandRef
    operandRef(const Value *value)
    {
        IValue immediate;
        switch (value->valueKind()) {
          case ValueKind::Constant: {
            const auto *c = static_cast<const Constant *>(value);
            immediate = c->type().isPtr() ? IValue::ptrValue(PtrVal{})
                                          : IValue::intValue(c->value());
            break;
          }
          case ValueKind::Global: {
            PtrVal ptr;
            ptr.obj = globalObjectById_[value->id()];
            immediate = IValue::ptrValue(ptr);
            break;
          }
          case ValueKind::Param:
            return static_cast<OperandRef>(
                static_cast<const Param *>(value)->index());
          case ValueKind::Instruction:
            return slotOf(static_cast<const Instr *>(value));
        }
        immediates_.push_back(immediate);
        return ~static_cast<OperandRef>(immediates_.size() - 1);
    }

    static IValue
    zeroOf(IrType type)
    {
        if (type.isPtr())
            return IValue::ptrValue(PtrVal{});
        return IValue::intValue(0);
    }

    void
    snapshotGlobals(ExecResult &result) const
    {
        const auto &globals = module_.globals();
        for (size_t g = 0; g < globals.size(); ++g) {
            // Internal (C "static") globals are unobservable once main
            // returns; optimizations may legally drop final stores to
            // them (that is what dead-store elimination on Listing 1's
            // `c = 0;` does). Only external globals are part of the
            // observable behaviour.
            if (globals[g]->isInternal())
                continue;
            const MemObject &object = objects_[g];
            // Pointer slots are normalized to *name-rank* object ids:
            // two modules optimized differently (global DCE may have
            // removed unused internals) number their objects
            // differently, but a pointer to @g4 must compare equal
            // across them. Non-global targets (allocas) normalize to a
            // sentinel; MiniC programs cannot observe local addresses
            // after main returns anyway.
            auto first = heap_.begin() +
                         static_cast<ptrdiff_t>(object.offset);
            std::vector<IValue> slots(
                first, first + static_cast<ptrdiff_t>(object.count));
            for (IValue &slot : slots) {
                if (!slot.isPtr || slot.p.isNull())
                    continue;
                slot.p.obj = nameRankOf(slot.p.obj);
            }
            result.finalGlobals[globals[g]->name()] = std::move(slots);
        }
    }

    /** Stable cross-module id for a pointed-to object: an FNV-1a hash
     * of the global's name (module-independent), or -2 for non-global
     * objects. Optimized modules may have fewer globals than the
     * baseline, so any per-module numbering would not compare. */
    int32_t
    nameRankOf(int32_t object_id) const
    {
        const auto &globals = module_.globals();
        if (object_id < 0 ||
            static_cast<size_t>(object_id) >= globals.size())
            return -2; // an alloca or other non-global object
        uint32_t hash = 2166136261u;
        for (char c : globals[static_cast<size_t>(object_id)]->name()) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 16777619u;
        }
        // Keep it positive so it can never collide with the null
        // (-1) or non-global (-2) sentinels.
        return static_cast<int32_t>(hash & 0x7fffffffu);
    }

    void
    tick()
    {
        if (++steps_ > limits_.maxSteps)
            throw ExecStop{ExecStatus::Timeout};
    }

    IValue
    value(OperandRef ref, size_t frame) const
    {
        return ref >= 0 ? stack_[frame + static_cast<size_t>(ref)]
                        : immediates_[static_cast<size_t>(~ref)];
    }

    IValue
    operand(const Step &step, size_t index, size_t frame) const
    {
        return value(operands_[step.operands + index], frame);
    }

    IValue
    loadFrom(PtrVal ptr, IrType type) const
    {
        if (ptr.isNull())
            return zeroOf(type);
        const MemObject &object = objects_[static_cast<size_t>(ptr.obj)];
        if (ptr.index < 0 ||
            static_cast<uint64_t>(ptr.index) >= object.count) {
            return zeroOf(type); // OOB load: defined as zero
        }
        IValue slot = heap_[object.offset + static_cast<size_t>(ptr.index)];
        if (type.isPtr())
            return slot.isPtr ? slot : IValue::ptrValue(PtrVal{});
        int64_t raw = slot.isPtr ? 0 : slot.i;
        return IValue::intValue(wrapInt(raw, type.bits, type.isSigned));
    }

    void
    storeTo(PtrVal ptr, IValue value)
    {
        if (ptr.isNull())
            return; // dropped, defined
        const MemObject &object = objects_[static_cast<size_t>(ptr.obj)];
        if (ptr.index < 0 ||
            static_cast<uint64_t>(ptr.index) >= object.count) {
            return; // OOB store: dropped
        }
        // Canonicalize integers to the slot's element type so memory
        // always holds values in slot-typed form.
        if (!value.isPtr && object.elementType.isInt()) {
            value.i = wrapInt(value.i, object.elementType.bits,
                              object.elementType.isSigned);
        }
        heap_[object.offset + static_cast<size_t>(ptr.index)] = value;
    }

    static int64_t
    evalBin(BinOp op, int64_t a, int64_t b, IrType type)
    {
        unsigned bits = type.bits;
        bool is_signed = type.isSigned;
        switch (op) {
          case BinOp::Add: return addInt(a, b, bits, is_signed);
          case BinOp::Sub: return subInt(a, b, bits, is_signed);
          case BinOp::Mul: return mulInt(a, b, bits, is_signed);
          case BinOp::Div: return divInt(a, b, bits, is_signed);
          case BinOp::Rem: return remInt(a, b, bits, is_signed);
          case BinOp::Shl: return shlInt(a, b, bits, is_signed);
          case BinOp::Shr: return shrInt(a, b, bits, is_signed);
          case BinOp::And: return wrapInt(a & b, bits, is_signed);
          case BinOp::Or: return wrapInt(a | b, bits, is_signed);
          case BinOp::Xor: return wrapInt(a ^ b, bits, is_signed);
        }
        return 0;
    }

    static bool
    evalCmpInt(CmpPred pred, int64_t a, int64_t b)
    {
        switch (pred) {
          case CmpPred::Eq: return a == b;
          case CmpPred::Ne: return a != b;
          case CmpPred::Slt: return a < b;
          case CmpPred::Sle: return a <= b;
          case CmpPred::Sgt: return a > b;
          case CmpPred::Sge: return a >= b;
          case CmpPred::Ult:
            return static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
          case CmpPred::Ule:
            return static_cast<uint64_t>(a) <= static_cast<uint64_t>(b);
          case CmpPred::Ugt:
            return static_cast<uint64_t>(a) > static_cast<uint64_t>(b);
          case CmpPred::Uge:
            return static_cast<uint64_t>(a) >= static_cast<uint64_t>(b);
        }
        return false;
    }

    /** Pointer comparison: total deterministic order by (obj, index);
     * distinct objects never compare equal (MiniC rule). */
    static bool
    evalCmpPtr(CmpPred pred, PtrVal a, PtrVal b)
    {
        bool eq = a == b;
        auto less = [&] {
            if (a.obj != b.obj)
                return a.obj < b.obj;
            return a.index < b.index;
        };
        switch (pred) {
          case CmpPred::Eq: return eq;
          case CmpPred::Ne: return !eq;
          case CmpPred::Slt:
          case CmpPred::Ult: return less();
          case CmpPred::Sle:
          case CmpPred::Ule: return less() || eq;
          case CmpPred::Sgt:
          case CmpPred::Ugt: return !less() && !eq;
          case CmpPred::Sge:
          case CmpPred::Uge: return !less();
        }
        return false;
    }

    /** Run @p fn in the frame starting at stack_[frame], whose param
     * slots the caller has filled. The stack may reallocate during
     * nested calls, so slots are always addressed by index. */
    IValue
    callFunction(const DecodedFn &fn, size_t frame)
    {
        if (++callDepth_ > limits_.maxCallDepth)
            throw ExecStop{ExecStatus::Trap};

        int32_t block = 0; // entry
        int32_t previous = -1;
        for (;;) {
            const DecodedBlock &db =
                blocks_[fn.blocks + static_cast<uint32_t>(block)];
            if (limits_.recordBlocks)
                executed_[fn.blockBase + static_cast<uint32_t>(block)] = 1;
            if (db.numPhis) {
                // Phi nodes evaluate simultaneously on block entry.
                phiValues_.clear();
                for (uint32_t p = db.phis; p < db.phis + db.numPhis; ++p) {
                    const DecodedPhi &phi = phis_[p];
                    const Incoming *in = &incoming_[phi.incoming];
                    const Incoming *last = in + phi.count;
                    while (in != last && in->pred != previous)
                        ++in;
                    assert(in != last && "phi has no incoming for pred");
                    phiValues_.push_back(value(in->value, frame));
                }
                for (uint32_t p = 0; p < db.numPhis; ++p)
                    stack_[frame + static_cast<size_t>(
                                       phis_[db.phis + p].dest)] =
                        phiValues_[p];
            }

            int32_t next = -1;
            for (uint32_t s = db.steps; s < db.steps + db.numSteps; ++s) {
                const Step &step = code_[s];
                const Instr *instr = step.instr;
                tick();
                IValue result;
                switch (step.opcode) {
                  case Opcode::Alloca: {
                    PtrVal ptr;
                    ptr.obj = newObject(instr->allocatedType,
                                        instr->allocatedCount);
                    result = IValue::ptrValue(ptr);
                    break;
                  }
                  case Opcode::Load:
                    result = loadFrom(operand(step, 0, frame).p,
                                      instr->type());
                    break;
                  case Opcode::Store:
                    storeTo(operand(step, 1, frame).p,
                            operand(step, 0, frame));
                    break;
                  case Opcode::Bin:
                    result = IValue::intValue(
                        evalBin(instr->binOp, operand(step, 0, frame).i,
                                operand(step, 1, frame).i,
                                instr->type()));
                    break;
                  case Opcode::Cmp: {
                    IValue a = operand(step, 0, frame);
                    IValue b = operand(step, 1, frame);
                    bool taken;
                    if (a.isPtr || b.isPtr)
                        taken = evalCmpPtr(instr->cmpPred, a.p, b.p);
                    else
                        taken = evalCmpInt(instr->cmpPred, a.i, b.i);
                    result = IValue::intValue(taken ? 1 : 0);
                    break;
                  }
                  case Opcode::Cast: {
                    IrType to = instr->type();
                    result = IValue::intValue(wrapInt(
                        operand(step, 0, frame).i, to.bits, to.isSigned));
                    break;
                  }
                  case Opcode::Gep: {
                    PtrVal ptr = operand(step, 0, frame).p;
                    if (!ptr.isNull())
                        ptr.index += operand(step, 1, frame).i;
                    result = IValue::ptrValue(ptr);
                    break;
                  }
                  case Opcode::Freeze:
                    result = operand(step, 0, frame);
                    break;
                  case Opcode::Select: {
                    int64_t cond = operand(step, 0, frame).i;
                    result = operand(step, cond != 0 ? 1 : 2, frame);
                    break;
                  }
                  case Opcode::Call: {
                    if (step.callee < 0) {
                        callTrace_.push_back(&instr->callee->name());
                        result = zeroOf(instr->type());
                        break;
                    }
                    const DecodedFn &callee =
                        fns_[static_cast<size_t>(step.callee)];
                    size_t callee_frame = stack_.size();
                    stack_.resize(callee_frame + callee.numSlots);
                    for (uint32_t i = 0; i < step.numOperands; ++i)
                        stack_[callee_frame + i] = operand(step, i, frame);
                    result = callFunction(callee, callee_frame);
                    stack_.resize(callee_frame);
                    break;
                  }
                  case Opcode::Ret: {
                    IValue ret = step.numOperands == 1
                                     ? operand(step, 0, frame)
                                     : zeroOf(fn.fn->returnType());
                    --callDepth_;
                    return ret;
                  }
                  case Opcode::Br:
                    next = targets_[step.targets];
                    break;
                  case Opcode::CondBr: {
                    IValue cond = operand(step, 0, frame);
                    bool taken = cond.isPtr ? !cond.p.isNull()
                                            : cond.i != 0;
                    next = targets_[step.targets + (taken ? 0 : 1)];
                    break;
                  }
                  case Opcode::Switch: {
                    int64_t value = operand(step, 0, frame).i;
                    next = targets_[step.targets]; // default
                    for (size_t i = 0; i < instr->caseValues.size();
                         ++i) {
                        if (instr->caseValues[i] == value) {
                            next = targets_[step.targets + 1 + i];
                            break;
                        }
                    }
                    break;
                  }
                  case Opcode::Unreachable:
                    // Defined in MiniC as an immediate trap; correct
                    // programs never execute one.
                    throw ExecStop{ExecStatus::Trap};
                  case Opcode::Phi:
                    break; // never decoded as a step
                }
                if (step.dest >= 0)
                    stack_[frame + static_cast<size_t>(step.dest)] = result;
                if (next >= 0)
                    break;
            }
            assert(next >= 0 && "block fell through without terminator");
            previous = block;
            block = next;
        }
    }

    const Module &module_;
    ExecLimits limits_;

    // Decoded program (fixed after construction).
    std::vector<std::pair<const Function *, size_t>> fnPositions_;
    std::vector<DecodedFn> fns_;
    std::vector<DecodedBlock> blocks_;
    std::vector<Step> code_;
    std::vector<DecodedPhi> phis_;
    std::vector<Incoming> incoming_;
    std::vector<OperandRef> operands_;
    std::vector<int32_t> targets_;
    std::vector<IValue> immediates_;
    std::vector<int32_t> slotOfId_;
    std::vector<int32_t> globalObjectById_;

    // Execution state.
    std::vector<IValue> stack_;
    std::vector<IValue> phiValues_;
    std::vector<MemObject> objects_;
    std::vector<IValue> heap_;
    std::vector<const std::string *> callTrace_;
    std::vector<unsigned char> executed_;
    uint64_t steps_ = 0;
    unsigned callDepth_ = 0;
};

} // namespace

ExecResult
execute(const Module &module, const std::string &entry,
        const ExecLimits &limits)
{
    support::TraceSpan span("execute", "interp");
    Machine machine(module, limits);
    return machine.run(entry);
}

bool
observablyEqual(const ExecResult &a, const ExecResult &b)
{
    return a.status == b.status && a.exitValue == b.exitValue &&
           a.callTrace == b.callTrace && a.finalGlobals == b.finalGlobals;
}

std::string
explainDifference(const ExecResult &a, const ExecResult &b)
{
    std::string out;
    if (a.status != b.status) {
        out += "status differs: " +
               std::to_string(static_cast<int>(a.status)) + " vs " +
               std::to_string(static_cast<int>(b.status)) + "\n";
    }
    if (a.exitValue != b.exitValue) {
        out += "exit value differs: " + std::to_string(a.exitValue) +
               " vs " + std::to_string(b.exitValue) + "\n";
    }
    if (a.callTrace != b.callTrace) {
        out += "call trace differs (" +
               std::to_string(a.callTrace.size()) + " vs " +
               std::to_string(b.callTrace.size()) + " calls)\n";
        size_t limit = std::min(a.callTrace.size(), b.callTrace.size());
        for (size_t i = 0; i < limit; ++i) {
            if (a.callTrace[i] != b.callTrace[i]) {
                out += "  first divergence at call " + std::to_string(i) +
                       ": " + a.callTrace[i] + " vs " + b.callTrace[i] +
                       "\n";
                break;
            }
        }
    }
    if (a.finalGlobals != b.finalGlobals) {
        for (const auto &[name, slots] : a.finalGlobals) {
            auto it = b.finalGlobals.find(name);
            if (it == b.finalGlobals.end()) {
                out += "global @" + name + " missing on one side\n";
                continue;
            }
            if (slots != it->second) {
                out += "global @" + name + " differs";
                if (!slots.empty() && !it->second.empty() &&
                    !slots[0].isPtr) {
                    out += ": [0] = " + std::to_string(slots[0].i) +
                           " vs " + std::to_string(it->second[0].i);
                }
                out += "\n";
            }
        }
    }
    return out;
}

} // namespace dce::interp
