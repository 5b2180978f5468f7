#include "ir/ir.hpp"

#include <algorithm>

#include "support/ints.hpp"

namespace dce::ir {

//===------------------------------------------------------------------===//
// Opcode / operator names
//===------------------------------------------------------------------===//

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Alloca: return "alloca";
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::Bin: return "bin";
      case Opcode::Cmp: return "cmp";
      case Opcode::Cast: return "cast";
      case Opcode::Gep: return "gep";
      case Opcode::Select: return "select";
      case Opcode::Freeze: return "freeze";
      case Opcode::Call: return "call";
      case Opcode::Phi: return "phi";
      case Opcode::Ret: return "ret";
      case Opcode::Br: return "br";
      case Opcode::CondBr: return "condbr";
      case Opcode::Switch: return "switch";
      case Opcode::Unreachable: return "unreachable";
    }
    return "?";
}

const char *
binOpName(BinOp op)
{
    switch (op) {
      case BinOp::Add: return "add";
      case BinOp::Sub: return "sub";
      case BinOp::Mul: return "mul";
      case BinOp::Div: return "div";
      case BinOp::Rem: return "rem";
      case BinOp::Shl: return "shl";
      case BinOp::Shr: return "shr";
      case BinOp::And: return "and";
      case BinOp::Or: return "or";
      case BinOp::Xor: return "xor";
    }
    return "?";
}

const char *
cmpPredName(CmpPred pred)
{
    switch (pred) {
      case CmpPred::Eq: return "eq";
      case CmpPred::Ne: return "ne";
      case CmpPred::Slt: return "slt";
      case CmpPred::Sle: return "sle";
      case CmpPred::Sgt: return "sgt";
      case CmpPred::Sge: return "sge";
      case CmpPred::Ult: return "ult";
      case CmpPred::Ule: return "ule";
      case CmpPred::Ugt: return "ugt";
      case CmpPred::Uge: return "uge";
    }
    return "?";
}

const char *
castOpName(CastOp op)
{
    switch (op) {
      case CastOp::Trunc: return "trunc";
      case CastOp::Sext: return "sext";
      case CastOp::Zext: return "zext";
      case CastOp::Bitcast: return "bitcast";
    }
    return "?";
}

bool
cmpPredIsSigned(CmpPred pred)
{
    switch (pred) {
      case CmpPred::Slt:
      case CmpPred::Sle:
      case CmpPred::Sgt:
      case CmpPred::Sge:
        return true;
      default:
        return false;
    }
}

CmpPred
cmpPredSwapped(CmpPred pred)
{
    switch (pred) {
      case CmpPred::Eq: return CmpPred::Eq;
      case CmpPred::Ne: return CmpPred::Ne;
      case CmpPred::Slt: return CmpPred::Sgt;
      case CmpPred::Sle: return CmpPred::Sge;
      case CmpPred::Sgt: return CmpPred::Slt;
      case CmpPred::Sge: return CmpPred::Sle;
      case CmpPred::Ult: return CmpPred::Ugt;
      case CmpPred::Ule: return CmpPred::Uge;
      case CmpPred::Ugt: return CmpPred::Ult;
      case CmpPred::Uge: return CmpPred::Ule;
    }
    return pred;
}

CmpPred
cmpPredInverse(CmpPred pred)
{
    switch (pred) {
      case CmpPred::Eq: return CmpPred::Ne;
      case CmpPred::Ne: return CmpPred::Eq;
      case CmpPred::Slt: return CmpPred::Sge;
      case CmpPred::Sle: return CmpPred::Sgt;
      case CmpPred::Sgt: return CmpPred::Sle;
      case CmpPred::Sge: return CmpPred::Slt;
      case CmpPred::Ult: return CmpPred::Uge;
      case CmpPred::Ule: return CmpPred::Ugt;
      case CmpPred::Ugt: return CmpPred::Ule;
      case CmpPred::Uge: return CmpPred::Ult;
    }
    return pred;
}

//===------------------------------------------------------------------===//
// Value
//===------------------------------------------------------------------===//

void
Value::removeUser(Instr *user)
{
    if (valueKind_ == ValueKind::Constant)
        return; // constants track no users; see users()
    auto it = std::find(users_.begin(), users_.end(), user);
#ifndef NDEBUG
    if (it == users_.end()) {
        fprintf(stderr, "removeUser: value id=%u kind=%d; user opcode=%d id=%u\n",
                id_, (int)valueKind_, (int)user->opcode(), user->id());
    }
#endif
    assert(it != users_.end() && "removing a non-existent user");
    users_.erase(it);
}

void
Value::replaceAllUsesWith(Value *replacement)
{
    assert(replacement != this && "self-replacement");
    // Users mutate as we rewrite, so drain from the back.
    while (!users_.empty()) {
        Instr *user = users_.back();
        for (size_t i = 0; i < user->numOperands(); ++i) {
            if (user->operand(i) == this) {
                user->setOperand(i, replacement);
                break; // one use removed; re-check users_
            }
        }
    }
}

//===------------------------------------------------------------------===//
// Instr
//===------------------------------------------------------------------===//

Instr::~Instr()
{
    // No bookkeeping: whole-module teardown destroys values in
    // arbitrary order. Mid-life deletion goes through
    // BasicBlock::erase which calls dropOperands() first.
}

void
Instr::setOperand(size_t index, Value *value)
{
    assert(index < operands_.size());
    if (operands_[index])
        operands_[index]->removeUser(this);
    operands_[index] = value;
    if (value)
        value->addUser(this);
}

void
Instr::addOperand(Value *value)
{
    operands_.push_back(value);
    if (value)
        value->addUser(this);
}

void
Instr::removeOperand(size_t index)
{
    assert(index < operands_.size());
    if (operands_[index])
        operands_[index]->removeUser(this);
    operands_.erase(operands_.begin() + static_cast<ptrdiff_t>(index));
}

void
Instr::dropOperands()
{
    for (Value *operand : operands_) {
        if (operand)
            operand->removeUser(this);
    }
    operands_.clear();
    blockOperands_.clear();
}

bool
Instr::hasSideEffects() const
{
    switch (opcode_) {
      case Opcode::Store:
      case Opcode::Call:
        return true;
      default:
        return isTerminator();
    }
}

void
Instr::replaceSuccessor(BasicBlock *from, BasicBlock *to)
{
    assert(isTerminator());
    for (BasicBlock *&succ : blockOperands_) {
        if (succ == from)
            succ = to;
    }
}

void
Instr::addIncoming(Value *value, BasicBlock *pred)
{
    assert(opcode_ == Opcode::Phi);
    addOperand(value);
    blockOperands_.push_back(pred);
}

void
Instr::removeIncoming(size_t index)
{
    assert(opcode_ == Opcode::Phi);
    removeOperand(index);
    blockOperands_.erase(blockOperands_.begin() +
                         static_cast<ptrdiff_t>(index));
}

Value *
Instr::incomingValueFor(const BasicBlock *pred) const
{
    assert(opcode_ == Opcode::Phi);
    for (size_t i = 0; i < blockOperands_.size(); ++i) {
        if (blockOperands_[i] == pred)
            return operands_[i];
    }
    return nullptr;
}

//===------------------------------------------------------------------===//
// BasicBlock
//===------------------------------------------------------------------===//

Instr *
BasicBlock::append(InstrPtr instr)
{
    instr->parent_ = this;
    instrs_.push_back(std::move(instr));
    return instrs_.back().get();
}

Instr *
BasicBlock::insertBefore(size_t index, InstrPtr instr)
{
    assert(index <= instrs_.size());
    instr->parent_ = this;
    Instr *raw = instr.get();
    instrs_.insert(instrs_.begin() + static_cast<ptrdiff_t>(index),
                   std::move(instr));
    return raw;
}

size_t
BasicBlock::indexOf(const Instr *instr) const
{
    for (size_t i = 0; i < instrs_.size(); ++i) {
        if (instrs_[i].get() == instr)
            return i;
    }
    assert(false && "instruction not in block");
    return instrs_.size();
}

void
BasicBlock::erase(Instr *instr)
{
    assert(!instr->hasUsers() && "erasing an instruction with users");
    instr->dropOperands();
    size_t index = indexOf(instr);
    instrs_.erase(instrs_.begin() + static_cast<ptrdiff_t>(index));
}

InstrPtr
BasicBlock::detach(Instr *instr)
{
    size_t index = indexOf(instr);
    InstrPtr owned = std::move(instrs_[index]);
    instrs_.erase(instrs_.begin() + static_cast<ptrdiff_t>(index));
    owned->parent_ = nullptr;
    return owned;
}

BasicBlock::PhiRange
BasicBlock::phis() const
{
    const InstrPtr *first = instrs_.data();
    const InstrPtr *last = first;
    const InstrPtr *end = first + instrs_.size();
    while (last != end && (*last)->opcode() == Opcode::Phi)
        ++last;
    return PhiRange(first, last);
}

void
BasicBlock::replacePhiIncomingBlock(BasicBlock *from, BasicBlock *to)
{
    for (Instr *phi : phis()) {
        for (BasicBlock *&incoming : phi->blockOperands()) {
            if (incoming == from)
                incoming = to;
        }
    }
}

void
BasicBlock::removePhiIncomingFor(BasicBlock *pred)
{
    for (Instr *phi : phis()) {
        for (size_t i = phi->blockOperands().size(); i-- > 0;) {
            if (phi->blockOperands()[i] == pred)
                phi->removeIncoming(i);
        }
    }
}

//===------------------------------------------------------------------===//
// Function
//===------------------------------------------------------------------===//

Param *
Function::addParam(IrType type, std::string name)
{
    params_.push_back(std::make_unique<Param>(
        type, static_cast<unsigned>(params_.size()), std::move(name)));
    return params_.back().get();
}

void
Function::renumberBlocksFrom(size_t start)
{
    for (size_t i = start; i < blocks_.size(); ++i)
        blocks_[i]->indexInFn_ = static_cast<uint32_t>(i);
}

BasicBlock *
Function::addBlock(std::string name)
{
    assert(parent_ && "addBlock requires a module-owned function");
    if (name.empty())
        name = "bb" + std::to_string(nextBlockId_);
    ++nextBlockId_;
    blocks_.push_back(
        BlockPtr(parent_->arena().create<BasicBlock>(std::move(name))));
    blocks_.back()->parent_ = this;
    blocks_.back()->indexInFn_ =
        static_cast<uint32_t>(blocks_.size() - 1);
    return blocks_.back().get();
}

BasicBlock *
Function::adoptBlock(BlockPtr block)
{
    block->parent_ = this;
    block->indexInFn_ = static_cast<uint32_t>(blocks_.size());
    blocks_.push_back(std::move(block));
    return blocks_.back().get();
}

BlockPtr
Function::detachBlock(BasicBlock *block)
{
    size_t index = indexOfBlock(block);
    BlockPtr owned = std::move(blocks_[index]);
    blocks_.erase(blocks_.begin() + static_cast<ptrdiff_t>(index));
    renumberBlocksFrom(index);
    owned->parent_ = nullptr;
    return owned;
}

void
Function::eraseBlock(BasicBlock *block)
{
    // Drop all operand references first so instructions in this block
    // may reference each other (or be referenced by instructions in
    // other dead blocks being erased by the caller) in any order.
    for (auto &instr : block->instrs_)
        instr->dropOperands();
    size_t index = indexOfBlock(block);
    blocks_.erase(blocks_.begin() + static_cast<ptrdiff_t>(index));
    renumberBlocksFrom(index);
}

void
Function::moveBlockTo(size_t index, BasicBlock *block)
{
    size_t from = indexOfBlock(block);
    BlockPtr owned = std::move(blocks_[from]);
    blocks_.erase(blocks_.begin() + static_cast<ptrdiff_t>(from));
    if (index > from)
        --index;
    blocks_.insert(blocks_.begin() + static_cast<ptrdiff_t>(index),
                   std::move(owned));
    renumberBlocksFrom(std::min(index, from));
}

size_t
Function::indexOfBlock(const BasicBlock *block) const
{
    size_t index = block->indexInFn_;
    assert(index < blocks_.size() && blocks_[index].get() == block &&
           "stale block index");
    return index;
}

//===------------------------------------------------------------------===//
// Module
//===------------------------------------------------------------------===//

GlobalVar *
Module::addGlobal(std::string name, IrType element_type, uint64_t count,
                  bool internal)
{
    globals_.push_back(std::make_unique<GlobalVar>(
        std::move(name), element_type, count, internal));
    globals_.back()->setId(nextValueId());
    return globals_.back().get();
}

Function *
Module::addFunction(std::string name, IrType return_type, bool internal)
{
    functions_.push_back(std::make_unique<Function>(
        std::move(name), return_type, internal));
    functions_.back()->parent_ = this;
    return functions_.back().get();
}

GlobalVar *
Module::getGlobal(const std::string &name) const
{
    for (const auto &global : globals_) {
        if (global->name() == name)
            return global.get();
    }
    return nullptr;
}

Function *
Module::getFunction(const std::string &name) const
{
    for (const auto &fn : functions_) {
        if (fn->name() == name)
            return fn.get();
    }
    return nullptr;
}

void
Module::eraseFunction(Function *fn)
{
    // Drop operand bookkeeping for the whole body first.
    for (const auto &block : fn->blocks()) {
        for (const auto &instr : block->instrs())
            instr->dropOperands();
    }
    for (size_t i = 0; i < functions_.size(); ++i) {
        if (functions_[i].get() == fn) {
            functions_.erase(functions_.begin() +
                             static_cast<ptrdiff_t>(i));
            return;
        }
    }
    assert(false && "function not in module");
}

void
Module::eraseGlobal(GlobalVar *global)
{
    assert(!global->hasUsers() && "erasing a referenced global");
    for (size_t i = 0; i < globals_.size(); ++i) {
        if (globals_[i].get() == global) {
            globals_.erase(globals_.begin() +
                           static_cast<ptrdiff_t>(i));
            return;
        }
    }
    assert(false && "global not in module");
}

Constant *
Module::constant(IrType type, int64_t value)
{
    assert(type.isInt() || (type.isPtr() && value == 0));
    if (type.isInt())
        value = wrapInt(value, type.bits, type.isSigned);
    ConstantKey key{static_cast<uint32_t>(
                        (static_cast<uint32_t>(type.kind) << 16) |
                        (static_cast<uint32_t>(type.bits) << 8) |
                        (type.isSigned ? 1u : 0u)),
                    value};
    auto [it, inserted] = constantIndex_.try_emplace(key, nullptr);
    if (!inserted)
        return it->second;
    constants_.push_back(std::make_unique<Constant>(type, value));
    constants_.back()->setId(nextValueId());
    it->second = constants_.back().get();
    return it->second;
}

} // namespace dce::ir
