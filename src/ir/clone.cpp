#include "ir/clone.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "support/trace.hpp"

namespace dce::ir {

InstrPtr
cloneInstr(const Instr &instr, Module &module)
{
    InstrPtr copy = module.newInstr(instr.opcode(), instr.type());
    for (Value *operand : instr.operands())
        copy->addOperand(operand);
    copy->blockOperands() = instr.blockOperands();
    copy->binOp = instr.binOp;
    copy->cmpPred = instr.cmpPred;
    copy->castOp = instr.castOp;
    copy->callee = instr.callee;
    copy->allocatedType = instr.allocatedType;
    copy->allocatedCount = instr.allocatedCount;
    copy->allocaIsArray = instr.allocaIsArray;
    copy->gepElemSize = instr.gepElemSize;
    copy->caseValues = instr.caseValues;
    if (!copy->type().isVoid())
        copy->setId(module.nextValueId());
    return copy;
}

void
remapInstr(Instr &instr, const CloneMap &map)
{
    for (size_t i = 0; i < instr.numOperands(); ++i) {
        Value *mapped = map.get(instr.operand(i));
        if (mapped != instr.operand(i))
            instr.setOperand(i, mapped);
    }
    for (BasicBlock *&block : instr.blockOperands())
        block = map.get(block);
}

std::unique_ptr<Module>
cloneModule(const Module &module)
{
    support::TraceSpan span("clone", "compile");
    auto clone = std::make_unique<Module>();
    // Flat maps: globals, instructions, and constants resolve through
    // their dense value id; blocks positionally via indexInFn; params
    // (no ids) positionally via their owning function; functions
    // through a sorted (source, copy) table.
    std::vector<Value *> value_map(module.valueIdBound(), nullptr);
    std::vector<std::pair<const Function *, Function *>> fn_map;
    fn_map.reserve(module.functions().size());

    // Globals: create all objects first, then copy initializers (they
    // may hold the address of any other global).
    for (const auto &global : module.globals()) {
        GlobalVar *copy =
            clone->addGlobal(global->name(), global->elementType(),
                             global->count(), global->isInternal());
        copy->setIsArray(global->isArray());
        value_map[global->id()] = copy;
    }
    for (const auto &global : module.globals()) {
        auto *copy =
            static_cast<GlobalVar *>(value_map[global->id()]);
        copy->init.reserve(global->init.size());
        for (const GlobalInit &init : global->init) {
            if (init.isAddress()) {
                auto *base = static_cast<const GlobalVar *>(
                    value_map[init.base->id()]);
                copy->init.push_back(
                    GlobalInit::addressOf(base, init.value));
            } else {
                copy->init.push_back(init);
            }
        }
    }

    // Function shells + params before bodies, so calls and block
    // layouts can remap in one final pass.
    for (const auto &fn : module.functions()) {
        Function *copy = clone->addFunction(
            fn->name(), fn->returnType(), fn->isInternal());
        copy->setNoDce(fn->noDce());
        for (const auto &param : fn->params())
            copy->addParam(param->type(), param->name());
        fn_map.emplace_back(fn.get(), copy);
        for (const auto &block : fn->blocks())
            copy->addBlock(block->name())->reserve(block->size());
    }
    std::sort(fn_map.begin(), fn_map.end(),
              [](const auto &a, const auto &b) {
                  return std::less<const Function *>()(a.first, b.first);
              });
    auto copy_of = [&fn_map](const Function *fn) {
        auto it = std::lower_bound(
            fn_map.begin(), fn_map.end(), fn,
            [](const auto &entry, const Function *key) {
                return std::less<const Function *>()(entry.first, key);
            });
        assert(it != fn_map.end() && it->first == fn);
        return it->second;
    };

    // Instruction shells, without operands: operands may name values
    // defined later in the layout. Void instructions are never
    // operands, so only value-producing ones (which all carry unique
    // ids) enter the map.
    for (const auto &fn : module.functions()) {
        Function *dest_fn = copy_of(fn.get());
        for (size_t b = 0; b < fn->blocks().size(); ++b) {
            BasicBlock *dest = dest_fn->blocks()[b].get();
            for (const auto &instr : fn->blocks()[b]->instrs()) {
                InstrPtr copy =
                    clone->newInstr(instr->opcode(), instr->type());
                copy->binOp = instr->binOp;
                copy->cmpPred = instr->cmpPred;
                copy->castOp = instr->castOp;
                if (instr->callee)
                    copy->callee = copy_of(instr->callee);
                copy->allocatedType = instr->allocatedType;
                copy->allocatedCount = instr->allocatedCount;
                copy->allocaIsArray = instr->allocaIsArray;
                copy->gepElemSize = instr->gepElemSize;
                copy->caseValues = instr->caseValues;
                for (BasicBlock *target : instr->blockOperands()) {
                    copy->addBlockOperand(
                        dest_fn->blocks()[target->indexInFn()].get());
                }
                if (!instr->type().isVoid()) {
                    copy->setId(clone->nextValueId());
                    value_map[instr->id()] = copy.get();
                }
                dest->append(std::move(copy));
            }
        }
    }

    // Operands, mapped into the clone. Constants are interned lazily
    // in the clone's pool; everything else was mapped above. Walking
    // in layout order gives every use list the order a fresh lowering
    // would.
    for (const auto &fn : module.functions()) {
        Function *dest_fn = copy_of(fn.get());
        for (size_t b = 0; b < fn->blocks().size(); ++b) {
            const auto &source = fn->blocks()[b]->instrs();
            const auto &dest = dest_fn->blocks()[b]->instrs();
            for (size_t i = 0; i < source.size(); ++i) {
                for (Value *operand : source[i]->operands()) {
                    Value *mapped;
                    switch (operand->valueKind()) {
                      case ValueKind::Param:
                        mapped = dest_fn
                                     ->params()[static_cast<Param *>(
                                                    operand)
                                                    ->index()]
                                     .get();
                        break;
                      case ValueKind::Constant: {
                        auto *c = static_cast<Constant *>(operand);
                        mapped = value_map[c->id()];
                        if (!mapped) {
                            mapped =
                                clone->constant(c->type(), c->value());
                            value_map[c->id()] = mapped;
                        }
                        break;
                      }
                      default:
                        mapped = value_map[operand->id()];
                        break;
                    }
                    assert(mapped && "unmapped operand in clone");
                    dest[i]->addOperand(mapped);
                }
            }
        }
    }
    return clone;
}

CloneMap
cloneRegion(const std::vector<BasicBlock *> &blocks, Function &dest,
            Module &module, CloneMap seed, const std::string &suffix)
{
    CloneMap map = std::move(seed);
    // First create all blocks so terminators can be remapped.
    for (const BasicBlock *block : blocks)
        map.blocks[block] = dest.addBlock(block->name() + suffix);
    // Clone instructions.
    for (const BasicBlock *block : blocks) {
        BasicBlock *clone = map.blocks.at(block);
        for (const auto &instr : block->instrs()) {
            Instr *copied = clone->append(cloneInstr(*instr, module));
            map.values[instr.get()] = copied;
        }
    }
    // Remap references within the clones.
    for (const BasicBlock *block : blocks) {
        BasicBlock *clone = map.blocks.at(block);
        for (const auto &instr : clone->instrs())
            remapInstr(*instr, map);
    }
    return map;
}

} // namespace dce::ir
