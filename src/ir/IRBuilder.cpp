//===- ir/IRBuilder.cpp ---------------------------------------------------==//

#include "ir/IRBuilder.h"

#include <bit>
#include <cassert>

using namespace jrpm;
using namespace jrpm::ir;

std::uint32_t IRBuilder::createFunction(const std::string &Name,
                                        std::uint32_t NumParams) {
  Function F;
  F.Name = Name;
  F.NumParams = NumParams;
  F.NumRegs = NumParams;
  F.Blocks.emplace_back();
  M.Functions.push_back(std::move(F));
  FuncIndex = static_cast<std::uint32_t>(M.Functions.size() - 1);
  BlockIndex = 0;
  return FuncIndex;
}

void IRBuilder::setFunction(std::uint32_t NewFunc, std::uint32_t NewBlock) {
  assert(NewFunc < M.Functions.size() && "function index out of range");
  FuncIndex = NewFunc;
  BlockIndex = NewBlock;
}

std::uint16_t IRBuilder::newReg() {
  Function &F = function();
  assert(F.NumRegs < NoReg && "register file exhausted");
  return static_cast<std::uint16_t>(F.NumRegs++);
}

std::uint32_t IRBuilder::newBlock() {
  Function &F = function();
  F.Blocks.emplace_back();
  return static_cast<std::uint32_t>(F.Blocks.size() - 1);
}

void IRBuilder::setBlock(std::uint32_t Block) {
  assert(Block < function().numBlocks() && "block index out of range");
  BlockIndex = Block;
}

Instruction &IRBuilder::emit(const Instruction &I) {
  BasicBlock &BB = function().Blocks[BlockIndex];
  assert(!BB.hasTerminator() && "emitting after terminator");
  BB.Instructions.push_back(I);
  return BB.Instructions.back();
}

std::uint16_t IRBuilder::emitBinary(Opcode Op, std::uint16_t A,
                                    std::uint16_t B) {
  std::uint16_t Dst = newReg();
  emitBinaryInto(Op, Dst, A, B);
  return Dst;
}

void IRBuilder::emitBinaryInto(Opcode Op, std::uint16_t Dst, std::uint16_t A,
                               std::uint16_t B) {
  Instruction I;
  I.Op = Op;
  I.Dst = Dst;
  I.A = A;
  I.B = B;
  emit(I);
}

void IRBuilder::emitAddImmInto(std::uint16_t Dst, std::uint16_t A,
                               std::int64_t Imm) {
  Instruction I;
  I.Op = Opcode::AddImm;
  I.Dst = Dst;
  I.A = A;
  I.Imm = Imm;
  emit(I);
}

std::uint16_t IRBuilder::emitConstI(std::int64_t Value) {
  std::uint16_t Dst = newReg();
  emitConstIInto(Dst, Value);
  return Dst;
}

void IRBuilder::emitConstIInto(std::uint16_t Dst, std::int64_t Value) {
  Instruction I;
  I.Op = Opcode::ConstI;
  I.Dst = Dst;
  I.Imm = Value;
  emit(I);
}

std::uint16_t IRBuilder::emitConstF(double Value) {
  Instruction I;
  I.Op = Opcode::ConstF;
  I.Dst = newReg();
  I.Imm = static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(Value));
  emit(I);
  return I.Dst;
}

void IRBuilder::emitMov(std::uint16_t Dst, std::uint16_t Src) {
  Instruction I;
  I.Op = Opcode::Mov;
  I.Dst = Dst;
  I.A = Src;
  emit(I);
}

std::uint16_t IRBuilder::emitLoad(std::uint16_t Base, std::uint16_t Index,
                                  std::int64_t Offset) {
  std::uint16_t Dst = newReg();
  emitLoadInto(Dst, Base, Index, Offset);
  return Dst;
}

void IRBuilder::emitLoadInto(std::uint16_t Dst, std::uint16_t Base,
                             std::uint16_t Index, std::int64_t Offset) {
  Instruction I;
  I.Op = Opcode::Load;
  I.Dst = Dst;
  I.A = Base;
  I.B = Index;
  I.Imm = Offset;
  emit(I);
}

void IRBuilder::emitStore(std::uint16_t Value, std::uint16_t Base,
                          std::uint16_t Index, std::int64_t Offset) {
  Instruction I;
  I.Op = Opcode::Store;
  I.Dst = Value;
  I.A = Base;
  I.B = Index;
  I.Imm = Offset;
  emit(I);
}

void IRBuilder::emitBr(std::uint32_t Target) {
  Instruction I;
  I.Op = Opcode::Br;
  I.Imm = Target;
  emit(I);
}

void IRBuilder::emitCondBr(std::uint16_t Cond, std::uint32_t TrueTarget,
                           std::uint32_t FalseTarget) {
  Instruction I;
  I.Op = Opcode::CondBr;
  I.A = Cond;
  I.Imm = TrueTarget;
  I.Imm2 = static_cast<std::int32_t>(FalseTarget);
  emit(I);
}

void IRBuilder::emitRet(std::uint16_t Value) {
  Instruction I;
  I.Op = Opcode::Ret;
  I.A = Value;
  emit(I);
}

std::uint16_t IRBuilder::emitCall(std::uint32_t Callee,
                                  const std::vector<std::uint16_t> &Args,
                                  bool WantResult) {
  for (std::uint32_t Slot = 0; Slot < Args.size(); ++Slot) {
    Instruction ArgI;
    ArgI.Op = Opcode::Arg;
    ArgI.A = Args[Slot];
    ArgI.Imm = Slot;
    emit(ArgI);
  }
  Instruction I;
  I.Op = Opcode::Call;
  I.Dst = WantResult ? newReg() : NoReg;
  I.Imm = Callee;
  emit(I);
  return I.Dst;
}
