//===- exec/CodeImage.cpp -------------------------------------------------==//

#include "exec/CodeImage.h"

#include "support/Compiler.h"

using namespace jrpm;
using namespace jrpm::exec;

CodeImage::CodeImage(const ir::Module &M) {
  std::size_t NumInsts = 0, NumBlocks = 0;
  for (const ir::Function &F : M.Functions) {
    NumBlocks += F.Blocks.size();
    for (const ir::BasicBlock &BB : F.Blocks)
      NumInsts += BB.Instructions.size();
  }
  Insts.reserve(NumInsts);
  InstBlock.reserve(NumInsts);
  Blocks.reserve(NumBlocks);
  Funcs.reserve(M.Functions.size());
  for (const ir::Function &F : M.Functions)
    appendFunction(F);
}

std::uint32_t CodeImage::appendFunction(const ir::Function &F) {
  const auto FI = static_cast<std::uint32_t>(Funcs.size());
  // Pass 1: lay out the blocks after every existing instruction, in block
  // order (the order Module::finalize() numbers the tracer PCs in).
  std::uint64_t Pc = Insts.size();
  FuncDesc FD;
  FD.EntryPc = static_cast<FlatPc>(Pc);
  FD.NumRegs = F.NumRegs;
  FD.NumParams = F.NumParams;
  FD.FirstBlock = static_cast<std::uint32_t>(Blocks.size());
  FD.NumBlocks = F.numBlocks();
  for (std::uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
    const ir::BasicBlock &BB = F.Blocks[BI];
    if (!BB.hasTerminator())
      JRPM_FATAL("CodeImage: block without terminator (unverified IR)");
    BlockDesc BD;
    BD.StartPc = static_cast<FlatPc>(Pc);
    BD.NumInsts = static_cast<std::uint32_t>(BB.Instructions.size());
    BD.Func = FI;
    BD.BlockInFunc = BI;
    Blocks.push_back(BD);
    Pc += BB.Instructions.size();
  }
  if (Pc > 0x7FFFFFFF)
    JRPM_FATAL("CodeImage: module exceeds the 2^31 instruction limit");
  Funcs.push_back(FD);

  // Pass 2: decode, resolving branch targets to flat PCs.
  auto StartOf = [&](std::int64_t Block) {
    return Blocks[FD.FirstBlock + static_cast<std::uint32_t>(Block)].StartPc;
  };
  for (std::uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
    bool First = true;
    for (const ir::Instruction &I : F.Blocks[BI].Instructions) {
      DecodedInst D;
      D.Op = I.Op;
      D.Flags = First ? DecodedInst::BlockStartFlag : 0;
      D.Dst = I.Dst;
      D.A = I.A;
      D.B = I.B;
      D.Imm = I.Imm;
      D.Imm2 = I.Imm2;
      D.Pc = I.Pc;
      if (I.Op == ir::Opcode::Br || I.Op == ir::Opcode::CondBr)
        D.Imm = StartOf(I.Imm);
      if (I.Op == ir::Opcode::CondBr)
        D.Imm2 = static_cast<std::int32_t>(StartOf(I.Imm2));
      Insts.push_back(D);
      InstBlock.push_back(FD.FirstBlock + BI);
      First = false;
    }
  }
  return FI;
}
