//===- tests/verifier_model_test.cpp - Verifier and dump reference models --==//
//
// ir::verifyModule's def-before-use pass runs the must-defined dataflow in
// place, in reverse post-order, over reachable blocks only. Its diagnostics
// are held to a reference model kept here: the plain round-robin fixpoint
// over every block in index order, with a fresh set per transfer. The
// cases are directed (one-path definitions, loop-carried temporaries,
// unreachable readers, a back edge into the entry) and random (raw CFGs
// and fuzz-generator programs with definitions dropped, before and after
// annotation). Module::dump is held to an snprintf rendering of the same
// format, including the extreme operand values.
//
//===----------------------------------------------------------------------===//

#include "analysis/Candidates.h"
#include "corpus/Generator.h"
#include "ir/IRBuilder.h"
#include "ir/RegUse.h"
#include "ir/Verifier.h"
#include "jit/Annotator.h"
#include "support/BitVector.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

using namespace jrpm;
using namespace jrpm::ir;

namespace {

//===----------------------------------------------------------------------===//
// Reference model: round-robin must-defined fixpoint over every block.
//===----------------------------------------------------------------------===//

std::vector<std::string> modelDefBeforeUse(const Function &F,
                                           std::uint32_t FIdx) {
  std::vector<std::string> Diags;
  std::uint32_t N = F.numBlocks();
  BitVector Universe(F.NumRegs);
  for (std::uint32_t R = 0; R < F.NumRegs; ++R)
    Universe.set(R);
  std::vector<BitVector> In(N, Universe), Out(N, Universe);
  In[0] = BitVector(F.NumRegs);
  for (std::uint32_t P = 0; P < F.NumParams; ++P)
    In[0].set(P);
  for (const auto &[Name, Reg] : F.NamedLocals)
    if (Reg < F.NumRegs)
      In[0].set(Reg);

  auto Transfer = [&](std::uint32_t B, const BitVector &InSet) {
    BitVector R = InSet;
    for (const Instruction &I : F.Blocks[B].Instructions) {
      std::uint16_t D = definedReg(I);
      if (D != NoReg && D < F.NumRegs)
        R.set(D);
    }
    return R;
  };
  auto Intersect = [](BitVector &X, const BitVector &Y) {
    BitVector Diff = X;
    Diff.subtract(Y);
    X.subtract(Diff);
  };

  auto Preds = F.computePredecessors();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::uint32_t B = 0; B < N; ++B) {
      if (B != 0 && !Preds[B].empty()) {
        BitVector NewIn = Universe;
        for (std::uint32_t P : Preds[B])
          Intersect(NewIn, Out[P]);
        if (!(NewIn == In[B])) {
          In[B] = NewIn;
          Changed = true;
        }
      }
      BitVector NewOut = Transfer(B, In[B]);
      if (!(NewOut == Out[B])) {
        Out[B] = NewOut;
        Changed = true;
      }
    }
  }

  for (std::uint32_t B = 0; B < N; ++B) {
    BitVector Defined = In[B];
    for (std::uint32_t Idx = 0; Idx < F.Blocks[B].Instructions.size();
         ++Idx) {
      const Instruction &I = F.Blocks[B].Instructions[Idx];
      forEachUsedReg(I, [&](std::uint16_t R) {
        if (R < F.NumRegs && !Defined.test(R)) {
          char Buf[96];
          std::snprintf(Buf, sizeof(Buf),
                        "func %u bb%u i%u: r%u may be read before any "
                        "definition",
                        FIdx, B, Idx, R);
          Diags.push_back(Buf);
        }
      });
      std::uint16_t D = definedReg(I);
      if (D != NoReg && D < F.NumRegs)
        Defined.set(D);
    }
  }
  return Diags;
}

std::vector<std::string> modelDiagnostics(const Module &M) {
  std::vector<std::string> Diags;
  for (std::uint32_t F = 0; F < M.Functions.size(); ++F) {
    std::vector<std::string> D = modelDefBeforeUse(M.Functions[F], F);
    Diags.insert(Diags.end(), D.begin(), D.end());
  }
  return Diags;
}

/// verifyModule's def-before-use diagnostics, in report order.
std::vector<std::string> verifierDiagnostics(const Module &M) {
  std::vector<std::string> Diags;
  for (std::string &E : verifyModule(M))
    if (E.find("may be read before any definition") != std::string::npos)
      Diags.push_back(std::move(E));
  return Diags;
}

/// Checks the verifier against the model; returns the diagnostic count.
std::size_t expectMatchesModel(const Module &M, const std::string &Where) {
  std::vector<std::string> Want = modelDiagnostics(M);
  EXPECT_EQ(verifierDiagnostics(M), Want) << Where;
  return Want.size();
}

//===----------------------------------------------------------------------===//
// Directed cases
//===----------------------------------------------------------------------===//

TEST(DefBeforeUseModel, ReadDefinedOnOnePathOnly) {
  // entry -> {then, join}; only `then` defines X; join reads X.
  Module M;
  IRBuilder B(M);
  B.createFunction("main", 0);
  std::uint32_t Then = B.newBlock(), Join = B.newBlock();
  std::uint16_t C = B.emitConstI(1);
  std::uint16_t X = B.newReg();
  B.emitCondBr(C, Then, Join);
  B.setBlock(Then);
  B.emitConstIInto(X, 2);
  B.emitBr(Join);
  B.setBlock(Join);
  B.emitRet(X);
  M.finalize();
  EXPECT_EQ(expectMatchesModel(M, "one-path"), 1u);
  std::vector<std::string> Diags = verifierDiagnostics(M);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags.front(),
            "func 0 bb2 i0: r1 may be read before any definition");
}

TEST(DefBeforeUseModel, LoopCarriedTemporary) {
  // The header reads T, which only the latch defines: the first iteration
  // reads it undefined. With T defined before the loop, nothing fires.
  for (bool DefinedBefore : {false, true}) {
    Module M;
    IRBuilder B(M);
    B.createFunction("main", 1);
    std::uint32_t Header = B.newBlock(), Latch = B.newBlock(),
                  Exit = B.newBlock();
    std::uint16_t T = B.newReg();
    if (DefinedBefore)
      B.emitConstIInto(T, 0);
    B.emitBr(Header);
    B.setBlock(Header);
    std::uint16_t Cond = B.emitBinary(Opcode::CmpLT, T, 0);
    B.emitCondBr(Cond, Latch, Exit);
    B.setBlock(Latch);
    B.emitAddImmInto(T, 0, 1);
    B.emitBr(Header);
    B.setBlock(Exit);
    B.emitRet(T);
    M.finalize();
    std::size_t Count = expectMatchesModel(M, "loop-carried");
    EXPECT_EQ(Count, DefinedBefore ? 0u : 2u);
  }
}

TEST(DefBeforeUseModel, UnreachableReaderStaysSilent) {
  // `dead` reads an undefined temporary and branches into the join, which
  // `then` reaches with X defined: neither block may fire.
  Module M;
  IRBuilder B(M);
  B.createFunction("main", 0);
  std::uint32_t Then = B.newBlock(), Dead = B.newBlock(),
                Join = B.newBlock();
  std::uint16_t X = B.newReg();
  std::uint16_t Undef = B.newReg();
  B.emitBr(Then);
  B.setBlock(Then);
  B.emitConstIInto(X, 2);
  B.emitBr(Join);
  B.setBlock(Dead);
  B.emitBinaryInto(Opcode::Add, Undef, Undef, Undef);
  B.emitBr(Join);
  B.setBlock(Join);
  B.emitRet(X);
  M.finalize();
  EXPECT_EQ(expectMatchesModel(M, "unreachable"), 0u);
}

TEST(DefBeforeUseModel, BackEdgeIntoEntry) {
  // bb1 defines T and jumps back to the entry, which reads T first. The
  // entry's set is fixed, so the read fires.
  Module M;
  IRBuilder B(M);
  B.createFunction("main", 1);
  std::uint32_t Body = B.newBlock(), Exit = B.newBlock();
  std::uint16_t T = B.newReg();
  std::uint16_t U = B.emitBinary(Opcode::Add, T, 0);
  B.emitCondBr(U, Body, Exit);
  B.setBlock(Body);
  B.emitConstIInto(T, 1);
  B.emitBr(0);
  B.setBlock(Exit);
  B.emitRet(U);
  M.finalize();
  EXPECT_EQ(expectMatchesModel(M, "entry back edge"), 1u);
}

TEST(DefBeforeUseModel, OutOfRangeTargetIsReportedNotFollowed) {
  Module M;
  IRBuilder B(M);
  B.createFunction("main", 0);
  std::uint16_t X = B.newReg();
  std::uint32_t Orphan = B.newBlock();
  B.emitBr(7);
  B.setBlock(Orphan);
  B.emitRet(X);
  M.finalize();
  std::vector<std::string> Errors = verifyModule(M);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("branch target 7 out of range"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Random cases
//===----------------------------------------------------------------------===//

/// A random CFG over a small register pool: random definitions and reads,
/// Br/CondBr to any block (the entry included) or Ret, and some named
/// locals. Reads of undefined temporaries are common by construction.
Module randomCfg(std::uint64_t Seed) {
  Prng Rng(Seed);
  Module M;
  IRBuilder B(M);
  std::uint32_t NumParams = static_cast<std::uint32_t>(Rng.nextBelow(3));
  B.createFunction("main", NumParams);
  std::uint32_t NumBlocks = 1 + static_cast<std::uint32_t>(Rng.nextBelow(12));
  for (std::uint32_t Blk = 1; Blk < NumBlocks; ++Blk)
    B.newBlock();
  std::uint32_t NumRegs = NumParams + 2 + Rng.nextBelow(70);
  while (B.function().NumRegs < NumRegs)
    B.newReg();
  for (std::uint32_t R = NumParams; R < NumRegs; ++R)
    if (Rng.nextBelow(6) == 0)
      B.function().NamedLocals.push_back(
          {"l" + std::to_string(R), static_cast<std::uint16_t>(R)});
  auto Reg = [&] { return static_cast<std::uint16_t>(Rng.nextBelow(NumRegs)); };
  auto Target = [&] {
    return static_cast<std::uint32_t>(Rng.nextBelow(NumBlocks));
  };
  for (std::uint32_t Blk = 0; Blk < NumBlocks; ++Blk) {
    B.setBlock(Blk);
    for (std::uint64_t K = Rng.nextBelow(5); K > 0; --K) {
      if (Rng.nextBelow(2))
        B.emitConstIInto(Reg(), 1);
      else
        B.emitBinaryInto(Opcode::Add, Reg(), Reg(), Reg());
    }
    switch (Rng.nextBelow(4)) {
    case 0:
      B.emitRet(Rng.nextBelow(2) ? Reg() : NoReg);
      break;
    case 1:
      B.emitBr(Target());
      break;
    default:
      B.emitCondBr(Reg(), Target(), Target());
      break;
    }
  }
  M.finalize();
  return M;
}

TEST(DefBeforeUseModel, RandomCfgsMatchModel) {
  std::size_t Diags = 0;
  for (std::uint64_t Seed = 1; Seed <= 600; ++Seed)
    Diags += expectMatchesModel(randomCfg(Seed),
                                "random cfg seed " + std::to_string(Seed));
  EXPECT_GT(Diags, 100u);
}

/// Turns about one in \p Every register definitions (calls excepted)
/// into Nops.
void dropDefinitions(Module &M, Prng &Rng, std::uint64_t Every) {
  for (Function &F : M.Functions)
    for (BasicBlock &BB : F.Blocks)
      for (Instruction &I : BB.Instructions)
        if (definedReg(I) != NoReg && I.Op != Opcode::Call &&
            Rng.nextBelow(Every) == 0) {
          Instruction Nop;
          Nop.Op = Opcode::Nop;
          I = Nop;
        }
  M.finalize();
}

TEST(DefBeforeUseModel, FuzzGeneratorProgramsMatchModel) {
  std::size_t Diags = 0;
  for (std::uint64_t Seed = 1; Seed <= 40; ++Seed) {
    std::string Where = "generator seed " + std::to_string(Seed);
    Module M = corpus::ProgramGenerator(Seed).generate();
    EXPECT_EQ(expectMatchesModel(M, Where), 0u) << Where;

    // Annotation appends split blocks after their successors.
    analysis::ModuleAnalysis MA(M);
    jit::AnnotatedModule AM =
        jit::annotateModule(M, MA, jit::AnnotationLevel::Optimized);
    EXPECT_EQ(expectMatchesModel(AM.Module, Where + " annotated"), 0u);

    Prng Rng(Seed);
    dropDefinitions(AM.Module, Rng, 8);
    Diags += expectMatchesModel(AM.Module, Where + " annotated, dropped");
  }
  EXPECT_GT(Diags, 40u);
}

//===----------------------------------------------------------------------===//
// Module::dump against an snprintf rendering
//===----------------------------------------------------------------------===//

std::string snprintfOperand(std::uint16_t Reg) {
  if (Reg == NoReg)
    return "_";
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "r%u", Reg);
  return Buf;
}

std::string snprintfDump(const Module &M) {
  std::string Out;
  char Buf[256];
  for (const Function &F : M.Functions) {
    std::snprintf(Buf, sizeof(Buf), "func %s(params=%u, regs=%u)\n",
                  F.Name.c_str(), F.NumParams, F.NumRegs);
    Out += Buf;
    for (std::uint32_t B = 0; B < F.Blocks.size(); ++B) {
      std::snprintf(Buf, sizeof(Buf), "  bb%u:\n", B);
      Out += Buf;
      for (const Instruction &I : F.Blocks[B].Instructions) {
        std::snprintf(Buf, sizeof(Buf), "    %s %s, %s, %s, imm=%lld, imm2=%d\n",
                      opcodeName(I.Op), snprintfOperand(I.Dst).c_str(),
                      snprintfOperand(I.A).c_str(),
                      snprintfOperand(I.B).c_str(),
                      static_cast<long long>(I.Imm), I.Imm2);
        Out += Buf;
      }
    }
  }
  return Out;
}

TEST(IRDump, MatchesSnprintfOnEdgeValues) {
  Module M;
  Function F;
  F.Name = "edge";
  F.NumParams = 4294967295u;
  F.NumRegs = 65535;
  F.Blocks.resize(2);
  auto Add = [&](std::uint32_t Blk, Opcode Op, std::uint16_t Dst,
                 std::uint16_t A, std::uint16_t B, std::int64_t Imm,
                 std::int32_t Imm2) {
    Instruction I;
    I.Op = Op;
    I.Dst = Dst;
    I.A = A;
    I.B = B;
    I.Imm = Imm;
    I.Imm2 = Imm2;
    F.Blocks[Blk].Instructions.push_back(I);
  };
  Add(0, Opcode::Add, NoReg, 65534, 0, 0, 0);
  Add(0, Opcode::ConstI, 65534, NoReg, NoReg,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int32_t>::min());
  Add(0, Opcode::ConstI, 1, NoReg, NoReg,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int32_t>::max());
  Add(0, Opcode::CondBr, NoReg, 9, NoReg, -1, -1);
  Add(1, Opcode::Ret, NoReg, NoReg, NoReg, 0, 0);
  M.Functions.push_back(F);
  M.Functions.push_back(Function{}); // empty name, no blocks
  M.finalize();
  EXPECT_EQ(M.dump(), snprintfDump(M));
  EXPECT_NE(M.dump().find("imm=-9223372036854775808, imm2=-2147483648"),
            std::string::npos);
  EXPECT_NE(M.dump().find("consti r65534, _, _"), std::string::npos);
}

TEST(IRDump, MatchesSnprintfOnGeneratedPrograms) {
  for (std::uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Module M = corpus::ProgramGenerator(Seed).generate();
    EXPECT_EQ(M.dump(), snprintfDump(M)) << "seed " << Seed;
    analysis::ModuleAnalysis MA(M);
    Module AM =
        jit::annotateModule(M, MA, jit::AnnotationLevel::Optimized).Module;
    EXPECT_EQ(AM.dump(), snprintfDump(AM)) << "seed " << Seed << " annotated";
  }
}

} // namespace
