//===- tests/analysis_test.cpp - CFG analyses unit tests -------------------==//

#include "TestUtil.h"
#include "analysis/Candidates.h"
#include "analysis/Dominators.h"
#include "analysis/InductionInfo.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "corpus/Generator.h"
#include "corpus/Template.h"
#include "corpus/Variant.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

using namespace jrpm;
using namespace jrpm::analysis;
using namespace jrpm::front;
using jrpm::testutil::makeMain;

namespace {

const ir::Function &mainFunc(const ir::Module &M) {
  return M.Functions[M.EntryFunction];
}

/// Reference model of intra-iteration dominance, kept from the fixpoint
/// LoopScev ran before it asked the function's dominator tree: iterative
/// dominator sets over the loop body with the backedges removed, rooted
/// at the header.
class IterDominanceReference {
public:
  IterDominanceReference(const ir::Function &F, const Loop &L) {
    // Loop-local numbering, header first.
    LocalId[L.Header] = 0;
    for (std::uint32_t B : L.Blocks)
      if (B != L.Header)
        LocalId.emplace(B, static_cast<std::uint32_t>(LocalId.size()));
    std::uint32_t N = static_cast<std::uint32_t>(LocalId.size());

    // Intra-iteration predecessors: loop-internal edges minus backedges.
    std::vector<std::vector<std::uint32_t>> Preds(N);
    std::vector<std::uint32_t> Succs;
    for (std::uint32_t B : L.Blocks) {
      Succs.clear();
      F.Blocks[B].appendSuccessors(Succs);
      for (std::uint32_t S : Succs)
        if (L.contains(S) && S != L.Header)
          Preds[LocalId.at(S)].push_back(LocalId.at(B));
    }

    IterDom.assign(N, std::vector<bool>(N, true));
    IterDom[0].assign(N, false);
    IterDom[0][0] = true;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (std::uint32_t B = 1; B < N; ++B) {
        std::vector<bool> Meet(N, true);
        if (Preds[B].empty())
          Meet.assign(N, false); // unreachable within an iteration
        for (std::uint32_t P : Preds[B])
          for (std::uint32_t D = 0; D < N; ++D)
            Meet[D] = Meet[D] && IterDom[P][D];
        Meet[B] = true;
        if (Meet != IterDom[B]) {
          IterDom[B] = Meet;
          Changed = true;
        }
      }
    }
  }

  /// True when every intra-iteration path from the header to \p Block
  /// passes through \p Dom.
  bool dominates(std::uint32_t Dom, std::uint32_t Block) const {
    return IterDom[LocalId.at(Block)][LocalId.at(Dom)];
  }

private:
  std::map<std::uint32_t, std::uint32_t> LocalId;
  std::vector<std::vector<bool>> IterDom;
};

struct IterDominanceTally {
  std::uint64_t Loops = 0;
  std::uint64_t NestedLoops = 0;
  std::uint64_t Pairs = 0;
};

/// Compares DominatorTree::dominates with the reference on every ordered
/// block pair of every loop of every function of \p M; reports the first
/// disagreement per function.
void expectIterDominanceMatches(const ir::Module &M, const std::string &What,
                                IterDominanceTally &Tally) {
  for (const ir::Function &F : M.Functions) {
    DominatorTree DT(F);
    LoopInfo LI(F, DT);
    for (const Loop &L : LI.loops()) {
      IterDominanceReference Ref(F, L);
      ++Tally.Loops;
      Tally.NestedLoops += L.Parent >= 0;
      for (std::uint32_t A : L.Blocks)
        for (std::uint32_t B : L.Blocks) {
          ++Tally.Pairs;
          if (DT.dominates(A, B) != Ref.dominates(A, B)) {
            ADD_FAILURE() << What << " " << F.Name << ": loop at bb"
                          << L.Header << ", bb" << A << " vs bb" << B
                          << ": tree says " << DT.dominates(A, B);
            return;
          }
        }
    }
  }
}

/// main(): a loop whose body holds an irreducible cycle. X enters the
/// P/Q cycle at both P and Q; P updates i and is the latch's only
/// predecessor, so it dominates the latch yet runs once or twice per
/// iteration.
///
///   entry -> H;  H: i < 40 ? X : Exit;  X: i & 1 ? Q : P
///   P: i += 1; i & 1 ? Q : Latch;  Q: -> P;  Latch: -> H;  Exit: ret i
struct IrreducibleBody {
  ir::Module M;
  std::uint16_t I = 0;
  std::uint32_t P = 0, Q = 0;

  IrreducibleBody() {
    ir::IRBuilder B(M);
    B.createFunction("main", 0);
    std::uint32_t H = B.newBlock(), X = B.newBlock();
    P = B.newBlock();
    Q = B.newBlock();
    std::uint32_t Latch = B.newBlock(), Exit = B.newBlock();
    I = B.newReg();
    B.emitConstIInto(I, 0);
    std::uint16_t Forty = B.emitConstI(40);
    std::uint16_t One = B.emitConstI(1);
    B.emitBr(H);
    B.setBlock(H);
    B.emitCondBr(B.emitBinary(ir::Opcode::CmpLT, I, Forty), X, Exit);
    B.setBlock(X);
    B.emitCondBr(B.emitBinary(ir::Opcode::And, I, One), Q, P);
    B.setBlock(P);
    B.emitAddImmInto(I, I, 1);
    B.emitCondBr(B.emitBinary(ir::Opcode::And, I, One), Q, Latch);
    B.setBlock(Q);
    B.emitBr(P);
    B.setBlock(Latch);
    B.emitBr(H);
    B.setBlock(Exit);
    B.emitRet(I);
    M.finalize();
  }
};

} // namespace

TEST(Dominators, DiamondCfg) {
  // entry -> then/else -> join
  ir::Module M = makeMain(seq({
      assign("x", c(1)),
      iffElse(v("x"), assign("y", c(1)), assign("y", c(2))),
      ret(v("y")),
  }));
  const ir::Function &F = mainFunc(M);
  DominatorTree DT(F);
  // Entry dominates everything.
  for (std::uint32_t B = 0; B < F.numBlocks(); ++B) {
    if (DT.isReachable(B)) {
      EXPECT_TRUE(DT.dominates(0, B));
    }
  }
  // Find the join block (the one with two predecessors).
  auto Preds = F.computePredecessors();
  int Join = -1;
  for (std::uint32_t B = 0; B < F.numBlocks(); ++B)
    if (Preds[B].size() == 2)
      Join = static_cast<int>(B);
  ASSERT_GE(Join, 0);
  // Neither branch arm dominates the join.
  for (std::uint32_t P : Preds[static_cast<std::uint32_t>(Join)])
    EXPECT_FALSE(DT.dominates(P, static_cast<std::uint32_t>(Join)));
}

TEST(Dominators, SelfDominance) {
  ir::Module M = makeMain(seq({ret(c(0))}));
  DominatorTree DT(mainFunc(M));
  EXPECT_TRUE(DT.dominates(0, 0));
}

TEST(LoopInfo, SingleLoopDiscovered) {
  ir::Module M = makeMain(seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(4)), 1,
              assign("s", add(v("s"), v("i")))),
      ret(v("s")),
  }));
  const ir::Function &F = mainFunc(M);
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &L = LI.loops()[0];
  EXPECT_EQ(L.Depth, 1u);
  EXPECT_EQ(L.Parent, -1);
  EXPECT_FALSE(L.Latches.empty());
  EXPECT_FALSE(L.ExitTargets.empty());
  EXPECT_TRUE(L.contains(L.Header));
}

TEST(LoopInfo, NestedLoopsAndHeights) {
  ir::Module M = makeMain(seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(3)), 1,
              forLoop("j", c(0), lt(v("j"), c(3)), 1,
                      forLoop("k", c(0), lt(v("k"), c(3)), 1,
                              assign("s", add(v("s"), c(1)))))),
      ret(v("s")),
  }));
  const ir::Function &F = mainFunc(M);
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  ASSERT_EQ(LI.loops().size(), 3u);
  EXPECT_EQ(LI.maxDepth(), 3u);
  std::uint32_t Outermost = 0;
  for (std::uint32_t I = 0; I < 3; ++I)
    if (LI.loops()[I].Depth == 1)
      Outermost = I;
  EXPECT_EQ(LI.heightOf(Outermost), 3u);
}

TEST(LoopInfo, SiblingLoops) {
  ir::Module M = makeMain(seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(3)), 1, assign("s", add(v("s"), c(1)))),
      forLoop("j", c(0), lt(v("j"), c(3)), 1, assign("s", add(v("s"), c(2)))),
      ret(v("s")),
  }));
  const ir::Function &F = mainFunc(M);
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  ASSERT_EQ(LI.loops().size(), 2u);
  EXPECT_EQ(LI.loops()[0].Depth, 1u);
  EXPECT_EQ(LI.loops()[1].Depth, 1u);
}

TEST(Liveness, LoopCarriedIsLiveAtHeader) {
  ir::Module M = makeMain(seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(4)), 1,
              assign("s", add(v("s"), v("i")))),
      ret(v("s")),
  }));
  const ir::Function &F = mainFunc(M);
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  Liveness LV(F);
  ASSERT_EQ(LI.loops().size(), 1u);
  // Find registers of s and i by name.
  std::uint16_t SReg = 0xFFFF, IReg = 0xFFFF;
  for (const auto &[Name, Reg] : F.NamedLocals) {
    if (Name == "s")
      SReg = Reg;
    if (Name == "i")
      IReg = Reg;
  }
  ASSERT_NE(SReg, 0xFFFF);
  ASSERT_NE(IReg, 0xFFFF);
  EXPECT_TRUE(LV.liveIn(LI.loops()[0].Header).test(SReg));
  EXPECT_TRUE(LV.liveIn(LI.loops()[0].Header).test(IReg));
}

TEST(Induction, RecognizesInductorAndReduction) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(16))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(16)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
  const ir::Function &F = mainFunc(M);
  FunctionAnalysis FA(F);
  ASSERT_EQ(FA.LI.loops().size(), 1u);
  const InductionInfo &Info = FA.LoopScalars[0];
  std::uint16_t SReg = 0xFFFF, IReg = 0xFFFF;
  for (const auto &[Name, Reg] : F.NamedLocals) {
    if (Name == "s")
      SReg = Reg;
    if (Name == "i")
      IReg = Reg;
  }
  ASSERT_TRUE(Info.Inductors.count(IReg));
  const BasicInductor &Ind = Info.Inductors.at(IReg);
  EXPECT_EQ(Ind.Step, 1);
  // The recorded update site is the inductor's `i = i + 1`.
  const ir::Instruction &Update = F.Blocks[Ind.Block].Instructions[Ind.Index];
  EXPECT_EQ(Update.Op, ir::Opcode::AddImm);
  EXPECT_EQ(Update.Dst, IReg);
  EXPECT_EQ(Update.A, IReg);
  EXPECT_TRUE(Info.Reductions.count(SReg));
  EXPECT_TRUE(Info.OtherCarried.empty());
}

TEST(Induction, CarriedNonInductorClassified) {
  // x = x * 2 + 1 is carried but neither an inductor nor a sum reduction
  // (two in-loop uses of x would also disqualify a reduction).
  ir::Module M = makeMain(seq({
      assign("x", c(1)),
      assign("lim", c(10)),
      forLoop("i", c(0), lt(v("i"), v("lim")), 1,
              assign("x", add(mul(v("x"), c(2)), c(1)))),
      ret(v("x")),
  }));
  const ir::Function &F = mainFunc(M);
  FunctionAnalysis FA(F);
  ASSERT_EQ(FA.LI.loops().size(), 1u);
  const InductionInfo &Info = FA.LoopScalars[0];
  std::uint16_t XReg = 0xFFFF;
  for (const auto &[Name, Reg] : F.NamedLocals)
    if (Name == "x")
      XReg = Reg;
  bool Found = false;
  for (std::uint16_t R : Info.OtherCarried)
    Found |= R == XReg;
  EXPECT_TRUE(Found);
  // The loop limit is an invariant.
  std::uint16_t LimReg = 0xFFFF;
  for (const auto &[Name, Reg] : F.NamedLocals)
    if (Name == "lim")
      LimReg = Reg;
  bool Inv = false;
  for (std::uint16_t R : Info.Invariants)
    Inv |= R == LimReg;
  EXPECT_TRUE(Inv);
}

TEST(Candidates, PointerChaseRejected) {
  // p = a[p] loaded at the loop top and stored at the bottom: the paper's
  // "obvious" serializer.
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(64))),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              store(v("a"), v("i"), srem(add(v("i"), c(7)), c(64)))),
      assign("p", c(0)),
      assign("n", c(0)),
      whileLoop(lt(v("n"), c(100)),
                seq({
                    assign("p", ld(v("a"), v("p"))),
                    assign("n", add(v("n"), c(1))),
                })),
      ret(v("p")),
  }));
  ModuleAnalysis MA(M);
  bool FoundRejected = false;
  for (const CandidateStl &C : MA.candidates())
    FoundRejected |= C.Rejected;
  EXPECT_TRUE(FoundRejected);
}

TEST(Candidates, AllocInLoopRejected) {
  ir::Module M = makeMain(seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(4)), 1,
              seq({
                  assign("a", allocWords(c(8))),
                  store(v("a"), c(0), v("i")),
                  assign("s", add(v("s"), ld(v("a"), c(0)))),
              })),
      ret(v("s")),
  }));
  ModuleAnalysis MA(M);
  ASSERT_EQ(MA.candidates().size(), 1u);
  EXPECT_TRUE(MA.candidates()[0].Rejected);
  EXPECT_NE(MA.candidates()[0].RejectReason.find("allocates"),
            std::string::npos);
}

TEST(Candidates, AllocThroughCallRejected) {
  ProgramDef P;
  FuncDef Helper;
  Helper.Name = "helper";
  Helper.Params = {};
  Helper.Body = seq({
      assign("a", allocWords(c(4))),
      ret(v("a")),
  });
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(4)), 1,
              assign("s", add(v("s"), call("helper", {})))),
      ret(v("s")),
  });
  P.Functions.push_back(std::move(Helper));
  P.Functions.push_back(std::move(Main));
  ir::Module M = front::lowerProgram(P);
  ModuleAnalysis MA(M);
  ASSERT_EQ(MA.candidates().size(), 1u);
  EXPECT_TRUE(MA.candidates()[0].Rejected);
}

TEST(Candidates, ParallelLoopAccepted) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(64))),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              store(v("a"), v("i"), mul(v("i"), v("i")))),
      ret(ld(v("a"), c(5))),
  }));
  ModuleAnalysis MA(M);
  ASSERT_EQ(MA.candidates().size(), 1u);
  EXPECT_FALSE(MA.candidates()[0].Rejected);
  // A pure inductor loop needs no local-variable annotations.
  EXPECT_TRUE(MA.candidates()[0].AnnotatedLocals.empty());
}

TEST(Candidates, CarriedLocalGetsAnnotationSlot) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(64))),
      assign("x", c(1)),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              seq({
                  store(v("a"), v("i"), v("x")),
                  assign("x", add(mul(v("x"), c(3)), ld(v("a"), c(0)))),
              })),
      ret(v("x")),
  }));
  ModuleAnalysis MA(M);
  ASSERT_EQ(MA.candidates().size(), 1u);
  EXPECT_FALSE(MA.candidates()[0].Rejected);
  EXPECT_EQ(MA.candidates()[0].AnnotatedLocals.size(), 1u);
}

TEST(Candidates, LoopCountMatchesTable6Style) {
  ir::Module M = makeMain(seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(3)), 1,
              forLoop("j", c(0), lt(v("j"), c(3)), 1,
                      assign("s", add(v("s"), c(1))))),
      forLoop("k", c(0), lt(v("k"), c(3)), 1,
              assign("s", add(v("s"), c(2)))),
      ret(v("s")),
  }));
  ModuleAnalysis MA(M);
  EXPECT_EQ(MA.loopCount(), 3u);
  EXPECT_EQ(MA.maxStaticLoopDepth(), 2u);
}

TEST(LoopInfo, IrreducibleCycleIsNotANaturalLoop) {
  // Hand-built CFG with a two-entry cycle (unreachable from structured
  // code): entry branches into both B1 and B2, which branch to each other.
  // Neither dominates the other, so no backedge exists and the analyses
  // must return no loops without misbehaving.
  ir::Module M;
  ir::IRBuilder B(M);
  B.createFunction("irreducible", 0);
  std::uint32_t B1 = B.newBlock();
  std::uint32_t B2 = B.newBlock();
  std::uint32_t Exit = B.newBlock();
  std::uint16_t Cond = B.emitConstI(1);
  B.emitCondBr(Cond, B1, B2);
  B.setBlock(B1);
  B.emitCondBr(Cond, B2, Exit);
  B.setBlock(B2);
  B.emitCondBr(Cond, B1, Exit);
  B.setBlock(Exit);
  B.emitRet();
  M.finalize();
  ASSERT_TRUE(ir::verifyModule(M).empty());

  const ir::Function &F = M.Functions[0];
  DominatorTree DT(F);
  EXPECT_FALSE(DT.dominates(B1, B2));
  EXPECT_FALSE(DT.dominates(B2, B1));
  LoopInfo LI(F, DT);
  EXPECT_TRUE(LI.loops().empty());
  ModuleAnalysis MA(M);
  EXPECT_EQ(MA.loopCount(), 0u);
}

TEST(Dominators, IterationDominanceMatchesReferenceFixpoint) {
  // Function dominance answers intra-iteration dominance for the blocks
  // of a natural loop; the reference computes the latter directly.
  IterDominanceTally Tally;
  for (const workloads::Workload &W : workloads::allWorkloads())
    expectIterDominanceMatches(W.Build(), W.Name, Tally);
  for (const corpus::Template &T : corpus::extractRegistryTemplates())
    for (std::uint64_t Seed = 1; Seed <= 4; ++Seed)
      expectIterDominanceMatches(corpus::instantiate(T, Seed).Module,
                                 T.Id + " seed " + std::to_string(Seed),
                                 Tally);
  for (std::uint64_t Seed = 1; Seed <= 200; ++Seed)
    expectIterDominanceMatches(corpus::ProgramGenerator(Seed).generate(),
                               "generator seed " + std::to_string(Seed),
                               Tally);
  IrreducibleBody Irr;
  ASSERT_TRUE(ir::verifyModule(Irr.M).empty());
  expectIterDominanceMatches(Irr.M, "irreducible body", Tally);
  EXPECT_GT(Tally.NestedLoops, 0u);
  EXPECT_GT(Tally.Pairs, Tally.Loops);
}

TEST(Induction, UpdateOnIrreducibleCycleIsNotAnInductor) {
  // P dominates the latch, but P -> Q -> P is a cycle inside one
  // iteration: i steps by 1 or 2 per iteration, so it is no inductor.
  IrreducibleBody Irr;
  const ir::Function &F = mainFunc(Irr.M);
  FunctionAnalysis FA(F);
  ASSERT_EQ(FA.LI.loops().size(), 1u);
  const Loop &L = FA.LI.loops()[0];
  ASSERT_EQ(L.Latches.size(), 1u);
  EXPECT_TRUE(FA.DT.dominates(Irr.P, L.Latches[0]));
  EXPECT_TRUE(L.reachesInIteration(F, Irr.P, Irr.P));
  EXPECT_TRUE(L.reachesInIteration(F, Irr.Q, Irr.P));
  EXPECT_FALSE(L.reachesInIteration(F, L.Latches[0], Irr.P));
  const InductionInfo &Info = FA.LoopScalars[0];
  EXPECT_EQ(Info.Inductors.count(Irr.I), 0u);
  EXPECT_EQ(std::count(Info.OtherCarried.begin(), Info.OtherCarried.end(),
                       Irr.I),
            1);
}

TEST(Dominators, UnreachableBlocksAreSelfContained) {
  ir::Module M;
  ir::IRBuilder B(M);
  B.createFunction("f", 0);
  std::uint32_t Dead = B.newBlock();
  B.emitRet();
  B.setBlock(Dead);
  B.emitRet();
  M.finalize();
  const ir::Function &F = M.Functions[0];
  DominatorTree DT(F);
  EXPECT_TRUE(DT.isReachable(0));
  EXPECT_FALSE(DT.isReachable(Dead));
  EXPECT_TRUE(DT.dominates(Dead, Dead));
  EXPECT_FALSE(DT.dominates(0, Dead));
}
