//===- tests/scev_deptest_test.cpp - Affine analysis + oracle unit tests ---==//
//
// Exercises the static dependence-testing stack bottom-up: the checked
// affine arithmetic, LoopScev forms over hand-built loops, the classical
// pair tests (ZIV / strong SIV / weak-zero SIV / GCD) with their signed
// distances, the per-function memory-effect summaries, the static
// speculation oracle's three verdicts, and the induction-classification
// edge cases the oracle's soundness leans on.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Candidates.h"
#include "analysis/DepTest.h"
#include "analysis/MemDep.h"
#include "analysis/ScalarEvolution.h"
#include "analysis/StaticOracle.h"
#include "ir/Opcode.h"
#include "jrpm/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

using namespace jrpm;
using namespace jrpm::analysis;
using namespace jrpm::front;
using jrpm::testutil::makeMain;

namespace {

const ir::Function &mainFunc(const ir::Module &M) {
  return M.Functions[M.EntryFunction];
}

std::uint16_t localReg(const ir::Function &F, const std::string &Name) {
  for (const auto &[N, Reg] : F.NamedLocals)
    if (N == Name)
      return Reg;
  ADD_FAILURE() << "no local named " << Name;
  return ir::NoReg;
}

/// Finds the Nth instruction with opcode \p Op; returns {block, index}.
std::pair<std::uint32_t, std::uint32_t> findOp(const ir::Function &F,
                                               ir::Opcode Op,
                                               std::uint32_t Skip = 0) {
  for (std::uint32_t B = 0; B < F.numBlocks(); ++B)
    for (std::uint32_t I = 0; I < F.Blocks[B].Instructions.size(); ++I)
      if (F.Blocks[B].Instructions[I].Op == Op) {
        if (Skip == 0)
          return {B, I};
        --Skip;
      }
  ADD_FAILURE() << "opcode not found";
  return {0, 0};
}

/// Everything the affine layer needs about main()'s single loop.
struct LoopFixture {
  ir::Module M;
  FunctionAnalysis FA;
  std::vector<FuncMemEffects> Effects;

  explicit LoopFixture(St Body)
      : M(makeMain(std::move(Body))), FA(mainFunc(M)),
        Effects(computeMemEffects(M)) {
    EXPECT_GE(FA.LI.loops().size(), 1u);
  }

  const ir::Function &func() const { return mainFunc(M); }
  const Loop &loop(std::uint32_t Idx = 0) const { return FA.LI.loops()[Idx]; }
  const InductionInfo &scalars(std::uint32_t Idx = 0) const {
    return FA.LoopScalars[Idx];
  }
  LoopScev scev(std::uint32_t Idx = 0) const {
    return LoopScev(func(), loop(Idx), FA.DT, scalars(Idx));
  }
  LoopOracleResult oracle(std::uint32_t Budget,
                          std::uint32_t Idx = 0) const {
    return runStaticOracle(func(), loop(Idx), FA.DT, scalars(Idx),
                           FA.MemDep->aliases(), Effects, Budget);
  }
};

/// Affine form with no symbolic part: Const + Stride * i.
AffineExpr affine(std::int64_t Const, std::int64_t Stride) {
  AffineExpr E;
  E.Valid = true;
  E.Const = Const;
  E.IterCoeff = Stride;
  return E;
}

/// while (heap[p] < 50) { heap[p] = heap[p] + 1; extra }
St serialRecurrenceLoop(St ExtraAfterStore = St()) {
  std::vector<St> Body;
  Body.push_back(store(v("p"), Ex(), 0, add(ld(v("p")), c(1))));
  if (ExtraAfterStore.valid())
    Body.push_back(std::move(ExtraAfterStore));
  return seq({
      assign("p", allocWords(c(8))),
      store(v("p"), Ex(), 0, c(0)),
      whileLoop(lt(ld(v("p")), c(50)), seq(std::move(Body))),
      ret(ld(v("p"))),
  });
}

} // namespace

//===----------------------------------------------------------------------===//
// Checked affine arithmetic
//===----------------------------------------------------------------------===//

TEST(AffineArith, AddDetectsWrap) {
  std::int64_t Out = 0;
  EXPECT_TRUE(affineAdd(40, 2, Out));
  EXPECT_EQ(Out, 42);
  EXPECT_TRUE(affineAdd(INT64_MAX, 0, Out));
  EXPECT_FALSE(affineAdd(INT64_MAX, 1, Out));
  EXPECT_FALSE(affineAdd(INT64_MIN, -1, Out));
}

TEST(AffineArith, MulDetectsWrap) {
  std::int64_t Out = 0;
  EXPECT_TRUE(affineMul(-7, 6, Out));
  EXPECT_EQ(Out, -42);
  EXPECT_FALSE(affineMul(INT64_MAX, 2, Out));
  EXPECT_FALSE(affineMul(std::int64_t(1) << 40, std::int64_t(1) << 40, Out));
  EXPECT_TRUE(affineMul(INT64_MIN, 1, Out));
  EXPECT_FALSE(affineMul(INT64_MIN, -1, Out));
}

//===----------------------------------------------------------------------===//
// LoopScev forms
//===----------------------------------------------------------------------===//

TEST(Scev, ForLoopStoreAddressIsAffine) {
  LoopFixture FX(seq({
      assign("a", allocWords(c(64))),
      forLoop("i", c(0), lt(v("i"), c(50)), 1,
              store(v("a"), v("i"), 0, v("i"))),
      ret(c(0)),
  }));
  LoopScev Scev = FX.scev();
  auto [SB, SI] = findOp(FX.func(), ir::Opcode::Store);
  AffineExpr E = Scev.addressAt(
      FX.func().Blocks[SB].Instructions[SI], SB, SI);
  ASSERT_TRUE(E.Valid);
  EXPECT_EQ(E.IterCoeff, 1);
  EXPECT_EQ(E.Const, 0);
  std::uint16_t A = localReg(FX.func(), "a");
  std::uint16_t I = localReg(FX.func(), "i");
  ASSERT_EQ(E.Symbols.size(), 2u);
  EXPECT_EQ(E.Symbols.at(A), 1);
  EXPECT_EQ(E.Symbols.at(I), 1);
}

TEST(Scev, InductorReadsExtraStepAfterItsUpdate) {
  LoopFixture FX(seq({
      assign("a", allocWords(c(64))),
      forLoop("i", c(0), lt(v("i"), c(50)), 3,
              store(v("a"), v("i"), 0, c(7))),
      ret(c(0)),
  }));
  LoopScev Scev = FX.scev();
  std::uint16_t I = localReg(FX.func(), "i");
  // The only AddImm inside the loop is the step update in the latch.
  auto [UB, UI] = findOp(FX.func(), ir::Opcode::AddImm);
  AffineExpr Before = Scev.valueAt(I, UB, UI);
  ASSERT_TRUE(Before.Valid);
  EXPECT_EQ(Before.Const, 0);
  EXPECT_EQ(Before.IterCoeff, 3);
  AffineExpr After = Scev.valueAt(I, UB, UI + 1);
  ASSERT_TRUE(After.Valid);
  EXPECT_EQ(After.Const, 3); // one extra step past the update
  EXPECT_EQ(After.IterCoeff, 3);
  EXPECT_EQ(After.Symbols.at(I), 1);
}

TEST(Scev, TempChainsFoldThroughMulShiftAdd) {
  LoopFixture FX(seq({
      assign("a", allocWords(c(256))),
      forLoop("i", c(0), lt(v("i"), c(20)), 1,
              seq({
                  assign("t", add(mul(v("i"), c(4)), c(2))),
                  assign("u", shl(v("i"), c(3))),
                  store(v("a"), v("t"), 0, c(1)),
                  store(v("a"), v("u"), 1, c(2)),
              })),
      ret(c(0)),
  }));
  LoopScev Scev = FX.scev();
  std::uint16_t A = localReg(FX.func(), "a");

  auto [S0B, S0I] = findOp(FX.func(), ir::Opcode::Store, 0);
  AffineExpr T = Scev.addressAt(FX.func().Blocks[S0B].Instructions[S0I],
                                S0B, S0I);
  ASSERT_TRUE(T.Valid);
  EXPECT_EQ(T.IterCoeff, 4);
  EXPECT_EQ(T.Const, 2);
  EXPECT_EQ(T.Symbols.at(A), 1);

  auto [S1B, S1I] = findOp(FX.func(), ir::Opcode::Store, 1);
  AffineExpr U = Scev.addressAt(FX.func().Blocks[S1B].Instructions[S1I],
                                S1B, S1I);
  ASSERT_TRUE(U.Valid);
  EXPECT_EQ(U.IterCoeff, 8);
  EXPECT_EQ(U.Const, 1);
}

TEST(Scev, ConditionalDefinitionIsNotAffine) {
  LoopFixture FX(seq({
      assign("a", allocWords(c(64))),
      assign("t", c(0)),
      forLoop("i", c(0), lt(v("i"), c(20)), 1,
              seq({
                  iff(lt(v("i"), c(10)), assign("t", v("i"))),
                  store(v("a"), v("t"), 0, c(1)),
              })),
      ret(c(0)),
  }));
  LoopScev Scev = FX.scev();
  auto [SB, SI] = findOp(FX.func(), ir::Opcode::Store);
  AffineExpr E = Scev.addressAt(FX.func().Blocks[SB].Instructions[SI],
                                SB, SI);
  EXPECT_FALSE(E.Valid);
}

TEST(Scev, MaskedIndexAndMemoryValuesAreNotAffine) {
  LoopFixture FX(seq({
      assign("a", allocWords(c(64))),
      forLoop("i", c(0), lt(v("i"), c(20)), 1,
              seq({
                  assign("m", band(v("i"), c(63))),
                  assign("x", ld(v("a"), v("i"))),
                  store(v("a"), v("m"), 0, v("x")),
              })),
      ret(c(0)),
  }));
  LoopScev Scev = FX.scev();
  auto [SB, SI] = findOp(FX.func(), ir::Opcode::Store);
  AffineExpr Addr = Scev.addressAt(FX.func().Blocks[SB].Instructions[SI],
                                   SB, SI);
  EXPECT_FALSE(Addr.Valid); // index masked by And
  std::uint16_t X = localReg(FX.func(), "x");
  AffineExpr Val = Scev.valueAt(X, SB, SI);
  EXPECT_FALSE(Val.Valid); // value escaped through memory
}

//===----------------------------------------------------------------------===//
// Pair tests
//===----------------------------------------------------------------------===//

TEST(DepTest, ZivSameCellCollidesEveryIteration) {
  DepTestResult R = testAffinePair(affine(5, 0), affine(5, 0));
  EXPECT_EQ(R.Test, DepTestKind::Ziv);
  EXPECT_EQ(R.Outcome, DepOutcome::Carried);
  EXPECT_TRUE(R.DistanceExact);
  EXPECT_EQ(R.Distance, 1);
}

TEST(DepTest, ZivDifferentCellsNeverCollide) {
  DepTestResult R = testAffinePair(affine(5, 0), affine(6, 0));
  EXPECT_EQ(R.Test, DepTestKind::Ziv);
  EXPECT_EQ(R.Outcome, DepOutcome::Independent);
}

TEST(DepTest, StrongSivExactSignedDistance) {
  // X(i) = 4 + 2i meets Y(j) = 2j at j = i + 2.
  DepTestResult R = testAffinePair(affine(4, 2), affine(0, 2));
  EXPECT_EQ(R.Test, DepTestKind::StrongSiv);
  EXPECT_EQ(R.Outcome, DepOutcome::Carried);
  EXPECT_TRUE(R.DistanceExact);
  EXPECT_EQ(R.Distance, 2);

  // Swapping operands flips the sign.
  R = testAffinePair(affine(0, 2), affine(4, 2));
  EXPECT_EQ(R.Outcome, DepOutcome::Carried);
  EXPECT_EQ(R.Distance, -2);

  // Negative strides: X(i) = 3 - 3i meets Y(j) = -3j at j = i - 1.
  R = testAffinePair(affine(3, -3), affine(0, -3));
  EXPECT_EQ(R.Outcome, DepOutcome::Carried);
  EXPECT_EQ(R.Distance, -1);
}

TEST(DepTest, StrongSivLatticesNeverMeet) {
  DepTestResult R = testAffinePair(affine(3, 2), affine(0, 2));
  EXPECT_EQ(R.Test, DepTestKind::StrongSiv);
  EXPECT_EQ(R.Outcome, DepOutcome::Independent);
  // Same iteration only (gap 0) is not a cross-iteration dependence.
  R = testAffinePair(affine(0, 2), affine(0, 2));
  EXPECT_EQ(R.Outcome, DepOutcome::Independent);
}

TEST(DepTest, WeakZeroSivSingleHit) {
  // Fixed X = 6, moving Y(j) = 2j: hits only at j = 3.
  DepTestResult R = testAffinePair(affine(6, 0), affine(0, 2));
  EXPECT_EQ(R.Test, DepTestKind::WeakZeroSiv);
  EXPECT_EQ(R.Outcome, DepOutcome::Carried);
  EXPECT_FALSE(R.DistanceExact);

  // Hit iteration would be negative: never reached.
  R = testAffinePair(affine(-2, 0), affine(0, 2));
  EXPECT_EQ(R.Outcome, DepOutcome::Independent);

  // No integer solution.
  R = testAffinePair(affine(5, 0), affine(0, 2));
  EXPECT_EQ(R.Outcome, DepOutcome::Independent);

  // Same answers with the moving access first.
  R = testAffinePair(affine(0, 2), affine(6, 0));
  EXPECT_EQ(R.Test, DepTestKind::WeakZeroSiv);
  EXPECT_EQ(R.Outcome, DepOutcome::Carried);
  R = testAffinePair(affine(0, 2), affine(-2, 0));
  EXPECT_EQ(R.Outcome, DepOutcome::Independent);
}

TEST(DepTest, GcdFeasibility) {
  // gcd(4, 6) = 2 does not divide 1: independent.
  DepTestResult R = testAffinePair(affine(1, 4), affine(0, 6));
  EXPECT_EQ(R.Test, DepTestKind::Gcd);
  EXPECT_EQ(R.Outcome, DepOutcome::Independent);
  // ... but divides 2: possibly dependent, distance unknown.
  R = testAffinePair(affine(2, 4), affine(0, 6));
  EXPECT_EQ(R.Outcome, DepOutcome::Carried);
  EXPECT_FALSE(R.DistanceExact);
}

TEST(DepTest, OffsetGapOverflowFallsBackToMay) {
  DepTestResult R = testAffinePair(affine(INT64_MAX, 1), affine(-2, 1));
  EXPECT_EQ(R.Outcome, DepOutcome::May);
}

TEST(DepTest, FallbackUsesAliasClasses) {
  AffineExpr Bad; // invalid
  AliasSet Scalar;                 // empty, known: a pure scalar address
  AliasSet Heap;
  Heap.Unknown = true;

  DepTestResult R = testWithFallback(Bad, Bad, Scalar, Scalar);
  EXPECT_EQ(R.Test, DepTestKind::AliasClass);
  EXPECT_EQ(R.Outcome, DepOutcome::Independent);

  R = testWithFallback(Bad, Bad, Heap, Scalar);
  EXPECT_EQ(R.Test, DepTestKind::MayFallback);
  EXPECT_EQ(R.Outcome, DepOutcome::May);

  // Affine forms over different symbolic bases also fall back.
  AffineExpr X = affine(0, 1);
  AffineExpr Y = affine(0, 1);
  Y.Symbols[7] = 1;
  R = testWithFallback(X, Y, Heap, Heap);
  EXPECT_EQ(R.Test, DepTestKind::MayFallback);
  EXPECT_EQ(R.Outcome, DepOutcome::May);
}

//===----------------------------------------------------------------------===//
// Stable-name round trips
//===----------------------------------------------------------------------===//

TEST(Names, RejectKindRoundTrip) {
  std::set<std::string> Seen;
  for (RejectKind K : AllRejectKinds) {
    std::string Name = rejectKindName(K);
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate name " << Name;
    RejectKind Back = RejectKind::None;
    ASSERT_TRUE(rejectKindFromName(Name, Back)) << Name;
    EXPECT_EQ(Back, K);
  }
  RejectKind Out = RejectKind::None;
  EXPECT_FALSE(rejectKindFromName("no-such-kind", Out));
}

TEST(Names, DepAndOracleNamesAreStableAndUnique) {
  std::set<std::string> Tests;
  for (DepTestKind K :
       {DepTestKind::Ziv, DepTestKind::StrongSiv, DepTestKind::WeakZeroSiv,
        DepTestKind::Gcd, DepTestKind::AliasClass, DepTestKind::MayFallback})
    EXPECT_TRUE(Tests.insert(depTestKindName(K)).second);
  std::set<std::string> Outcomes;
  for (DepOutcome O :
       {DepOutcome::Independent, DepOutcome::Carried, DepOutcome::May})
    EXPECT_TRUE(Outcomes.insert(depOutcomeName(O)).second);
  std::set<std::string> Kinds;
  for (DepKind K : {DepKind::Raw, DepKind::War, DepKind::Waw, DepKind::May})
    EXPECT_TRUE(Kinds.insert(depKindName(K)).second);
  std::set<std::string> Verdicts;
  for (OracleVerdict V :
       {OracleVerdict::Unknown, OracleVerdict::ProvablySerial,
        OracleVerdict::ProvablyParallel})
    EXPECT_TRUE(Verdicts.insert(oracleVerdictName(V)).second);
  EXPECT_STREQ(oracleVerdictName(OracleVerdict::ProvablySerial),
               "provably-serial");
}

//===----------------------------------------------------------------------===//
// Memory-effect summaries
//===----------------------------------------------------------------------===//

TEST(MemEffects, DirectAndTransitiveSummaries) {
  ProgramDef P;
  P.Functions.push_back({"pureFn", {"x"}, ret(add(v("x"), c(1)))});
  P.Functions.push_back({"reader", {"p"}, ret(ld(v("p")))});
  P.Functions.push_back(
      {"writer", {"p"}, seq({store(v("p"), Ex(), 0, c(1)), ret(c(0))})});
  P.Functions.push_back({"alloc8", {}, ret(allocWords(c(8)))});
  P.Functions.push_back({"outer", {"p"}, ret(call("writer", {v("p")}))});
  P.Functions.push_back({"main", {}, ret(call("pureFn", {c(1)}))});
  ir::Module M = lowerProgram(P);

  std::vector<FuncMemEffects> E = computeMemEffects(M);
  ASSERT_EQ(E.size(), M.Functions.size());
  auto Fx = [&](const char *Name) {
    int I = M.findFunction(Name);
    EXPECT_GE(I, 0) << Name;
    return E[static_cast<std::uint32_t>(I)];
  };
  EXPECT_TRUE(Fx("pureFn").pure());
  EXPECT_TRUE(Fx("reader").ReadsHeap);
  EXPECT_TRUE(Fx("reader").readOnly());
  EXPECT_TRUE(Fx("writer").WritesHeap);
  EXPECT_FALSE(Fx("writer").Allocates);
  EXPECT_TRUE(Fx("alloc8").Allocates);
  // outer writes only through its callee.
  EXPECT_TRUE(Fx("outer").WritesHeap);
  EXPECT_FALSE(Fx("outer").ReadsHeap);
}

//===----------------------------------------------------------------------===//
// The static oracle
//===----------------------------------------------------------------------===//

TEST(StaticOracle, CanonicalRecurrenceIsProvablySerial) {
  LoopFixture FX(serialRecurrenceLoop());
  LoopOracleResult R = FX.oracle(/*Budget=*/10);
  EXPECT_EQ(R.Verdict, OracleVerdict::ProvablySerial);
  EXPECT_EQ(R.Test, DepTestKind::Ziv);
  EXPECT_EQ(R.Distance, 1);
  EXPECT_GT(R.WindowCycles, 0u);
  EXPECT_LE(R.WindowCycles, 10u);
}

TEST(StaticOracle, BudgetBoundsTheSerialVerdict) {
  LoopFixture FX(serialRecurrenceLoop());
  LoopOracleResult R = FX.oracle(/*Budget=*/10);
  ASSERT_EQ(R.Verdict, OracleVerdict::ProvablySerial);
  // One cycle below the measured window the proof must fail.
  LoopOracleResult Tight = FX.oracle(R.WindowCycles - 1);
  EXPECT_EQ(Tight.Verdict, OracleVerdict::Unknown);
}

TEST(StaticOracle, ExpensiveTailBreaksTheWindow) {
  LoopFixture FX(serialRecurrenceLoop(
      assign("waste", sdiv(c(100), c(7)))));
  LoopOracleResult R = FX.oracle(/*Budget=*/10);
  EXPECT_EQ(R.Verdict, OracleVerdict::Unknown);
}

TEST(StaticOracle, SivDistanceOneRecurrence) {
  // a[i] = a[i-1] + 1: serial, but the store address is not invariant,
  // so the shape-matched pre-filter rule can never see it.
  LoopFixture FX(seq({
      assign("a", allocWords(c(64))),
      store(v("a"), Ex(), 0, c(1)),
      forLoop("i", c(1), lt(v("i"), c(50)), 1,
              store(v("a"), v("i"), 0,
                    add(ld(v("a"), v("i"), -1), c(1)))),
      ret(ld(v("a"), Ex(), 49)),
  }));
  LoopOracleResult R = FX.oracle(/*Budget=*/32);
  EXPECT_EQ(R.Verdict, OracleVerdict::ProvablySerial);
  EXPECT_EQ(R.Test, DepTestKind::StrongSiv);
  EXPECT_EQ(R.Distance, 1);
}

TEST(StaticOracle, StrideTwoAccessesAreProvablyParallel) {
  // Reads a[2i+1], writes a[2i]: strong SIV separates the lattices where
  // the register-pair heuristic of MemDep only sees "may".
  LoopFixture FX(seq({
      assign("a", allocWords(c(128))),
      forLoop("i", c(0), lt(v("i"), c(50)), 1,
              seq({
                  assign("t", mul(v("i"), c(2))),
                  store(v("a"), v("t"), 0, ld(v("a"), v("t"), 1)),
              })),
      ret(c(0)),
  }));
  LoopOracleResult R = FX.oracle(/*Budget=*/10);
  EXPECT_EQ(R.Verdict, OracleVerdict::ProvablyParallel);
  EXPECT_GT(R.TotalPairs, 0u);
  EXPECT_EQ(R.MayPairs, 0u);
  EXPECT_EQ(R.IndependentPairs, R.TotalPairs);
}

TEST(StaticOracle, PureCalleeKeepsParallelVerdict) {
  ProgramDef P;
  P.Functions.push_back({"f", {"x"}, ret(mul(v("x"), v("x")))});
  P.Functions.push_back(
      {"main",
       {},
       seq({
           assign("a", allocWords(c(64))),
           forLoop("i", c(0), lt(v("i"), c(50)), 1,
                   store(v("a"), v("i"), 0, call("f", {v("i")}))),
           ret(c(0)),
       })});
  ir::Module M = lowerProgram(P);
  const ir::Function &F = mainFunc(M);
  FunctionAnalysis FA(F);
  ASSERT_EQ(FA.LI.loops().size(), 1u);
  std::vector<FuncMemEffects> Effects = computeMemEffects(M);
  LoopOracleResult R =
      runStaticOracle(F, FA.LI.loops()[0], FA.DT, FA.LoopScalars[0],
                      FA.MemDep->aliases(), Effects, 10);
  EXPECT_EQ(R.Verdict, OracleVerdict::ProvablyParallel);
}

TEST(StaticOracle, ConditionalLoadIsNotProvablySerial) {
  // The reload is guarded: some iterations never read the cell, so the
  // serial proof must not fire even though the pair is ZIV-carried.
  LoopFixture FX(seq({
      assign("p", allocWords(c(8))),
      assign("q", allocWords(c(8))),
      store(v("p"), Ex(), 0, c(0)),
      assign("i", c(0)),
      whileLoop(lt(v("i"), c(50)),
                seq({
                    assign("x", c(0)),
                    iff(lt(ld(v("q")), c(5)),
                        assign("x", ld(v("p")))),
                    store(v("p"), Ex(), 0, add(v("x"), c(1))),
                    assign("i", add(v("i"), c(1))),
                })),
      ret(ld(v("p"))),
  }));
  LoopOracleResult R = FX.oracle(/*Budget=*/64);
  EXPECT_NE(R.Verdict, OracleVerdict::ProvablySerial);
}

TEST(StaticOracle, SecondStoreToSameCellBlocksTheProof) {
  // A second may-colliding store means the reload might see the same
  // iteration's value instead of the cross-iteration arc.
  LoopFixture FX(serialRecurrenceLoop(
      store(v("p"), Ex(), 0, c(9))));
  LoopOracleResult R = FX.oracle(/*Budget=*/64);
  EXPECT_NE(R.Verdict, OracleVerdict::ProvablySerial);
}

TEST(StaticOracle, StoreOutsideLatchBlockStillProved) {
  // The store sits in the body-entry block, which iter-dominates the
  // latch but is not the latch: invisible to the pre-filter's
  // latch-seeded rule, provable by the oracle — inside the default
  // forwarding budget, which the conformance synthetics rely on.
  LoopFixture FX(seq({
      assign("p", allocWords(c(8))),
      assign("g", c(0)),
      store(v("p"), Ex(), 0, c(0)),
      whileLoop(lt(ld(v("p")), c(50)),
                seq({
                    store(v("p"), Ex(), 0, add(ld(v("p")), c(1))),
                    iff(v("g"), exprStmt(c(0))),
                })),
      ret(ld(v("p"))),
  }));
  LoopOracleResult R = FX.oracle(/*Budget=*/10);
  EXPECT_EQ(R.Verdict, OracleVerdict::ProvablySerial);
  EXPECT_EQ(R.Test, DepTestKind::Ziv);
  EXPECT_LE(R.WindowCycles, 10u);

  // The pre-filter indeed misses this shape; the oracle flag rejects it.
  AnalysisOptions Pre;
  Pre.StaticPrefilter = true;
  ModuleAnalysis PreMA(FX.M, Pre);
  ASSERT_EQ(PreMA.candidates().size(), 1u);
  EXPECT_FALSE(PreMA.candidates()[0].Rejected);

  AnalysisOptions Orc;
  Orc.AffineOracle = true;
  ModuleAnalysis OrcMA(FX.M, Orc);
  ASSERT_EQ(OrcMA.candidates().size(), 1u);
  EXPECT_TRUE(OrcMA.candidates()[0].Rejected);
  EXPECT_EQ(OrcMA.candidates()[0].Kind, RejectKind::AffineSerialZiv);
  ASSERT_NE(OrcMA.oracleResult(0), nullptr);
  EXPECT_EQ(OrcMA.oracleResult(0)->Verdict, OracleVerdict::ProvablySerial);
}

TEST(StaticOracle, OracleFlagSubsumesThePrefilter) {
  // The canonical shape is caught by both rules; under the oracle flag it
  // keeps the pre-filter's reject kind (the shape rule runs first).
  LoopFixture FX(serialRecurrenceLoop());
  AnalysisOptions Orc;
  Orc.AffineOracle = true;
  ModuleAnalysis MA(FX.M, Orc);
  ASSERT_EQ(MA.candidates().size(), 1u);
  EXPECT_TRUE(MA.candidates()[0].Rejected);
  EXPECT_EQ(MA.candidates()[0].Kind, RejectKind::SerialMemoryRecurrence);
}

//===----------------------------------------------------------------------===//
// Induction-classification edge cases
//===----------------------------------------------------------------------===//

TEST(InductionEdge, NegativeStrideIsAnInductor) {
  LoopFixture FX(seq({
      assign("a", allocWords(c(64))),
      forLoop("i", c(49), ge(v("i"), c(0)), -1,
              store(v("a"), v("i"), 0, v("i"))),
      ret(c(0)),
  }));
  std::uint16_t I = localReg(FX.func(), "i");
  ASSERT_EQ(FX.scalars().Inductors.count(I), 1u);
  EXPECT_EQ(FX.scalars().Inductors.at(I).Step, -1);

  // ... and its affine form carries the negative stride.
  LoopScev Scev = FX.scev();
  auto [SB, SI] = findOp(FX.func(), ir::Opcode::Store);
  AffineExpr E = Scev.addressAt(FX.func().Blocks[SB].Instructions[SI],
                                SB, SI);
  ASSERT_TRUE(E.Valid);
  EXPECT_EQ(E.IterCoeff, -1);
}

TEST(InductionEdge, FloatSumReductionOrdering) {
  // s = x + s and s = s + x are both sum reductions; s = x - s reverses
  // the operands of a non-commutative op and must stay loop-carried.
  LoopFixture Fwd(seq({
      assign("a", allocWords(c(64))),
      assign("s", cf(0.0)),
      forLoop("i", c(0), lt(v("i"), c(50)), 1,
              assign("s", fadd(ld(v("a"), v("i")), v("s")))),
      ret(ftoi(v("s"))),
  }));
  std::uint16_t S = localReg(Fwd.func(), "s");
  ASSERT_EQ(Fwd.scalars().Reductions.count(S), 1u);
  EXPECT_EQ(Fwd.scalars().Reductions.at(S), ReductionKind::SumFloat);

  LoopFixture Rev(seq({
      assign("a", allocWords(c(64))),
      assign("s", cf(0.0)),
      forLoop("i", c(0), lt(v("i"), c(50)), 1,
              assign("s", fsub(ld(v("a"), v("i")), v("s")))),
      ret(ftoi(v("s"))),
  }));
  std::uint16_t S2 = localReg(Rev.func(), "s");
  EXPECT_EQ(Rev.scalars().Reductions.count(S2), 0u);
  EXPECT_EQ(std::count(Rev.scalars().OtherCarried.begin(),
                       Rev.scalars().OtherCarried.end(), S2),
            1);
}

TEST(InductionEdge, IntSubtractionIsASumReduction) {
  LoopFixture FX(seq({
      assign("a", allocWords(c(64))),
      assign("s", c(1000)),
      forLoop("i", c(0), lt(v("i"), c(50)), 1,
              assign("s", sub(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
  std::uint16_t S = localReg(FX.func(), "s");
  ASSERT_EQ(FX.scalars().Reductions.count(S), 1u);
  EXPECT_EQ(FX.scalars().Reductions.at(S), ReductionKind::SumInt);
}

TEST(InductionEdge, StrideUpdateAfterUseKeepsInductor) {
  // The use sits before the update: still a basic inductor, and the use
  // site reads the pre-update value (no extra step).
  LoopFixture FX(seq({
      assign("a", allocWords(c(64))),
      assign("i", c(0)),
      whileLoop(lt(v("i"), c(50)),
                seq({
                    store(v("a"), v("i"), 0, c(1)),
                    assign("i", add(v("i"), c(1))),
                })),
      ret(c(0)),
  }));
  std::uint16_t I = localReg(FX.func(), "i");
  ASSERT_EQ(FX.scalars().Inductors.count(I), 1u);
  EXPECT_EQ(FX.scalars().Inductors.at(I).Step, 1);
  LoopScev Scev = FX.scev();
  auto [SB, SI] = findOp(FX.func(), ir::Opcode::Store);
  AffineExpr E = Scev.addressAt(FX.func().Blocks[SB].Instructions[SI],
                                SB, SI);
  ASSERT_TRUE(E.Valid);
  EXPECT_EQ(E.Const, 0);
  EXPECT_EQ(E.IterCoeff, 1);
}

TEST(InductionEdge, WraparoundCounterStaysAnInductor) {
  // Induction classification is syntactic (AddImm self-step); the affine
  // layer is where wrap hurts, and the i64 coefficients cannot overflow
  // from a step of 1 — but a huge multiplier must invalidate the form.
  LoopFixture FX(seq({
      assign("a", allocWords(c(64))),
      forLoop("i", c(0), lt(v("i"), c(50)), 1,
              seq({
                  assign("t", mul(mul(v("i"), c(std::int64_t(1) << 40)),
                                  c(std::int64_t(1) << 40))),
                  store(v("a"), v("t"), 0, c(1)),
              })),
      ret(c(0)),
  }));
  std::uint16_t I = localReg(FX.func(), "i");
  EXPECT_EQ(FX.scalars().Inductors.count(I), 1u);
  LoopScev Scev = FX.scev();
  auto [SB, SI] = findOp(FX.func(), ir::Opcode::Store);
  AffineExpr E = Scev.addressAt(FX.func().Blocks[SB].Instructions[SI],
                                SB, SI);
  EXPECT_FALSE(E.Valid); // 2^40 * 2^40 wraps the coefficient
}

TEST(InductionEdge, UpdateInsideInnerLoopIsNotAnInductor) {
  // i's only update sits in the header of a three-trip inner loop, which
  // dominates the outer latch but runs three times per outer iteration.
  LoopFixture FX(seq({
      assign("i", c(0)),
      assign("s", c(0)),
      whileLoop(lt(v("i"), c(40)),
                seq({
                    assign("j", c(0)),
                    doWhile(lt(v("j"), c(3)),
                            seq({
                                assign("i", add(v("i"), c(1))),
                                assign("j", add(v("j"), c(1))),
                            })),
                    assign("s", add(v("s"), v("i"))),
                })),
      ret(v("s")),
  }));
  ASSERT_EQ(FX.FA.LI.loops().size(), 2u);
  std::uint32_t Outer = FX.loop(0).Parent < 0 ? 0 : 1;
  std::uint32_t Inner = 1 - Outer;
  std::uint16_t I = localReg(FX.func(), "i");
  EXPECT_EQ(FX.scalars(Outer).Inductors.count(I), 0u);
  EXPECT_EQ(std::count(FX.scalars(Outer).OtherCarried.begin(),
                       FX.scalars(Outer).OtherCarried.end(), I),
            1);
  // In the inner loop the same update is a plain once-per-iteration step.
  ASSERT_EQ(FX.scalars(Inner).Inductors.count(I), 1u);
  EXPECT_EQ(FX.scalars(Inner).Inductors.at(I).Step, 1);

  // Speculating every loop reproduces the sequential sum of 3 + 6 + ... +
  // 42; an outer inductor of step 1 would start iteration n at i = n.
  pipeline::Jrpm J(FX.M, pipeline::PipelineConfig{});
  interp::RunResult Seq = testutil::runModule(FX.M);
  EXPECT_EQ(Seq.ReturnValue, 315u);
  EXPECT_EQ(J.runSpeculative(pipeline::everyCandidate(J.moduleAnalysis()))
                .Run.ReturnValue,
            Seq.ReturnValue);
}
