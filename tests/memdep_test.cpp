//===- tests/memdep_test.cpp - Memory dependence analysis unit tests -------==//
//
// Hand-built loops with known carried dependences exercise the static
// layer: AliasClasses, the per-loop RAW/WAW/May classification, the
// serial-recurrence detector, and the candidate pre-filter built on top of
// it. A pinned digest freezes every per-loop value MemDep's readers see.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Candidates.h"
#include "analysis/MemDep.h"
#include "corpus/Generator.h"
#include "corpus/Template.h"
#include "corpus/Variant.h"
#include "ir/Opcode.h"
#include "jrpm/Pipeline.h"
#include "support/Fnv1a.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

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

/// The memory dependence summary of the single loop in main().
const LoopMemDep &singleLoopDep(const ModuleAnalysis &MA) {
  const FunctionAnalysis &FA = MA.func(0);
  EXPECT_EQ(FA.LI.loops().size(), 1u);
  return FA.MemDep->loopDep(0);
}

/// while (heap[p] < bound) { ...; heap[p] = heap[p] + 1; ... }
/// The canonical serial memory recurrence: the header reloads the exact
/// cell the latch stored, a handful of cycles earlier.
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

/// A digest of every per-loop value a MemDep reader sees (the prefilter,
/// jrpm-lint and the corpus template features), over every loop of every
/// function of the modules added, plus counts that show the digest covers
/// each verdict.
struct MemDepPin {
  Fnv1a Digest;
  std::uint64_t Loops = 0, WithRaw = 0, WithMay = 0, Serial = 0,
                Parallel = 0;

  void add(const ir::Module &M) {
    for (const ir::Function &F : M.Functions) {
      FunctionAnalysis FA(F);
      for (std::uint32_t L = 0; L < FA.LI.loops().size(); ++L) {
        const LoopMemDep &D = FA.MemDep->loopDep(L);
        for (std::uint64_t V :
             {std::uint64_t(D.NumLoads), std::uint64_t(D.NumStores),
              std::uint64_t(D.NumRaw), std::uint64_t(D.NumWaw),
              std::uint64_t(D.NumMay), std::uint64_t(D.IndependentPairs),
              std::uint64_t(D.HasCall), std::uint64_t(D.HasAlloc),
              std::uint64_t(D.ProvablyParallel),
              std::uint64_t(D.Serial.Found),
              std::uint64_t(D.Serial.WindowCycles),
              std::uint64_t(D.Serial.LoadBlock),
              std::uint64_t(D.Serial.LoadIndex),
              std::uint64_t(D.Serial.StoreBlock),
              std::uint64_t(D.Serial.StoreIndex)})
          Digest.mix(V);
        ++Loops;
        WithRaw += D.NumRaw > 0;
        WithMay += D.NumMay > 0;
        Serial += D.Serial.Found;
        Parallel += D.ProvablyParallel;
      }
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// AliasClasses
//===----------------------------------------------------------------------===//

TEST(AliasClasses, DistinctAllocationSitesAreDisjoint) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(16))),
      assign("b", allocWords(c(16))),
      assign("d", add(v("a"), c(4))), // derived pointer into a
      store(v("a"), Ex(), c(1)),
      store(v("b"), Ex(), c(2)),
      ret(ld(v("d"))),
  }));
  const ir::Function &F = mainFunc(M);
  AliasClasses AC(F);
  std::uint16_t A = localReg(F, "a"), B = localReg(F, "b"),
                D = localReg(F, "d");
  EXPECT_TRUE(AC.addressSet(A, ir::NoReg)
                  .disjointFrom(AC.addressSet(B, ir::NoReg)));
  // A derived pointer shares its base allocation's class.
  EXPECT_FALSE(AC.addressSet(D, ir::NoReg)
                   .disjointFrom(AC.addressSet(A, ir::NoReg)));
  EXPECT_TRUE(AC.addressSet(D, ir::NoReg)
                  .disjointFrom(AC.addressSet(B, ir::NoReg)));
}

//===----------------------------------------------------------------------===//
// Loop dependence classification
//===----------------------------------------------------------------------===//

TEST(MemDep, DisjointArraysAreProvablyParallel) {
  // a[i] = b[i]: reads and writes never touch the same allocation.
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(16))),
      assign("b", allocWords(c(16))),
      forLoop("i", c(0), lt(v("i"), c(16)), 1,
              store(v("a"), v("i"), ld(v("b"), v("i")))),
      ret(ld(v("a"), Ex(), 3)),
  }));
  ModuleAnalysis MA(M);
  const LoopMemDep &MD = singleLoopDep(MA);
  EXPECT_EQ(MD.NumLoads, 1u);
  EXPECT_EQ(MD.NumStores, 1u);
  EXPECT_EQ(MD.NumRaw, 0u);
  EXPECT_EQ(MD.NumMay, 0u);
  EXPECT_EQ(MD.IndependentPairs, 1u);
  EXPECT_TRUE(MD.ProvablyParallel);
  EXPECT_FALSE(MD.Serial.Found);
}

TEST(MemDep, SameIndexSameIterationIsIndependent) {
  // a[i] = a[i] + 1: the load and store hit the same cell only within one
  // iteration; both run before the inductor update, so no carried dep.
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(16))),
      forLoop("i", c(0), lt(v("i"), c(16)), 1,
              store(v("a"), v("i"), add(ld(v("a"), v("i")), c(1)))),
      ret(ld(v("a"), Ex(), 3)),
  }));
  ModuleAnalysis MA(M);
  const LoopMemDep &MD = singleLoopDep(MA);
  EXPECT_EQ(MD.NumRaw, 0u);
  EXPECT_EQ(MD.NumMay, 0u);
  EXPECT_EQ(MD.IndependentPairs, 1u);
  EXPECT_TRUE(MD.ProvablyParallel);
}

TEST(MemDep, OffsetGapGivesCarriedDistance) {
  // a[i+1] = a[i]: classic flow dependence at distance 1.
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(20))),
      forLoop("i", c(0), lt(v("i"), c(16)), 1,
              store(v("a"), v("i"), 1, ld(v("a"), v("i"), 0))),
      ret(ld(v("a"), Ex(), 8)),
  }));
  ModuleAnalysis MA(M);
  const LoopMemDep &MD = singleLoopDep(MA);
  ASSERT_EQ(MD.NumRaw, 1u);
  EXPECT_FALSE(MD.ProvablyParallel);
}

TEST(MemDep, StrideSkipsOddOffsets) {
  // step 2 with an offset gap of 1: the two address lattices interleave
  // and never collide.
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(20))),
      forLoop("i", c(0), lt(v("i"), c(16)), 2,
              store(v("a"), v("i"), 1, ld(v("a"), v("i"), 0))),
      ret(ld(v("a"), Ex(), 8)),
  }));
  ModuleAnalysis MA(M);
  const LoopMemDep &MD = singleLoopDep(MA);
  EXPECT_EQ(MD.NumRaw, 0u);
  EXPECT_EQ(MD.IndependentPairs, 1u);
  EXPECT_TRUE(MD.ProvablyParallel);
}

TEST(MemDep, FixedCellStoresAreCarried) {
  // heap[p] accumulates across iterations: carried RAW on a fixed cell.
  ir::Module M = makeMain(seq({
      assign("p", allocWords(c(4))),
      store(v("p"), Ex(), c(0)),
      forLoop("i", c(0), lt(v("i"), c(8)), 1,
              store(v("p"), Ex(), add(ld(v("p")), v("i")))),
      ret(ld(v("p"))),
  }));
  ModuleAnalysis MA(M);
  const LoopMemDep &MD = singleLoopDep(MA);
  EXPECT_GE(MD.NumRaw, 1u);
  EXPECT_FALSE(MD.ProvablyParallel);
}

TEST(MemDep, CountsPinnedOnGeneratedPrograms) {
  // The digests and loop counts were recorded by the MemDep that still
  // kept def-use chains and per-pair dependence lists: dropping what no
  // reader reads must leave every value a reader sees unchanged.
  MemDepPin Gen;
  for (std::uint64_t Seed = 1; Seed <= 200; ++Seed)
    Gen.add(corpus::ProgramGenerator(Seed).generate());
  MemDepPin Tpl;
  for (const corpus::Template &T : corpus::extractRegistryTemplates())
    for (std::uint64_t Seed = 1; Seed <= 4; ++Seed)
      Tpl.add(corpus::instantiate(T, Seed).Module);
  // Neither set has a carried RAW pair or a serial recurrence: the
  // registry workloads and the heap-carried shapes below supply them.
  MemDepPin Shapes;
  for (const workloads::Workload &W : workloads::allWorkloads())
    Shapes.add(W.Build());
  Shapes.add(makeMain(serialRecurrenceLoop()));
  Shapes.add(makeMain(serialRecurrenceLoop(
      store(v("p"), Ex(), 1, sdiv(ld(v("p"), Ex(), 1), c(3))))));
  Shapes.add(makeMain(seq({
      assign("p", allocWords(c(4))),
      store(v("p"), Ex(), c(0)),
      forLoop("i", c(0), lt(v("i"), c(8)), 1,
              store(v("p"), Ex(), add(ld(v("p")), v("i")))),
      ret(ld(v("p"))),
  })));
  Shapes.add(makeMain(seq({
      assign("a", allocWords(c(20))),
      forLoop("i", c(0), lt(v("i"), c(16)), 1,
              store(v("a"), v("i"), 1, ld(v("a"), v("i"), 0))),
      ret(ld(v("a"), Ex(), 8)),
  })));
  EXPECT_EQ(Gen.Loops, 2154u);
  EXPECT_EQ(Gen.Digest.value(), 0x12fb8063e74ba7b7ull);
  EXPECT_EQ(Tpl.Loops, 1828u);
  EXPECT_EQ(Tpl.Digest.value(), 0x21874c16310a1a69ull);
  EXPECT_EQ(Shapes.Loops, 235u);
  EXPECT_EQ(Shapes.Digest.value(), 0xddf9a351e677fd8eull);
  // Every verdict occurs, so the digests are not pinned on zeros alone.
  EXPECT_GE(Gen.WithMay, 400u);
  EXPECT_GE(Gen.Parallel, 600u);
  EXPECT_GE(Tpl.WithMay, 300u);
  EXPECT_GE(Tpl.Parallel, 700u);
  EXPECT_GE(Shapes.WithRaw, 5u);
  EXPECT_GE(Shapes.WithMay, 100u);
  EXPECT_GE(Shapes.Serial, 2u);
  EXPECT_GE(Shapes.Parallel, 90u);
}

//===----------------------------------------------------------------------===//
// Serial recurrence detection and the pre-filter
//===----------------------------------------------------------------------===//

TEST(MemDep, DetectsSerialRecurrence) {
  ir::Module M = makeMain(serialRecurrenceLoop());
  ModuleAnalysis MA(M);
  const LoopMemDep &MD = singleLoopDep(MA);
  ASSERT_TRUE(MD.Serial.Found);
  // The tiny window: store, branch, eoi on the latch side plus the reload
  // at the top of the header. Must stay within the default forwarding
  // budget and must never be zero.
  EXPECT_GT(MD.Serial.WindowCycles, 0u);
  EXPECT_LE(MD.Serial.WindowCycles, 10u);
  EXPECT_GE(MD.NumRaw, 1u);
  // The recurrence names the header reload and a latch store of the cell.
  const ir::Function &F = mainFunc(M);
  const FunctionAnalysis &FA = MA.func(0);
  EXPECT_EQ(MD.Serial.LoadBlock, FA.LI.loops()[0].Header);
  const ir::Instruction &Ld =
      F.Blocks[MD.Serial.LoadBlock].Instructions[MD.Serial.LoadIndex];
  const ir::Instruction &St =
      F.Blocks[MD.Serial.StoreBlock].Instructions[MD.Serial.StoreIndex];
  EXPECT_EQ(Ld.Op, ir::Opcode::Load);
  EXPECT_EQ(St.Op, ir::Opcode::Store);
  EXPECT_EQ(Ld.Imm, St.Imm);
}

TEST(MemDep, ForLoopLatchHasNoStoreSoNoRecurrence) {
  // The same accumulation through a for-loop: the latch is the dedicated
  // step block (no store), so the conservative shape does not apply.
  ir::Module M = makeMain(seq({
      assign("p", allocWords(c(4))),
      store(v("p"), Ex(), c(0)),
      forLoop("i", c(0), lt(v("i"), c(50)), 1,
              store(v("p"), Ex(), add(ld(v("p")), c(1)))),
      ret(ld(v("p"))),
  }));
  ModuleAnalysis MA(M);
  EXPECT_FALSE(singleLoopDep(MA).Serial.Found);
}

TEST(Prefilter, RejectsSerialRecurrence) {
  ir::Module M = makeMain(serialRecurrenceLoop());

  // Default options: the optimistic policy keeps the loop.
  ModuleAnalysis Optimistic(M);
  ASSERT_EQ(Optimistic.candidates().size(), 1u);
  EXPECT_FALSE(Optimistic.candidates()[0].Rejected);

  AnalysisOptions Opts;
  Opts.StaticPrefilter = true;
  ModuleAnalysis MA(M, Opts);
  ASSERT_EQ(MA.candidates().size(), 1u);
  const CandidateStl &C = MA.candidates()[0];
  EXPECT_TRUE(C.Rejected);
  EXPECT_EQ(C.Kind, RejectKind::SerialMemoryRecurrence);
  EXPECT_NE(C.RejectReason.find("serial memory recurrence"),
            std::string::npos);
  EXPECT_STREQ(rejectKindName(C.Kind), "serial-memory");
}

TEST(Prefilter, KeepsParallelLoop) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(16))),
      assign("b", allocWords(c(16))),
      forLoop("i", c(0), lt(v("i"), c(16)), 1,
              store(v("a"), v("i"), ld(v("b"), v("i")))),
      ret(ld(v("a"), Ex(), 3)),
  }));
  AnalysisOptions Opts;
  Opts.StaticPrefilter = true;
  ModuleAnalysis MA(M, Opts);
  ASSERT_EQ(MA.candidates().size(), 1u);
  EXPECT_FALSE(MA.candidates()[0].Rejected);
}

TEST(Prefilter, BudgetGatesTheRejection) {
  // Work after the latch store widens the store-to-reload window past the
  // default forwarding budget: the arc could win, so the loop survives.
  St Extra = store(v("p"), Ex(), 1, sdiv(ld(v("p"), Ex(), 1), c(3)));
  ir::Module M = makeMain(serialRecurrenceLoop(std::move(Extra)));

  ModuleAnalysis Plain(M);
  const LoopMemDep &MD = singleLoopDep(Plain);
  ASSERT_TRUE(MD.Serial.Found);
  EXPECT_GT(MD.Serial.WindowCycles, 10u);

  AnalysisOptions Tight;
  Tight.StaticPrefilter = true;
  ModuleAnalysis Kept(M, Tight);
  ASSERT_EQ(Kept.candidates().size(), 1u);
  EXPECT_FALSE(Kept.candidates()[0].Rejected);

  AnalysisOptions Loose;
  Loose.StaticPrefilter = true;
  Loose.SerialArcBudget = 40;
  ModuleAnalysis Rejected(M, Loose);
  ASSERT_EQ(Rejected.candidates().size(), 1u);
  EXPECT_TRUE(Rejected.candidates()[0].Rejected);
  EXPECT_EQ(Rejected.candidates()[0].Kind,
            RejectKind::SerialMemoryRecurrence);
}

TEST(Prefilter, FilteredProgramStillComputesTheSameResult) {
  // End-to-end: the pre-filter must only change scheduling, never values.
  ir::Module M = makeMain(serialRecurrenceLoop());
  pipeline::PipelineConfig Off;
  pipeline::PipelineConfig On;
  On.StaticPrefilter = true;
  pipeline::Jrpm JOff(M, Off);
  pipeline::Jrpm JOn(M, On);
  pipeline::PipelineResult ROff = JOff.runAll();
  pipeline::PipelineResult ROn = JOn.runAll();
  EXPECT_EQ(ROff.TlsRun.ReturnValue, ROn.TlsRun.ReturnValue);
  EXPECT_EQ(ROff.PlainRun.ReturnValue, ROn.TlsRun.ReturnValue);
  // The rejected loop pays no annotation overhead while profiling.
  EXPECT_LT(ROn.ProfiledRun.Cycles, ROff.ProfiledRun.Cycles);
}
