//===- tests/module_analysis_share_test.cpp - Derived ModuleAnalysis -------==//
//
// ModuleAnalysis(Base, Opts) re-screens Base's module under new options and
// shares Base's per-function analyses. It must be indistinguishable from a
// fresh ModuleAnalysis(M, Opts): same candidates, reject kinds and reasons,
// annotated locals and affine-oracle verdicts, on every registry workload
// and every corpus template variant.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Candidates.h"
#include "corpus/Template.h"
#include "corpus/Variant.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace jrpm;
using namespace jrpm::analysis;
using namespace jrpm::front;

namespace {

std::vector<AnalysisOptions> optionGrid() {
  std::vector<AnalysisOptions> Grid(5);
  Grid[1].StaticPrefilter = true;
  Grid[2].AffineOracle = true;
  Grid[3].StaticPrefilter = true;
  Grid[3].SerialArcBudget = 1000;
  Grid[4].AffineOracle = true;
  Grid[4].SerialArcBudget = 1000;
  return Grid;
}

void expectSameOracle(const LoopOracleResult *A, const LoopOracleResult *B,
                      const std::string &Where) {
  ASSERT_EQ(A == nullptr, B == nullptr) << Where;
  if (!A)
    return;
  EXPECT_EQ(A->Verdict, B->Verdict) << Where;
  EXPECT_EQ(A->Test, B->Test) << Where;
  EXPECT_EQ(A->Distance, B->Distance) << Where;
  EXPECT_EQ(A->WindowCycles, B->WindowCycles) << Where;
  EXPECT_EQ(A->TotalPairs, B->TotalPairs) << Where;
  EXPECT_EQ(A->IndependentPairs, B->IndependentPairs) << Where;
  EXPECT_EQ(A->AffinePairs, B->AffinePairs) << Where;
  EXPECT_EQ(A->MayPairs, B->MayPairs) << Where;
}

void expectSameScreening(const ModuleAnalysis &Derived,
                         const ModuleAnalysis &Fresh,
                         const std::string &Where) {
  ASSERT_EQ(Derived.candidates().size(), Fresh.candidates().size()) << Where;
  EXPECT_EQ(Derived.loopCount(), Fresh.loopCount()) << Where;
  EXPECT_EQ(Derived.maxStaticLoopDepth(), Fresh.maxStaticLoopDepth())
      << Where;
  for (std::size_t I = 0; I < Fresh.candidates().size(); ++I) {
    const CandidateStl &D = Derived.candidates()[I];
    const CandidateStl &F = Fresh.candidates()[I];
    std::string At = Where + " loop " + std::to_string(I);
    EXPECT_EQ(D.FuncIndex, F.FuncIndex) << At;
    EXPECT_EQ(D.LoopIdx, F.LoopIdx) << At;
    EXPECT_EQ(D.LoopId, F.LoopId) << At;
    EXPECT_EQ(D.Rejected, F.Rejected) << At;
    EXPECT_EQ(D.Kind, F.Kind) << At;
    EXPECT_EQ(D.RejectReason, F.RejectReason) << At;
    EXPECT_EQ(D.AnnotatedLocals, F.AnnotatedLocals) << At;
    expectSameOracle(Derived.oracleResult(F.LoopId),
                     Fresh.oracleResult(F.LoopId), At);
  }
}

/// Derives every grid point from a default base and from an affine-oracle
/// base (the base's own options must not leak), and checks each against a
/// fresh analysis. Returns the number of serial rejections the grid made,
/// the screening that depends on the options.
std::size_t checkModule(const ir::Module &M, const std::string &Name) {
  AnalysisOptions Affine;
  Affine.AffineOracle = true;
  ModuleAnalysis Bases[2] = {ModuleAnalysis(M), ModuleAnalysis(M, Affine)};
  std::size_t SerialRejects = 0;
  for (const AnalysisOptions &Opts : optionGrid()) {
    ModuleAnalysis Fresh(M, Opts);
    std::string Where = Name + " prefilter=" +
                        std::to_string(Opts.StaticPrefilter) +
                        " affine=" + std::to_string(Opts.AffineOracle) +
                        " budget=" + std::to_string(Opts.SerialArcBudget);
    for (const ModuleAnalysis &Base : Bases) {
      ModuleAnalysis Derived(Base, Opts);
      expectSameScreening(Derived, Fresh, Where);
      // Shared, not recomputed.
      for (std::uint32_t F = 0; F < M.Functions.size(); ++F)
        EXPECT_EQ(&Derived.func(F), &Base.func(F)) << Where;
    }
    for (const CandidateStl &C : Fresh.candidates())
      SerialRejects += C.rejectedAsSerial();
  }
  return SerialRejects;
}

} // namespace

TEST(ModuleAnalysisShare, DerivedEqualsFreshOnRegistry) {
  for (const workloads::Workload &W : workloads::allWorkloads())
    checkModule(W.Build(), W.Name);
}

TEST(ModuleAnalysisShare, DerivedEqualsFreshOnCorpusVariants) {
  std::vector<corpus::Template> Templates = corpus::extractRegistryTemplates();
  ASSERT_FALSE(Templates.empty());
  for (const corpus::Template &T : Templates)
    for (std::uint64_t Seed = 1; Seed <= 4; ++Seed)
      checkModule(corpus::instantiate(T, Seed).Module,
                  T.Id + " seed " + std::to_string(Seed));
}

TEST(ModuleAnalysisShare, DerivedEqualsFreshOnSerialShapes) {
  // The registry and the corpus make few serial rejections, so the
  // option-dependent screening also runs on the shapes that trigger it:
  // the pre-filter's latch-store recurrence, the same with a window only
  // a wider budget covers, and a body-entry store only the oracle proves.
  auto Recurrence = [](St Extra, bool StoreInEntry) {
    std::vector<St> Body;
    Body.push_back(store(v("p"), Ex(), 0, add(ld(v("p")), c(1))));
    Body.push_back(StoreInEntry ? iff(v("g"), exprStmt(c(0)))
                                : std::move(Extra));
    return testutil::makeMain(seq({
        assign("p", allocWords(c(8))),
        assign("g", c(0)),
        store(v("p"), Ex(), 0, c(0)),
        whileLoop(lt(ld(v("p")), c(50)), seq(std::move(Body))),
        ret(ld(v("p"))),
    }));
  };
  std::size_t SerialRejects = 0;
  SerialRejects += checkModule(Recurrence(exprStmt(c(0)), false), "latch");
  SerialRejects += checkModule(
      Recurrence(store(v("p"), Ex(), 1, sdiv(ld(v("p"), Ex(), 1), c(3))),
                 false),
      "wide window");
  SerialRejects += checkModule(Recurrence(St(), true), "body entry");
  EXPECT_GE(SerialRejects, 6u);
}
