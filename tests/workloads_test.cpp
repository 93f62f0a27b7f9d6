//===- tests/workloads_test.cpp - Full-suite integration tests -------------==//
//
// Parameterized over all 26 Table 6 benchmarks: the whole Jrpm pipeline
// must run, speculative execution must be bit-identical to sequential
// execution, and profiling overhead must stay within the paper's ballpark.
//
//===----------------------------------------------------------------------===//

#include "jrpm/Pipeline.h"
#include "support/Fnv1a.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <map>

using namespace jrpm;
using namespace jrpm::pipeline;

class WorkloadSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSuite, PipelineRunsAndTlsMatchesSequential) {
  const workloads::Workload *W = workloads::findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  Jrpm J(W->Build(), PipelineConfig{});
  PipelineResult R = J.runAll();

  // Determinism of the sequential baseline.
  auto Again = J.runPlain();
  EXPECT_EQ(Again.Cycles, R.PlainRun.Cycles);
  EXPECT_EQ(Again.ReturnValue, R.PlainRun.ReturnValue);

  // TLS correctness: speculative execution preserves sequential semantics.
  EXPECT_EQ(R.TlsRun.ReturnValue, R.PlainRun.ReturnValue)
      << "speculative result diverged for " << W->Name;

  // TEST hardware profiling overhead stays mild (paper: 3-25%; we accept
  // up to 60% before calling it a regression).
  EXPECT_LT(R.profilingSlowdown(), 1.6) << W->Name;
  EXPECT_GE(R.profilingSlowdown(), 1.0) << W->Name;

  // The tracer must have seen every annotated loop entry it claims.
  EXPECT_LE(R.PeakBanksInUse, J.config().Hw.ComparatorBanks);

  // TLS never slows the program beyond mild overhead.
  EXPECT_GT(R.actualSpeedup(), 0.8) << W->Name;
}

TEST_P(WorkloadSuite, SelectionIsStableAcrossProfilingLevels) {
  const workloads::Workload *W = workloads::findWorkload(GetParam());
  PipelineConfig Base;
  Base.Level = jit::AnnotationLevel::Base;
  Jrpm J(W->Build(), Base);
  auto P = J.profileAndSelect();
  // Selected loops must be traced, non-rejected candidates.
  for (std::uint32_t L : P.Selection.SelectedLoops) {
    EXPECT_GT(P.Selection.Loops[L].Stats.Threads, 0u);
    EXPECT_FALSE(J.moduleAnalysis().candidate(L).Rejected);
  }
}

namespace {

/// FNV-1a of each workload's lowered Module::dump(). The goldens see the
/// lowered code only through cycles and lint output; this pins its bytes.
const std::map<std::string, std::uint64_t> &loweredDigests() {
  static const std::map<std::string, std::uint64_t> Digests = {
      {"Assignment", 0x0f8916390b0762d3ull},
      {"BitOps", 0x2a1fcf156fcb4bf0ull},
      {"compress", 0x97e19f9e1ae0602dull},
      {"db", 0xfc82623b58ec758aull},
      {"deltaBlue", 0x89973df2e87f3086ull},
      {"EmFloatPnt", 0xe79cd0934f29f2bdull},
      {"Huffman", 0x5ddd6d6743533f26ull},
      {"IDEA", 0x03f85acfcf70bb6full},
      {"jess", 0xa7af963f64db7a07ull},
      {"jLex", 0x99fa492f6dadeb25ull},
      {"MipsSimulator", 0x4843f095cc762e40ull},
      {"monteCarlo", 0x63113d253fea2a82ull},
      {"NumHeapSort", 0x31b612f6171172d8ull},
      {"raytrace", 0x1a51ab6744440ed6ull},
      {"euler", 0x2aeae8b512b424faull},
      {"fft", 0x63f51fb48962d330ull},
      {"FourierTest", 0x5f110570911b75f1ull},
      {"LuFactor", 0x74fd545b5744deeeull},
      {"moldyn", 0x840573e91209dd01ull},
      {"NeuralNet", 0x659049d59a75ff64ull},
      {"shallow", 0xa97c8496c20b7d0aull},
      {"decJpeg", 0xf4d91240f9cd17d9ull},
      {"encJpeg", 0x355023ca5958ff8bull},
      {"h263dec", 0x26a150aff8880323ull},
      {"mpegVideo", 0x765899643ff4434bull},
      {"mp3", 0x7aa39c4c51174d76ull},
  };
  return Digests;
}

} // namespace

TEST_P(WorkloadSuite, LoweredModuleIsPinned) {
  const workloads::Workload *W = workloads::findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  auto It = loweredDigests().find(W->Name);
  ASSERT_NE(It, loweredDigests().end()) << W->Name;
  EXPECT_EQ(fnv1a(W->Build().dump()), It->second) << W->Name;
}

namespace {

std::vector<std::string> allNames() {
  std::vector<std::string> Names;
  for (const auto &W : workloads::allWorkloads())
    Names.push_back(W.Name);
  return Names;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Table6, WorkloadSuite,
                         ::testing::ValuesIn(allNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           std::string Name = I.param;
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

#include "workloads/Builders.h"

TEST(DataSetSensitivity, SelectionMovesDownTheNestOnLargeInputs) {
  // Section 6.1: larger data sets overflow speculative state when
  // speculating high in a nest, pushing selection toward inner loops.
  auto AvgSelectedHeight = [](std::int64_t N) {
    pipeline::Jrpm J(workloads::buildAssignmentSized(N),
                     PipelineConfig{});
    auto P = J.profileAndSelect();
    double Sum = 0;
    std::uint32_t Count = 0;
    for (const auto &Rep : P.Selection.Loops) {
      if (!Rep.Selected || Rep.Coverage <= 0.005)
        continue;
      const auto &C = J.moduleAnalysis().candidate(Rep.LoopId);
      Sum += J.moduleAnalysis().func(C.FuncIndex).LI.heightOf(C.LoopIdx);
      ++Count;
    }
    return Count ? Sum / Count : 0.0;
  };
  EXPECT_GT(AvgSelectedHeight(51), AvgSelectedHeight(288));
}
