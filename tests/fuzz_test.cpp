//===- tests/fuzz_test.cpp - Randomized whole-stack property tests ---------==//
//
// Feeds generated programs (tests/RandomProgram.h) through every layer and
// checks the invariants that must hold for *any* program:
//
//   * sequential execution is deterministic,
//   * the annotated module computes the same result and the tracer's bank
//     stack balances,
//   * speculative execution is bit-identical to sequential execution under
//     every engine configuration (restart, sync, line-granular),
//   * Equation 1 estimates stay within [~0, p].
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"
#include "analysis/Candidates.h"
#include "corpus/Variant.h"
#include "hydra/TlsEngine.h"
#include "jit/Annotator.h"
#include "jit/TlsPlan.h"
#include "jrpm/Pipeline.h"
#include "sweep/ParallelFor.h"
#include "tracer/TraceEngine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

using namespace jrpm;

namespace {

interp::RunResult runTls(const ir::Module &M, const sim::HydraConfig &Cfg) {
  analysis::ModuleAnalysis MA(M);
  std::vector<jit::TlsLoopPlan> Plans;
  for (const auto &C : MA.candidates())
    if (!C.Rejected)
      Plans.push_back(jit::buildTlsPlan(MA, C));
  hydra::TlsEngine Engine(M, Cfg, std::move(Plans));
  interp::Machine Machine(M, Cfg);
  Machine.setDispatcher(&Engine);
  return Machine.run();
}

} // namespace

class FuzzSuite : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSuite, WholeStackInvariants) {
  testutil::ProgramGenerator Gen(GetParam());
  ir::Module M = Gen.generate();
  sim::HydraConfig Cfg;

  // Sequential determinism.
  auto Seq1 = testutil::runModule(M, Cfg);
  auto Seq2 = testutil::runModule(M, Cfg);
  ASSERT_EQ(Seq1.ReturnValue, Seq2.ReturnValue);
  ASSERT_EQ(Seq1.Cycles, Seq2.Cycles);

  // Annotated execution: same result, balanced tracer, sane estimates.
  analysis::ModuleAnalysis MA(M);
  jit::AnnotatedModule AM =
      jit::annotateModule(M, MA, jit::AnnotationLevel::Optimized);
  tracer::TraceEngine Tracer(Cfg, AM.LoopInfos);
  interp::Machine Profiled(AM.Module, Cfg);
  Profiled.setTraceSink(&Tracer);
  auto Prof = Profiled.run();
  EXPECT_EQ(Prof.ReturnValue, Seq1.ReturnValue);
  EXPECT_GE(Prof.Cycles, Seq1.Cycles);
  tracer::SelectionResult Sel =
      tracer::selectStls(Tracer, Prof.Cycles, Cfg);
  for (const auto &Rep : Sel.Loops) {
    EXPECT_GE(Rep.Estimate.Speedup, 0.0);
    EXPECT_LE(Rep.Estimate.BaseSpeedup, 4.0 + 1e-9);
  }

  // Speculative execution under three configurations.
  EXPECT_EQ(runTls(M, Cfg).ReturnValue, Seq1.ReturnValue)
      << "restart mode diverged (seed " << GetParam() << ")";
  sim::HydraConfig Sync = Cfg;
  Sync.SyncCarriedLocals = true;
  EXPECT_EQ(runTls(M, Sync).ReturnValue, Seq1.ReturnValue)
      << "sync mode diverged (seed " << GetParam() << ")";
  sim::HydraConfig Line = Cfg;
  Line.ViolationGrain = sim::ViolationGranularity::Line;
  EXPECT_EQ(runTls(M, Line).ReturnValue, Seq1.ReturnValue)
      << "line-grain mode diverged (seed " << GetParam() << ")";
}

TEST_P(FuzzSuite, FullPipelineMatches) {
  testutil::ProgramGenerator Gen(GetParam() * 7919 + 13);
  pipeline::Jrpm J(Gen.generate(), pipeline::PipelineConfig{});
  pipeline::PipelineResult R = J.runAll();
  EXPECT_EQ(R.TlsRun.ReturnValue, R.PlainRun.ReturnValue)
      << "pipeline diverged (seed " << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSuite, ::testing::Range<std::uint64_t>(1, 41));

TEST(CorpusFuzz, VariantsSatisfyWholeStackInvariants) {
  // The same whole-stack differential the random programs get, over a
  // deterministic sample of template-extracted corpus variants: one
  // template per family (first in registry order), two seeds each. The
  // corpus engine runs its own oracles over thousands of variants
  // (corpus_test.cpp, ci_corpus_golden.sh); this keeps the shape corpus
  // wired into the classic fuzz invariants as well.
  std::vector<corpus::Template> All = corpus::extractRegistryTemplates();
  std::set<std::string> SeenFamilies;
  for (const corpus::Template &T : All) {
    if (!SeenFamilies.insert(T.Family).second)
      continue;
    for (std::uint64_t Seed : {3, 23}) {
      corpus::Variant V = corpus::instantiate(T, Seed);
      sim::HydraConfig Cfg;
      auto Seq = testutil::runModule(V.Module, Cfg);
      EXPECT_EQ(runTls(V.Module, Cfg).ReturnValue, Seq.ReturnValue)
          << T.Id << " seed " << Seed << " (restart mode)";
      sim::HydraConfig Sync = Cfg;
      Sync.SyncCarriedLocals = true;
      EXPECT_EQ(runTls(V.Module, Sync).ReturnValue, Seq.ReturnValue)
          << T.Id << " seed " << Seed << " (sync mode)";
      sim::HydraConfig Line = Cfg;
      Line.ViolationGrain = sim::ViolationGranularity::Line;
      EXPECT_EQ(runTls(V.Module, Line).ReturnValue, Seq.ReturnValue)
          << T.Id << " seed " << Seed << " (line-grain mode)";
    }
  }
}

TEST(ConcurrentFuzz, GeneratedProgramsBitIdenticalUnderSweepPool) {
  // The sweep-engine variant of the fuzz harness: N generated programs are
  // dispatched concurrently through sweep::parallelFor, every job asserting
  // that speculative execution reproduces its own sequential run bit for
  // bit. Each job builds its module, engines, and PRNG from its seed alone,
  // so the test doubles as a reentrancy check of the whole stack (and is
  // the workload scripts/ci_tsan.sh puts under ThreadSanitizer).
  constexpr std::uint64_t NumPrograms = 24;
  std::atomic<int> Failures{0};
  std::vector<std::string> Errors(NumPrograms);
  sweep::parallelFor(NumPrograms, 4, [&](std::size_t Seed, unsigned) {
    testutil::ProgramGenerator Gen(Seed * 2654435761 + 101);
    ir::Module M = Gen.generate();
    sim::HydraConfig Cfg;
    auto Seq = testutil::runModule(M, Cfg);
    auto Tls = runTls(M, Cfg);
    if (Tls.ReturnValue != Seq.ReturnValue) {
      Failures.fetch_add(1, std::memory_order_relaxed);
      Errors[Seed] = "speculative checksum diverged (seed " +
                     std::to_string(Seed) + ")";
      return;
    }
    // Sequential re-run inside the concurrent job: still deterministic.
    auto Seq2 = testutil::runModule(M, Cfg);
    if (Seq2.ReturnValue != Seq.ReturnValue ||
        Seq2.Cycles != Seq.Cycles) {
      Failures.fetch_add(1, std::memory_order_relaxed);
      Errors[Seed] = "sequential re-run diverged (seed " +
                     std::to_string(Seed) + ")";
    }
  });
  EXPECT_EQ(Failures.load(), 0);
  for (const std::string &E : Errors)
    EXPECT_TRUE(E.empty()) << E;
}
