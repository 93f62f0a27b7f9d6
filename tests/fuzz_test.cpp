//===- tests/fuzz_test.cpp - Randomized whole-stack property tests ---------==//
//
// Feeds generated programs (corpus/Generator.h) through every layer and
// checks the invariants that must hold for *any* program:
//
//   * sequential execution is deterministic,
//   * the annotated module computes the same result,
//   * speculative execution is bit-identical to sequential execution under
//     every engine configuration (restart, sync, line-granular),
//   * Equation 1 estimates stay within [~0, p].
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Generator.h"
#include "jrpm/Pipeline.h"
#include "sweep/ParallelFor.h"

#include <gtest/gtest.h>

#include <string>

using namespace jrpm;

class FuzzSuite : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSuite, WholeStackInvariants) {
  corpus::ProgramGenerator Gen(GetParam());
  ir::Module M = Gen.generate();
  sim::HydraConfig Cfg;

  // Sequential determinism.
  auto Seq1 = testutil::runModule(M, Cfg);
  auto Seq2 = testutil::runModule(M, Cfg);
  ASSERT_EQ(Seq1.ReturnValue, Seq2.ReturnValue);
  ASSERT_EQ(Seq1.Cycles, Seq2.Cycles);

  // Annotated execution: same result, sane estimates.
  pipeline::Jrpm J(M, pipeline::PipelineConfig{});
  pipeline::Jrpm::ProfileOutcome Prof = J.profileAndSelect();
  EXPECT_EQ(Prof.Run.ReturnValue, Seq1.ReturnValue);
  EXPECT_GE(Prof.Run.Cycles, Seq1.Cycles);
  for (const auto &Rep : Prof.Selection.Loops) {
    EXPECT_GE(Rep.Estimate.Speedup, 0.0);
    EXPECT_LE(Rep.Estimate.BaseSpeedup, 4.0 + 1e-9);
  }

  // Speculative execution of every non-rejected candidate under three
  // configurations.
  tracer::SelectionResult All = pipeline::everyCandidate(J.moduleAnalysis());
  EXPECT_EQ(J.runSpeculative(All, Cfg).Run.ReturnValue, Seq1.ReturnValue)
      << "restart mode diverged (seed " << GetParam() << ")";
  sim::HydraConfig Sync = Cfg;
  Sync.SyncCarriedLocals = true;
  EXPECT_EQ(J.runSpeculative(All, Sync).Run.ReturnValue, Seq1.ReturnValue)
      << "sync mode diverged (seed " << GetParam() << ")";
  sim::HydraConfig Line = Cfg;
  Line.ViolationGrain = sim::ViolationGranularity::Line;
  EXPECT_EQ(J.runSpeculative(All, Line).Run.ReturnValue, Seq1.ReturnValue)
      << "line-grain mode diverged (seed " << GetParam() << ")";
}

TEST_P(FuzzSuite, FullPipelineMatches) {
  corpus::ProgramGenerator Gen(GetParam() * 7919 + 13);
  pipeline::Jrpm J(Gen.generate(), pipeline::PipelineConfig{});
  pipeline::PipelineResult R = J.runAll();
  EXPECT_EQ(R.TlsRun.ReturnValue, R.PlainRun.ReturnValue)
      << "pipeline diverged (seed " << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSuite, ::testing::Range<std::uint64_t>(1, 41));
// Programs whose outer loop steps a counter inside a child loop: treating
// that counter as a once-per-iteration inductor made TLS diverge.
INSTANTIATE_TEST_SUITE_P(InnerLoopCounter, FuzzSuite,
                         ::testing::Values<std::uint64_t>(296, 395, 697, 1062,
                                                          1667, 1952, 1995));

TEST(ConcurrentFuzz, GeneratedProgramsBitIdenticalUnderSweepPool) {
  // The sweep-engine variant of the fuzz harness: N generated programs are
  // dispatched concurrently through sweep::parallelFor, every job asserting
  // that speculative execution reproduces its own sequential run bit for
  // bit. Each job builds its module, engines, and PRNG from its seed alone,
  // so the test doubles as a reentrancy check of the whole stack (and is
  // the workload scripts/ci_tsan.sh puts under ThreadSanitizer).
  constexpr std::uint64_t NumPrograms = 24;
  std::vector<std::string> Errors(NumPrograms);
  sweep::parallelFor(NumPrograms, 4, [&](std::size_t Seed, unsigned) {
    corpus::ProgramGenerator Gen(Seed * 2654435761 + 101);
    ir::Module M = Gen.generate();
    sim::HydraConfig Cfg;
    auto Seq = testutil::runModule(M, Cfg);
    pipeline::Jrpm J(M, pipeline::PipelineConfig{});
    auto Tls =
        J.runSpeculative(pipeline::everyCandidate(J.moduleAnalysis()), Cfg)
            .Run;
    if (Tls.ReturnValue != Seq.ReturnValue) {
      Errors[Seed] = "speculative checksum diverged (seed " +
                     std::to_string(Seed) + ")";
      return;
    }
    // Sequential re-run inside the concurrent job: still deterministic.
    auto Seq2 = testutil::runModule(M, Cfg);
    if (Seq2.ReturnValue != Seq.ReturnValue ||
        Seq2.Cycles != Seq.Cycles)
      Errors[Seed] = "sequential re-run diverged (seed " +
                     std::to_string(Seed) + ")";
  });
  for (const std::string &E : Errors)
    EXPECT_TRUE(E.empty()) << E;
}
