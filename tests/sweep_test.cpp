//===- tests/sweep_test.cpp - Sweep engine tests ---------------------------==//
//
// Covers parallelFor, plan expansion (cartesian grid + dedup),
// failure isolation (a crashing job reports instead of killing the sweep),
// the soft per-job timeout, the determinism contract (same plan + seed on
// 1 thread and N threads renders byte-identical JSON), and the selection
// digest used as the conformance currency.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/Json.h"
#include "sweep/Conformance.h"
#include "tracer/Selector.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace jrpm;
using namespace jrpm::sweep;

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(SweepParallelFor, EveryIndexRunsExactlyOnce) {
  for (std::size_t N : {0u, 1u, 7u, 200u})
    for (unsigned Width : {0u, 1u, 3u, 8u}) {
      SCOPED_TRACE("N=" + std::to_string(N) +
                   " width=" + std::to_string(Width));
      std::vector<std::atomic<int>> Hits(N);
      parallelFor(N, Width, [&Hits](std::size_t I, unsigned) {
        Hits[I].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t I = 0; I < N; ++I)
        EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
    }
}

TEST(SweepParallelFor, WorkerIdsBelowStartedWidth) {
  // Width 0 is the hardware width: at least one thread, capped by N.
  const unsigned Hw = parallelWidth(SIZE_MAX, 0);
  EXPECT_GE(Hw, 1u);
  for (std::size_t N : {1u, 7u, 200u})
    for (unsigned Width : {0u, 1u, 3u, 8u}) {
      SCOPED_TRACE("N=" + std::to_string(N) +
                   " width=" + std::to_string(Width));
      const unsigned Started = parallelWidth(N, Width);
      EXPECT_EQ(Started, std::min<std::size_t>(Width ? Width : Hw, N));
      std::vector<unsigned> Worker(N, ~0u); // one slot per index
      parallelFor(N, Width,
                  [&Worker](std::size_t I, unsigned W) { Worker[I] = W; });
      for (unsigned W : Worker)
        EXPECT_LT(W, Started);
    }
}

TEST(SweepParallelFor, WidthOneRunsOnCallingThread) {
  // Width 1, requested or implied by a single job, runs inline.
  const auto Caller = std::this_thread::get_id();
  for (auto [N, Width] : {std::pair<std::size_t, unsigned>{50, 1},
                          std::pair<std::size_t, unsigned>{1, 8}}) {
    std::vector<char> OnCaller(N, 0); // one slot per index
    parallelFor(N, Width, [&](std::size_t I, unsigned W) {
      EXPECT_EQ(W, 0u);
      OnCaller[I] = std::this_thread::get_id() == Caller;
    });
    for (char C : OnCaller)
      EXPECT_TRUE(C);
  }
}

TEST(SweepParallelFor, ZeroJobsStartNoThread) {
  for (unsigned Width : {0u, 1u, 3u, 8u}) {
    EXPECT_EQ(parallelWidth(0, Width), 0u);
    bool Called = false;
    parallelFor(0, Width, [&Called](std::size_t, unsigned) { Called = true; });
    EXPECT_FALSE(Called);
  }
}

//===----------------------------------------------------------------------===//
// Config points and plan expansion
//===----------------------------------------------------------------------===//

TEST(SweepPlanTest, ConfigPointCanonicalName) {
  ConfigPoint P;
  std::string Err;
  ASSERT_TRUE(parseConfigPoint("history=48,banks=2", P, &Err)) << Err;
  // Canonical name sorts knobs by key, whatever the spec order.
  EXPECT_EQ(P.name(), "banks=2,history=48");

  ConfigPoint Empty;
  ASSERT_TRUE(parseConfigPoint("default", Empty, &Err)) << Err;
  EXPECT_EQ(Empty.name(), "default");
  ASSERT_TRUE(parseConfigPoint("", Empty, &Err)) << Err;
  EXPECT_EQ(Empty.name(), "default");
}

TEST(SweepPlanTest, ConfigPointRejectsMalformedSpecs) {
  ConfigPoint P;
  std::string Err;
  EXPECT_FALSE(parseConfigPoint("banks", P, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(parseConfigPoint("banks=", P, &Err));
  EXPECT_FALSE(parseConfigPoint("banks=eight", P, &Err));
  EXPECT_FALSE(parseConfigPoint("=2", P, &Err));
  // Values beyond UINT32_MAX are rejected, not thrown or truncated.
  EXPECT_FALSE(parseConfigPoint("banks=99999999999999999999", P, &Err));
  EXPECT_NE(Err.find("out of range"), std::string::npos);
  EXPECT_FALSE(parseConfigPoint("banks=4294967298", P, &Err));
  EXPECT_TRUE(parseConfigPoint("banks=4294967295", P, &Err)) << Err;
  // A repeated key would make the canonical name ambiguous.
  EXPECT_FALSE(parseConfigPoint("banks=4,banks=2", P, &Err));
  EXPECT_NE(Err.find("duplicate"), std::string::npos);
}

TEST(SweepPlanTest, ConfigPointAppliesKnobs) {
  ConfigPoint P;
  std::string Err;
  ASSERT_TRUE(
      parseConfigPoint("banks=2,history=48,prefilter=1,oracle=1", P, &Err));
  pipeline::PipelineConfig Cfg;
  ASSERT_TRUE(P.apply(Cfg, &Err)) << Err;
  EXPECT_EQ(Cfg.Hw.ComparatorBanks, 2u);
  EXPECT_EQ(Cfg.Hw.HeapTimestampFifoLines, 48u);
  EXPECT_TRUE(Cfg.StaticPrefilter);
  EXPECT_TRUE(Cfg.AffineOracle);

  ConfigPoint Off;
  ASSERT_TRUE(parseConfigPoint("oracle=0", Off, &Err));
  pipeline::PipelineConfig Cfg2;
  Cfg2.AffineOracle = true;
  ASSERT_TRUE(Off.apply(Cfg2, &Err)) << Err;
  EXPECT_FALSE(Cfg2.AffineOracle);
}

TEST(SweepPlanTest, UnknownKnobFailsExpansion) {
  SweepPlan Plan;
  Plan.Workloads = {"Huffman"};
  Plan.Configs.push_back(ConfigPoint{{{"warp-drive", 9}}});
  std::vector<SweepJob> Jobs;
  std::string Err;
  EXPECT_FALSE(Plan.expand(Jobs, &Err));
  EXPECT_NE(Err.find("warp-drive"), std::string::npos);

  // An overflow-table geometry the tracer cannot build fails expansion
  // instead of killing the process when the job constructs its engine.
  for (const char *Spec : {"assoc=0", "assoc=3"}) {
    ConfigPoint Bad;
    ASSERT_TRUE(parseConfigPoint(Spec, Bad, &Err)) << Err;
    Plan.Configs = {Bad};
    EXPECT_FALSE(Plan.expand(Jobs, &Err)) << Spec;
    EXPECT_NE(Err.find("assoc="), std::string::npos) << Err;
  }
}

TEST(SweepPlanTest, CartesianExpansionOrderAndIndices) {
  SweepPlan Plan;
  Plan.Workloads = {"fft", "Huffman"};
  Plan.Levels = {jit::AnnotationLevel::Base, jit::AnnotationLevel::Optimized};
  ConfigPoint Banks;
  std::string Err;
  ASSERT_TRUE(parseConfigPoint("banks=2", Banks, &Err));
  Plan.Configs = {ConfigPoint{}, Banks};

  std::vector<SweepJob> Jobs;
  ASSERT_TRUE(Plan.expand(Jobs, &Err)) << Err;
  ASSERT_EQ(Jobs.size(), 2u * 2u * 2u);
  // Workload major, level middle, config minor; indices sequential.
  EXPECT_EQ(Jobs[0].Workload, "fft");
  EXPECT_EQ(Jobs[0].Level, jit::AnnotationLevel::Base);
  EXPECT_EQ(Jobs[0].ConfigName, "default");
  EXPECT_EQ(Jobs[1].ConfigName, "banks=2");
  EXPECT_EQ(Jobs[2].Level, jit::AnnotationLevel::Optimized);
  EXPECT_EQ(Jobs[4].Workload, "Huffman");
  for (std::size_t I = 0; I < Jobs.size(); ++I)
    EXPECT_EQ(Jobs[I].Index, static_cast<std::uint32_t>(I));
  // The banks knob landed in the job's resolved config.
  EXPECT_EQ(Jobs[1].Cfg.Hw.ComparatorBanks, 2u);
  EXPECT_NE(Jobs[0].Cfg.Hw.ComparatorBanks, 2u);
}

TEST(SweepPlanTest, ExactDuplicatesRemoved) {
  SweepPlan Plan;
  Plan.Workloads = {"fft", "fft"};
  ConfigPoint A, B;
  std::string Err;
  // Same canonical point spelled in two orders: one survives.
  ASSERT_TRUE(parseConfigPoint("banks=2,history=48", A, &Err));
  ASSERT_TRUE(parseConfigPoint("history=48,banks=2", B, &Err));
  Plan.Configs = {A, B};
  std::vector<SweepJob> Jobs;
  ASSERT_TRUE(Plan.expand(Jobs, &Err)) << Err;
  EXPECT_EQ(Jobs.size(), 1u);
}

TEST(SweepPlanTest, EmptyDimensionsGetDefaults) {
  SweepPlan Plan;
  Plan.Workloads = {"fft"};
  std::vector<SweepJob> Jobs;
  std::string Err;
  ASSERT_TRUE(Plan.expand(Jobs, &Err)) << Err;
  ASSERT_EQ(Jobs.size(), 1u);
  EXPECT_EQ(Jobs[0].Level, jit::AnnotationLevel::Optimized);
  EXPECT_EQ(Jobs[0].ConfigName, "default");
}

TEST(SweepPlanTest, EmptyWorkloadsSelectWholeRegistry) {
  SweepPlan Plan;
  std::vector<SweepJob> Jobs;
  std::string Err;
  ASSERT_TRUE(Plan.expand(Jobs, &Err)) << Err;
  EXPECT_EQ(Jobs.size(), workloads::allWorkloads().size());
}

TEST(SweepPlanTest, ConformancePlanCoversBothLevelsAndGrid) {
  SweepPlan Plan = conformancePlan(defaultConformanceGrid(), {"fft"});
  std::vector<SweepJob> Jobs;
  std::string Err;
  ASSERT_TRUE(Plan.expand(Jobs, &Err)) << Err;
  // 1 workload x 2 levels x >=3 grid points.
  EXPECT_GE(defaultConformanceGrid().size(), 3u);
  EXPECT_EQ(Jobs.size(), 2 * defaultConformanceGrid().size());
  for (const SweepJob &J : Jobs)
    EXPECT_EQ(J.Mode, JobMode::Conformance);
}

//===----------------------------------------------------------------------===//
// Running sweeps: isolation, timeout, determinism
//===----------------------------------------------------------------------===//

namespace {

std::vector<SweepJob> expandOrDie(const SweepPlan &Plan) {
  std::vector<SweepJob> Jobs;
  std::string Err;
  EXPECT_TRUE(Plan.expand(Jobs, &Err)) << Err;
  return Jobs;
}

} // namespace

TEST(SweepRunnerTest, FailedJobIsIsolatedFromSiblings) {
  SweepPlan Plan;
  Plan.Workloads = {"fft", "no_such_workload", "Huffman"};
  SweepReport Report = runSweep(expandOrDie(Plan), 2);
  ASSERT_EQ(Report.Results.size(), 3u);
  EXPECT_EQ(Report.OkCount, 2u);
  EXPECT_EQ(Report.FailedCount, 1u);
  EXPECT_FALSE(Report.allOk());
  // The bad job carries an error message; the siblings completed normally.
  EXPECT_EQ(Report.Results[0].Status, JobStatus::Ok);
  EXPECT_EQ(Report.Results[1].Status, JobStatus::Failed);
  EXPECT_NE(Report.Results[1].Error.find("no_such_workload"),
            std::string::npos);
  EXPECT_EQ(Report.Results[2].Status, JobStatus::Ok);
  EXPECT_GT(Report.Results[2].PlainCycles, 0u);
}

TEST(SweepRunnerTest, OneJobStartsOneThread) {
  // The reported width is the number of threads actually started: never
  // more than one per job. The job fails at once; only the width matters.
  SweepPlan Plan;
  Plan.Workloads = {"no_such_workload"};
  SweepReport Report = runSweep(expandOrDie(Plan), 4);
  ASSERT_EQ(Report.Results.size(), 1u);
  EXPECT_EQ(Report.Threads, 1u);
}

TEST(SweepRunnerTest, SoftTimeoutReportsWithoutKilling) {
  // The simulator has no preemption point, so an over-budget job completes
  // and is then reported as timed out; its measurements stay valid.
  SweepPlan Plan;
  Plan.Workloads = {"Huffman"};
  Plan.TimeoutMs = 1; // a full pipeline run takes far longer than 1 ms
  SweepReport Report = runSweep(expandOrDie(Plan), 1);
  ASSERT_EQ(Report.Results.size(), 1u);
  EXPECT_EQ(Report.Results[0].Status, JobStatus::TimedOut);
  EXPECT_EQ(Report.TimedOutCount, 1u);
  EXPECT_GT(Report.Results[0].PlainCycles, 0u);
  EXPECT_GT(Report.Results[0].WallMs, 0.0);
}

TEST(SweepRunnerTest, OneAndManyThreadsRenderIdenticalJson) {
  SweepPlan Plan;
  Plan.Workloads = {"fft", "Huffman", "BitOps"};
  Plan.Levels = {jit::AnnotationLevel::Base, jit::AnnotationLevel::Optimized};
  Plan.Seed = 42;
  std::vector<SweepJob> Jobs = expandOrDie(Plan);

  SweepReport R1 = runSweep(Jobs, 1);
  SweepReport R4 = runSweep(Jobs, 4);
  R1.Seed = R4.Seed = Plan.Seed;
  EXPECT_EQ(R1.OkCount, R4.OkCount);

  std::string J1 = reportToJson(R1, /*IncludeTimings=*/false).dump();
  std::string J4 = reportToJson(R4, /*IncludeTimings=*/false).dump();
  EXPECT_EQ(J1, J4) << "sweep JSON must not depend on the thread count";

  // With timings the documents legitimately differ (wall-clock, width) —
  // guard that the deterministic view really strips them.
  EXPECT_EQ(J1.find("wall_ms"), std::string::npos);
  EXPECT_EQ(J1.find("threads"), std::string::npos);
  EXPECT_NE(reportToJson(R4, true).dump().find("wall_ms"),
            std::string::npos);
}

TEST(SweepRunnerTest, ConformanceJobChecksReplayDigest) {
  SweepPlan Plan = conformancePlan(defaultConformanceGrid(), {"fft"});
  SweepReport Report = runSweep(expandOrDie(Plan), 2);
  EXPECT_TRUE(Report.allOk());
  for (const SweepResult &R : Report.Results) {
    EXPECT_EQ(R.Status, JobStatus::Ok);
    EXPECT_EQ(R.SelectionDigest, R.ReplayDigest);
    EXPECT_NE(R.SelectionDigest, 0u);
  }
}

TEST(SweepRunnerTest, FailedConformanceJobRemovesItsTrace) {
  // The TLS run throws after profiling has recorded the trace: the job
  // fails, and the trace file is gone all the same.
  std::vector<SweepJob> Jobs =
      expandOrDie(conformancePlan(defaultConformanceGrid(), {"fft"}));
  ASSERT_FALSE(Jobs.empty());
  SweepJob Job = Jobs[0];
  Job.Cfg.Hw.NumCores = 0;
  SweepResult R = runJob(Job);
  EXPECT_EQ(R.Status, JobStatus::Failed);
  EXPECT_NE(R.Error.find("TlsEngine models 1 to 32 cores"),
            std::string::npos);
  std::string TracePath = "/tmp/jrpm-sweep-" +
                          std::to_string(static_cast<long>(getpid())) + "-" +
                          std::to_string(Job.Index) + ".jtrace";
  EXPECT_FALSE(std::ifstream(TracePath).good()) << TracePath;
  std::remove(TracePath.c_str());
}

TEST(SweepRunnerTest, WriteReportIsAtomicAndParsesBack) {
  SweepPlan Plan;
  Plan.Workloads = {"BitOps"};
  SweepReport Report = runSweep(expandOrDie(Plan), 1);
  testutil::ScopedTempDir Dir("jrpm-sweep-test");
  ASSERT_TRUE(Dir.valid());
  std::string Path = Dir.file("report.json");
  std::string Err;
  ASSERT_TRUE(writeReport(Report, Path, /*IncludeTimings=*/false, &Err))
      << Err;
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), reportToJson(Report, false).dump());
  // No temporary left behind next to the target.
  EXPECT_EQ(std::remove(Path.c_str()), 0);
  EXPECT_NE(Buf.str().find("\"schema\": \"jrpm-sweep-v1\""),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Selection digest
//===----------------------------------------------------------------------===//

TEST(SweepDigestTest, DigestTracksEveryField) {
  tracer::SelectionResult R;
  R.ProgramCycles = 1000;
  R.SerialCycles = 250.0;
  R.PredictedCycles = 600.0;
  R.PredictedSpeedup = 1.66;
  tracer::StlReport Loop;
  Loop.LoopId = 3;
  Loop.Selected = true;
  Loop.Coverage = 0.75;
  R.Loops.push_back(Loop);
  R.SelectedLoops = {3};

  std::uint64_t D = tracer::selectionDigest(R);
  EXPECT_EQ(D, tracer::selectionDigest(R)) << "digest must be pure";

  tracer::SelectionResult Flipped = R;
  Flipped.Loops[0].Selected = false;
  EXPECT_NE(tracer::selectionDigest(Flipped), D);

  tracer::SelectionResult Shifted = R;
  Shifted.Loops[0].Coverage = 0.750000001;
  EXPECT_NE(tracer::selectionDigest(Shifted), D)
      << "doubles are hashed by bit pattern";
}

//===----------------------------------------------------------------------===//
// Deterministic JSON rendering
//===----------------------------------------------------------------------===//

TEST(SweepJsonTest, ObjectKeysAlwaysSorted) {
  Json J = Json::object();
  J["zeta"] = 1;
  J["alpha"] = 2;
  J["mid"] = Json::array();
  J["mid"].push(Json(std::uint64_t(7)));
  std::string S = J.dump();
  EXPECT_LT(S.find("alpha"), S.find("mid"));
  EXPECT_LT(S.find("mid"), S.find("zeta"));
}

TEST(SweepJsonTest, DoublesRoundTripBitExactly) {
  double V = 1.0 / 3.0;
  Json J = Json::object();
  J["v"] = V;
  std::string S = J.dump();
  std::size_t Colon = S.find(": ");
  ASSERT_NE(Colon, std::string::npos);
  double Back = std::strtod(S.c_str() + Colon + 2, nullptr);
  EXPECT_EQ(Back, V);
}

TEST(SweepJsonTest, StringsEscaped) {
  EXPECT_EQ(jsonEscape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}
