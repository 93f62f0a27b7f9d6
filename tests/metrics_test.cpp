//===- tests/metrics_test.cpp - Instrumentation registry invariants --------==//
//
// The observability layer's correctness is defined by accounting
// identities, not golden numbers: every cycle the Hydra engine simulates
// must land in exactly one overhead bucket, every speculative thread must
// be resolved exactly once, percentiles must be monotone, and counters
// monotonic across pipeline phases. These are checked over the entire
// Table 6 registry at both annotation levels, so any future change to the
// engine that leaks or double-counts a cycle fails here immediately. That a
// trace replay reproduces the live tracer's metrics bit-for-bit is checked
// on every workload by trace_replay_test.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "jrpm/Pipeline.h"
#include "metrics/Metrics.h"
#include "metrics/Timeline.h"
#include "sweep/SweepRunner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace jrpm;
using testutil::counterValue;

//===----------------------------------------------------------------------===//
// Primitive semantics
//===----------------------------------------------------------------------===//

TEST(MetricsPrimitives, HistogramPercentilesMonotoneAndBracketed) {
  metrics::Histogram H;
  // Values spanning several powers of two, including extremes.
  std::vector<std::uint64_t> Samples = {0,   1,    2,     3,      5,
                                        17,  100,  1000,  4096,   65535,
                                        1u << 20, (1ull << 40) + 17};
  for (std::uint64_t V : Samples)
    H.record(V);
  EXPECT_EQ(H.count(), Samples.size());
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), (1ull << 40) + 17);

  std::uint64_t Prev = 0;
  for (double P : {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                   99.9, 100.0}) {
    std::uint64_t V = H.percentile(P);
    EXPECT_GE(V, Prev) << "percentile not monotone at p" << P;
    Prev = V;
  }
  // p100 is an upper bound for the max; p0 a lower-bucket bound for min.
  EXPECT_GE(H.percentile(100.0), H.max());
  EXPECT_LE(H.percentile(0.0), 1u);
}

TEST(MetricsPrimitives, HistogramMergeMatchesCombinedRecording) {
  metrics::Histogram A, B, Combined;
  for (std::uint64_t V = 0; V < 500; ++V) {
    (V % 2 ? A : B).record(V * V);
    Combined.record(V * V);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), Combined.count());
  EXPECT_EQ(A.sum(), Combined.sum());
  EXPECT_EQ(A.min(), Combined.min());
  EXPECT_EQ(A.max(), Combined.max());
  for (double P : {50.0, 95.0, 99.0})
    EXPECT_EQ(A.percentile(P), Combined.percentile(P));
  EXPECT_EQ(A.toJson().dump(), Combined.toJson().dump());
}

TEST(MetricsPrimitives, RegistryMergeAddsCountersAndPeaksGauges) {
  metrics::Registry A, B;
  A.counter("x").inc(3);
  B.counter("x").inc(4);
  B.counter("only_b").inc(1);
  A.gauge("peak").peak(7);
  B.gauge("peak").peak(5);
  A.merge(B);
  EXPECT_EQ(counterValue(A, "x"), 7u);
  EXPECT_EQ(counterValue(A, "only_b"), 1u);
  EXPECT_EQ(A.gauges().at("peak").value(), 7u);
}

TEST(MetricsPrimitives, RegistryJsonRoundTripsThroughParser) {
  metrics::Registry R;
  R.counter("a.b").inc(42);
  R.gauge("g").set(9);
  for (std::uint64_t V = 1; V <= 100; ++V)
    R.histogram("h").record(V);
  std::string Text = R.toJson().dump();
  Json Parsed;
  std::string Err;
  ASSERT_TRUE(Json::parse(Text, Parsed, &Err)) << Err;
  EXPECT_EQ(Parsed.dump(), Text);
  const Json *C = Parsed.find("counters");
  ASSERT_NE(C, nullptr);
  ASSERT_NE(C->find("a.b"), nullptr);
  EXPECT_EQ(C->find("a.b")->asUint(), 42u);
}

//===----------------------------------------------------------------------===//
// Whole-registry accounting identities
//===----------------------------------------------------------------------===//

TEST(MetricsInvariants, CycleBucketsAndThreadsExactOnAllWorkloads) {
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    for (jit::AnnotationLevel Level :
         {jit::AnnotationLevel::Base, jit::AnnotationLevel::Optimized}) {
      SCOPED_TRACE(W.Name + (Level == jit::AnnotationLevel::Base
                                 ? " (base)"
                                 : " (optimized)"));
      metrics::Registry Reg;
      pipeline::PipelineConfig Cfg;
      Cfg.Level = Level;
      Cfg.ExtendedPcBinning = true;
      Cfg.Metrics = &Reg;
      pipeline::Jrpm J(W.Build(), Cfg);
      pipeline::PipelineResult P = J.runAll();

      // Identity 1: the six overhead buckets tile NumCores * SpecCycles
      // exactly — no cycle is lost or double-counted.
      std::uint64_t Buckets = counterValue(Reg, "spec.cycles.useful") +
                              counterValue(Reg, "spec.cycles.fork_commit") +
                              counterValue(Reg,
                                           "spec.cycles.violation_discard") +
                              counterValue(Reg, "spec.cycles.buffer_stall") +
                              counterValue(Reg, "spec.cycles.sync_stall") +
                              counterValue(Reg, "spec.cycles.idle");
      EXPECT_EQ(Buckets, counterValue(Reg, "spec.cycles.total"));

      // ...and the total matches the engine's own loop statistics.
      std::uint64_t SpecCycles = 0;
      for (const auto &[LoopId, S] : P.TlsLoopStats)
        SpecCycles += S.SpecCycles;
      EXPECT_EQ(counterValue(Reg, "spec.cycles.total"),
                std::uint64_t(Cfg.Hw.NumCores) * SpecCycles);

      // Identity 2: every spawned thread is resolved exactly once.
      EXPECT_EQ(counterValue(Reg, "spec.threads_started"),
                counterValue(Reg, "spec.threads_committed") +
                    counterValue(Reg, "spec.threads_violated") +
                    counterValue(Reg, "spec.threads_discarded"));

      // Cross-layer consistency: the tracer and interpreter exports agree
      // with the pipeline's own result object.
      EXPECT_EQ(counterValue(Reg, "interp.plain.cycles"), P.PlainRun.Cycles);
      EXPECT_EQ(counterValue(Reg, "interp.profiled.cycles"),
                P.ProfiledRun.Cycles);
      EXPECT_EQ(counterValue(Reg, "interp.tls.cycles"), P.TlsRun.Cycles);

      // Histograms cover exactly the committed threads / loop invocations.
      auto HistCount = [&](const char *Name) -> std::uint64_t {
        auto It = Reg.histograms().find(Name);
        return It == Reg.histograms().end() ? 0 : It->second.count();
      };
      EXPECT_EQ(HistCount("spec.thread_active_cycles"),
                counterValue(Reg, "spec.threads_committed"));
      EXPECT_EQ(HistCount("spec.invocation_cycles"),
                counterValue(Reg, "spec.invocations"));
    }
  }
}

TEST(MetricsInvariants, CountersNeverDecreaseAcrossPhases) {
  const workloads::Workload *W = workloads::findWorkload("fft");
  ASSERT_NE(W, nullptr);
  metrics::Registry Reg;
  pipeline::PipelineConfig Cfg;
  Cfg.Metrics = &Reg;
  pipeline::Jrpm J(W->Build(), Cfg);

  auto Snapshot = [&] {
    std::map<std::string, std::uint64_t> S;
    for (const auto &[Name, C] : Reg.counters())
      S[Name] = C.value();
    return S;
  };
  auto ExpectMonotone = [](const std::map<std::string, std::uint64_t> &Before,
                           const std::map<std::string, std::uint64_t> &After) {
    for (const auto &[Name, V] : Before) {
      auto It = After.find(Name);
      ASSERT_NE(It, After.end()) << Name << " vanished";
      EXPECT_GE(It->second, V) << Name << " decreased";
    }
  };

  std::map<std::string, std::uint64_t> S0 = Snapshot();
  J.runPlain();
  std::map<std::string, std::uint64_t> S1 = Snapshot();
  ExpectMonotone(S0, S1);
  pipeline::Jrpm::ProfileOutcome Prof = J.profileAndSelect();
  std::map<std::string, std::uint64_t> S2 = Snapshot();
  ExpectMonotone(S1, S2);
  J.runSpeculative(Prof.Selection);
  std::map<std::string, std::uint64_t> S3 = Snapshot();
  ExpectMonotone(S2, S3);
  EXPECT_GT(S3.size(), S1.size()); // each phase adds its namespace
}

//===----------------------------------------------------------------------===//
// Sweep merge determinism
//===----------------------------------------------------------------------===//

TEST(MetricsSweep, MergedMetricsIdenticalOn1And4Threads) {
  sweep::SweepPlan Plan;
  Plan.Workloads = {"BitOps", "Huffman", "NumHeapSort"};
  Plan.Levels = {jit::AnnotationLevel::Base, jit::AnnotationLevel::Optimized};
  std::vector<sweep::SweepJob> Jobs;
  std::string Err;
  ASSERT_TRUE(Plan.expand(Jobs, &Err)) << Err;

  sweep::SweepReport R1 = sweep::runSweep(Jobs, 1);
  sweep::SweepReport R4 = sweep::runSweep(Jobs, 4);
  ASSERT_TRUE(R1.allOk());
  ASSERT_TRUE(R4.allOk());

  // Per-job registries land in preassigned slots and merge in plan order:
  // pool width must not influence a single byte of the export.
  EXPECT_EQ(sweep::mergedMetrics(R1).toJson().dump(),
            sweep::mergedMetrics(R4).toJson().dump());

  metrics::Registry Merged = sweep::mergedMetrics(R4);
  EXPECT_EQ(counterValue(Merged, "sweep.jobs"), Jobs.size());
  EXPECT_EQ(counterValue(Merged, "sweep.jobs_ok"), Jobs.size());
  // The merge is a straight sum of per-job counters.
  std::uint64_t PlainSum = 0;
  for (const sweep::SweepResult &S : R4.Results)
    PlainSum += counterValue(S.Metrics, "interp.plain.cycles");
  EXPECT_EQ(counterValue(Merged, "interp.plain.cycles"), PlainSum);
}
