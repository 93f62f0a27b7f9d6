//===- tests/trace_replay_test.cpp - Record/replay equivalence -------------==//
//
// The trace subsystem's core contract: recording an annotated profiling
// run and replaying it into a fresh TraceEngine must reproduce the live
// run's SelectionResult bit-for-bit — per-loop statistics, Equation 1
// estimates, chosen STLs, and predicted speedups — for every registry
// workload at both annotation levels.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "jrpm/Pipeline.h"
#include "trace/Dump.h"
#include "trace/Replay.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace jrpm;

namespace {

/// One scratch .jtrace inside a ScopedTempDir.
class TempTrace {
public:
  explicit TempTrace(const std::string &Tag)
      : Dir("jrpm-trace-test"), P(Dir.file(Tag + ".jtrace")) {}
  const std::string &path() const { return P; }

private:
  testutil::ScopedTempDir Dir;
  std::string P;
};

pipeline::PipelineConfig captureConfig(const workloads::Workload &W,
                                       jit::AnnotationLevel Level,
                                       const std::string &Path) {
  pipeline::PipelineConfig Cfg;
  Cfg.Level = Level;
  Cfg.ExtendedPcBinning = true;
  Cfg.WorkloadName = W.Name;
  Cfg.RecordTracePath = Path;
  return Cfg;
}

} // namespace

TEST(TraceReplay, SelectionBitIdenticalOnAllWorkloads) {
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    for (jit::AnnotationLevel Level :
         {jit::AnnotationLevel::Base, jit::AnnotationLevel::Optimized}) {
      const char *LevelName =
          Level == jit::AnnotationLevel::Base ? "base" : "opt";
      SCOPED_TRACE(W.Name + " (" + LevelName + ")");
      TempTrace Tmp(W.Name + "-" + LevelName);

      pipeline::PipelineConfig Cfg = captureConfig(W, Level, Tmp.path());
      pipeline::Jrpm J(W.Build(), Cfg);
      pipeline::Jrpm::ProfileOutcome Live = J.profileAndSelect();

      pipeline::PipelineConfig ReplayCfg = Cfg;
      ReplayCfg.RecordTracePath.clear();
      pipeline::Jrpm::ProfileOutcome Replayed =
          pipeline::selectFromTrace(Tmp.path(), ReplayCfg);

      // Bit-identical selection: exact equality, doubles included.
      EXPECT_TRUE(Live.Selection == Replayed.Selection);
      // The recorded run itself round-trips through the footer.
      EXPECT_EQ(Live.Run.Cycles, Replayed.Run.Cycles);
      EXPECT_EQ(Live.Run.Instructions, Replayed.Run.Instructions);
      EXPECT_EQ(Live.Run.ReturnValue, Replayed.Run.ReturnValue);
      EXPECT_EQ(Live.Run.Loads, Replayed.Run.Loads);
      EXPECT_EQ(Live.Run.Stores, Replayed.Run.Stores);
      EXPECT_EQ(Live.Run.L1Misses, Replayed.Run.L1Misses);
      // Hardware occupancy peaks come out of the same engine state.
      EXPECT_EQ(Live.PeakBanksInUse, Replayed.PeakBanksInUse);
      EXPECT_EQ(Live.PeakLocalSlots, Replayed.PeakLocalSlots);
      EXPECT_EQ(Live.PeakDynamicNest, Replayed.PeakDynamicNest);
    }
  }
}

TEST(TraceReplay, ReplayViaPipelineConfigSkipsInterpretation) {
  const workloads::Workload *W = workloads::findWorkload("Huffman");
  ASSERT_NE(W, nullptr);
  TempTrace Tmp("pipeline-replay");

  pipeline::PipelineConfig Cfg =
      captureConfig(*W, jit::AnnotationLevel::Optimized, Tmp.path());
  pipeline::Jrpm Recorder(W->Build(), Cfg);
  auto Live = Recorder.profileAndSelect();

  pipeline::PipelineConfig ReplayCfg = Cfg;
  ReplayCfg.RecordTracePath.clear();
  ReplayCfg.ReplayTracePath = Tmp.path();
  pipeline::Jrpm Replayer(W->Build(), ReplayCfg);
  auto Replayed = Replayer.profileAndSelect();

  EXPECT_TRUE(Live.Selection == Replayed.Selection);
  EXPECT_EQ(Replayer.lastTracer(), nullptr);

  // The replayed selection still drives speculative execution (steps 4-5).
  auto Tls = Replayer.runSpeculative(Replayed.Selection);
  auto Plain = Replayer.runPlain();
  EXPECT_EQ(Tls.Run.ReturnValue, Plain.ReturnValue);
}

TEST(TraceReplay, HeaderAndFooterDescribeTheCapture) {
  const workloads::Workload *W = workloads::findWorkload("BitOps");
  ASSERT_NE(W, nullptr);
  TempTrace Tmp("header");

  pipeline::PipelineConfig Cfg =
      captureConfig(*W, jit::AnnotationLevel::Optimized, Tmp.path());
  Cfg.Hw.ComparatorBanks = 6;
  Cfg.DisableLoopAfterThreads = 1234;
  pipeline::Jrpm J(W->Build(), Cfg);
  auto Live = J.profileAndSelect();

  trace::Reader R(Tmp.path());
  EXPECT_EQ(R.header().WorkloadName, "BitOps");
  EXPECT_EQ(R.header().AnnotationLevel, 1);
  EXPECT_TRUE(R.header().ExtendedPcBinning);
  EXPECT_EQ(R.header().DisableLoopAfterThreads, 1234u);
  EXPECT_EQ(R.header().Hw.ComparatorBanks, 6u);
  EXPECT_EQ(R.header().LoopLocals.size(), Live.Selection.Loops.size());

  // O(1) footer (no events decoded yet), then stream and cross-check.
  const trace::TraceFooter F = R.footer();
  EXPECT_EQ(F.Run.Cycles, Live.Run.Cycles);
  std::uint64_t Streamed = 0;
  trace::Event E;
  while (R.next(E))
    ++Streamed;
  EXPECT_EQ(Streamed, F.TotalEvents);
  EXPECT_EQ(R.eventsRead(), F.TotalEvents);
}

TEST(TraceReplay, RecordingDoesNotPerturbTheRun) {
  const workloads::Workload *W = workloads::findWorkload("Assignment");
  ASSERT_NE(W, nullptr);
  TempTrace Tmp("unperturbed");

  pipeline::PipelineConfig Plain;
  Plain.ExtendedPcBinning = true;
  pipeline::Jrpm JPlain(W->Build(), Plain);
  auto Unrecorded = JPlain.profileAndSelect();

  pipeline::PipelineConfig Rec =
      captureConfig(*W, jit::AnnotationLevel::Optimized, Tmp.path());
  pipeline::Jrpm JRec(W->Build(), Rec);
  auto Recorded = JRec.profileAndSelect();

  EXPECT_EQ(Unrecorded.Run.Cycles, Recorded.Run.Cycles);
  EXPECT_TRUE(Unrecorded.Selection == Recorded.Selection);
}

TEST(TraceReplay, ConfigOverrideReplaysUnderNewHardware) {
  const workloads::Workload *W = workloads::findWorkload("jess");
  ASSERT_NE(W, nullptr);
  TempTrace Tmp("override");

  pipeline::PipelineConfig Cfg =
      captureConfig(*W, jit::AnnotationLevel::Optimized, Tmp.path());
  pipeline::Jrpm J(W->Build(), Cfg);
  J.profileAndSelect();

  // One trace, several analysis configurations.
  trace::Reader R1(Tmp.path());
  trace::ReplayConfig Narrow = trace::recordedConfig(R1.header());
  Narrow.Hw.ComparatorBanks = 1;
  trace::ReplayOutcome NarrowOut = trace::selectFromTrace(R1, Narrow);

  trace::Reader R2(Tmp.path());
  trace::ReplayOutcome WideOut = trace::selectFromTrace(R2);

  EXPECT_LE(NarrowOut.PeakBanksInUse, 1u);
  EXPECT_GE(WideOut.PeakBanksInUse, NarrowOut.PeakBanksInUse);
  EXPECT_EQ(NarrowOut.EventsReplayed, WideOut.EventsReplayed);
  // Starving the comparator array must cost traced entries somewhere.
  std::uint64_t NarrowUntraced = 0, WideUntraced = 0;
  for (const auto &Rep : NarrowOut.Selection.Loops)
    NarrowUntraced += Rep.Stats.UntracedEntries;
  for (const auto &Rep : WideOut.Selection.Loops)
    WideUntraced += Rep.Stats.UntracedEntries;
  EXPECT_GE(NarrowUntraced, WideUntraced);
}

TEST(TraceReplay, DiffIdentifiesIdenticalAndDivergentTraces) {
  const workloads::Workload *W = workloads::findWorkload("BitOps");
  ASSERT_NE(W, nullptr);
  TempTrace A("diff-a"), B("diff-b"), C("diff-c");

  {
    pipeline::Jrpm J(W->Build(), captureConfig(
                                     *W, jit::AnnotationLevel::Optimized,
                                     A.path()));
    J.profileAndSelect();
  }
  {
    pipeline::Jrpm J(W->Build(), captureConfig(
                                     *W, jit::AnnotationLevel::Optimized,
                                     B.path()));
    J.profileAndSelect();
  }
  {
    pipeline::Jrpm J(W->Build(),
                     captureConfig(*W, jit::AnnotationLevel::Base, C.path()));
    J.profileAndSelect();
  }

  {
    trace::Reader RA(A.path()), RB(B.path());
    trace::DiffResult D = trace::diffTraces(RA, RB);
    EXPECT_TRUE(D.Identical) << D.Detail;
  }
  {
    trace::Reader RA(A.path()), RC(C.path());
    trace::DiffResult D = trace::diffTraces(RA, RC);
    EXPECT_FALSE(D.Identical);
    EXPECT_FALSE(D.Detail.empty());
  }
}

TEST(TraceReplay, DumpUsesTheSharedFormatter) {
  const workloads::Workload *W = workloads::findWorkload("BitOps");
  ASSERT_NE(W, nullptr);
  TempTrace Tmp("dump");
  pipeline::Jrpm J(W->Build(), captureConfig(
                                   *W, jit::AnnotationLevel::Optimized,
                                   Tmp.path()));
  J.profileAndSelect();

  trace::Reader R(Tmp.path());
  trace::Event E;
  ASSERT_TRUE(R.next(E));
  std::string Line = trace::formatEvent(E);
  EXPECT_NE(Line.find(trace::eventKindName(E.Kind)), std::string::npos);

  std::FILE *Null = std::fopen("/dev/null", "w");
  ASSERT_NE(Null, nullptr);
  trace::Reader R2(Tmp.path());
  EXPECT_EQ(trace::dumpTrace(R2, Null, 10), 10u);
  std::fclose(Null);
}
