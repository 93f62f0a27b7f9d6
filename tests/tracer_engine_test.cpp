//===- tests/tracer_engine_test.cpp - Comparator-bank analysis tests -------==//
//
// Drives the TraceEngine with synthetic event streams that mirror the
// paper's Figure 3 and Figure 4 walk-throughs, plus two streams whose full
// observable surface (StlStats, dynamic parents, peaks, metrics JSON) is
// pinned to values recorded from the seed per-event engine.
//
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"
#include "sim/Config.h"
#include "tracer/TraceEngine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

using namespace jrpm;
using namespace jrpm::tracer;

namespace {

sim::HydraConfig smallConfig() {
  sim::HydraConfig Cfg;
  Cfg.ComparatorBanks = 2;
  Cfg.LocalVarSlots = 4;
  return Cfg;
}

std::vector<ir::LoopAnnotationInfo>
loops(std::size_t N, std::vector<std::uint16_t> Locals = {}) {
  std::vector<ir::LoopAnnotationInfo> L(N);
  for (auto &Info : L)
    Info.AnnotatedLocals = Locals;
  return L;
}

/// A stream that exercises every engine path: events outside any loop (no
/// banks), a single traced loop (one bank), a nested traced pair (many
/// banks), a third nest over the bank budget (untraced frame), local
/// variables with shadowing reservations across two activations, an
/// unbalanced exit via return, and a readstats probe.
void driveMixedStream(TraceEngine &E) {
  std::uint64_t C = 0;
  // Outside any loop: heap traffic only feeds the store history.
  E.onHeapStore(100, ++C, 1);
  E.onHeapLoad(100, ++C, 2);
  E.onLocalStore(7, 3, ++C, 3); // no reservation: ignored
  // One traced bank.
  E.onLoopStart(0, /*activation*/ 7, ++C);
  E.onLocalStore(7, 3, ++C, 4);
  E.onHeapStore(104, ++C, 5);
  E.onLoopIter(0, ++C);
  E.onHeapLoad(104, ++C, 6);   // prev-thread arc
  E.onLocalLoad(7, 3, ++C, 7); // prev-thread local arc
  E.onLoopIter(0, ++C);
  E.onHeapLoad(104, ++C, 19); // store predates the previous thread: earlier
  // Nested traced bank with a shadowed register: reg 3 is already
  // reserved by loop 0's frame of the same activation.
  E.onLoopStart(1, 7, ++C);
  E.onLocalStore(7, 3, ++C, 8); // resolves to loop 0's slot
  E.onLocalStore(7, 4, ++C, 9); // loop 1's own slot
  E.onCallSite(41, ++C);
  E.onCallReturn(++C);
  // Third nest: over the two-bank budget, so the frame is untraced.
  E.onLoopStart(2, 9, ++C);
  E.onLocalLoad(9, 5, ++C, 10); // activation 9 has no reservations
  E.onLoopIter(2, ++C);         // untraced frame: no bank iterates
  E.onLoopIter(1, ++C);
  E.onLocalLoad(7, 4, ++C, 11); // prev-thread arc in the nested bank
  E.onHeapStore(108, ++C, 12);
  E.onLoopIter(1, ++C);
  E.onHeapLoad(108, ++C, 13); // prev-thread arc
  E.onHeapLoad(104, ++C, 14); // earlier-thread arc
  E.onLoopEnd(2, ++C);
  E.onReadStats(1, ++C);
  E.onLoopIter(0, ++C);
  E.onLoopEnd(1, ++C); // closes the nested bank
  // Unbalanced exit: return pops activation 7's remaining frame.
  E.onReturn(7);
  // Re-enter with a fresh activation to recycle released slots.
  E.onLoopStart(0, 11, ++C);
  E.onLocalStore(11, 3, ++C, 15);
  E.onLoopIter(0, ++C);
  E.onLocalLoad(11, 3, ++C, 16);
  E.onHeapStore(112, ++C, 17);
  E.onLoopIter(0, ++C);
  E.onHeapLoad(112, ++C, 18);
  E.onLoopEnd(0, ++C);
}

std::string metricsJson(const TraceEngine &E) {
  metrics::Registry R;
  E.exportMetrics(R);
  return R.toJson().dump();
}

} // namespace

TEST(TraceEngine, CriticalArcToPreviousThread) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 100);
  // Thread 0: two stores.
  E.onHeapStore(40, 110, 1);
  E.onHeapStore(44, 118, 2);
  E.onLoopIter(0, 120); // thread 1 starts
  // Thread 1 loads both; arcs 130-110=20 and 134-118=16; critical = 16.
  E.onHeapLoad(40, 130, 3);
  E.onHeapLoad(44, 134, 4);
  E.onLoopEnd(0, 140);

  const StlStats &S = E.stats(0);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Threads, 2u);
  EXPECT_EQ(S.Cycles, 40u);
  EXPECT_EQ(S.CritArcsPrev, 1u);
  EXPECT_EQ(S.CritLenPrev, 16u);
  EXPECT_EQ(S.CritArcsEarlier, 0u);
}

TEST(TraceEngine, ArcToEarlierThreadBinnedSeparately) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  E.onHeapStore(40, 5, 1); // thread 0
  E.onLoopIter(0, 10);     // thread 1
  E.onLoopIter(0, 20);     // thread 2
  E.onHeapLoad(40, 25, 2); // store was before thread 1 start: earlier bin
  E.onLoopEnd(0, 30);
  const StlStats &S = E.stats(0);
  EXPECT_EQ(S.CritArcsPrev, 0u);
  EXPECT_EQ(S.CritArcsEarlier, 1u);
  EXPECT_EQ(S.CritLenEarlier, 20u);
}

TEST(TraceEngine, SameThreadStoreLoadIsNotAnArc) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  E.onHeapStore(40, 5, 1);
  E.onHeapLoad(40, 8, 2); // same thread
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(0).CritArcsPrev, 0u);
  EXPECT_EQ(E.stats(0).CritArcsEarlier, 0u);
}

TEST(TraceEngine, PreLoopStoreIgnored) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.onHeapStore(40, 5, 1); // before the loop
  E.onLoopStart(0, 1, 10);
  E.onLoopIter(0, 20);
  E.onHeapLoad(40, 25, 2); // depends on pre-loop code, not a thread
  E.onLoopEnd(0, 30);
  EXPECT_EQ(E.stats(0).CritArcsPrev, 0u);
  EXPECT_EQ(E.stats(0).CritArcsEarlier, 0u);
}

TEST(TraceEngine, LocalVariableArcs) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1, {/*reg*/ 7}));
  E.onLoopStart(0, /*activation*/ 9, 0);
  E.onLocalStore(9, 7, 4, 1);
  E.onLoopIter(0, 10);
  E.onLocalLoad(9, 7, 12, 2); // arc of length 8, like Figure 3's in_p
  E.onLoopEnd(0, 20);
  EXPECT_EQ(E.stats(0).CritArcsPrev, 1u);
  EXPECT_EQ(E.stats(0).CritLenPrev, 8u);
}

TEST(TraceEngine, LocalsOfOtherActivationsIgnored) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1, {7}));
  E.onLoopStart(0, 9, 0);
  E.onLocalStore(42, 7, 4, 1); // different activation: no slot
  E.onLoopIter(0, 10);
  E.onLocalLoad(42, 7, 12, 2);
  E.onLoopEnd(0, 20);
  EXPECT_EQ(E.stats(0).CritArcsPrev, 0u);
}

TEST(TraceEngine, OverflowCountsThreadsExceedingStoreLimit) {
  sim::HydraConfig Cfg;
  Cfg.SpecStoreLines = 2;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  // Thread 0 writes three distinct lines (words 0, 4, 8).
  E.onHeapStore(0, 1, 1);
  E.onHeapStore(4, 2, 1);
  E.onHeapStore(8, 3, 1);
  E.onLoopIter(0, 10);
  // Thread 1 writes a single line twice: no overflow.
  E.onHeapStore(16, 11, 1);
  E.onHeapStore(17, 12, 1);
  E.onLoopEnd(0, 20);
  const StlStats &S = E.stats(0);
  EXPECT_EQ(S.Threads, 2u);
  EXPECT_EQ(S.OverflowThreads, 1u);
  EXPECT_EQ(S.MaxStoreLines, 3u);
}

TEST(TraceEngine, OverflowCountsLoadLines) {
  sim::HydraConfig Cfg;
  Cfg.SpecLoadLines = 2;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  E.onHeapLoad(0, 1, 1);
  E.onHeapLoad(4, 2, 1);
  E.onHeapLoad(8, 3, 1);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(0).OverflowThreads, 1u);
  EXPECT_EQ(E.stats(0).MaxLoadLines, 3u);
}

TEST(TraceEngine, RepeatedLineInSameThreadCountsOnce) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  E.onHeapLoad(0, 1, 1);
  E.onHeapLoad(1, 2, 1); // same line
  E.onHeapLoad(2, 3, 1);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(0).MaxLoadLines, 1u);
}

TEST(TraceEngine, BankExhaustionSkipsDeepLoops) {
  sim::HydraConfig Cfg = smallConfig(); // 2 banks
  TraceEngine E(Cfg, loops(3));
  E.onLoopStart(0, 1, 0);
  E.onLoopStart(1, 1, 1);
  E.onLoopStart(2, 1, 2); // no bank left
  E.onLoopIter(2, 5);
  E.onLoopEnd(2, 6);
  E.onLoopEnd(1, 8);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(2).Entries, 0u);
  EXPECT_EQ(E.stats(2).UntracedEntries, 1u);
  EXPECT_EQ(E.stats(0).Entries, 1u);
  EXPECT_EQ(E.peakBanksInUse(), 2u);
}

TEST(TraceEngine, SlotExhaustionSkipsLoop) {
  sim::HydraConfig Cfg = smallConfig(); // 4 local slots
  TraceEngine E(Cfg, loops(2, {1, 2, 3}));
  E.onLoopStart(0, 1, 0); // reserves 3 slots
  E.onLoopStart(1, 2, 1); // different activation: needs 3 more, only 1 free
  E.onLoopEnd(1, 5);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(0).Entries, 1u);
  EXPECT_EQ(E.stats(1).UntracedEntries, 1u);
}

TEST(TraceEngine, SharedLocalSlotAcrossNestedLoops) {
  // The inner loop annotates the same register in the same activation; it
  // must not reserve a second slot.
  sim::HydraConfig Cfg = smallConfig();
  TraceEngine E(Cfg, loops(2, {1, 2, 3}));
  E.onLoopStart(0, 1, 0);
  E.onLoopStart(1, 1, 1); // same activation: registers already covered
  EXPECT_EQ(E.peakLocalSlots(), 3u);
  E.onLoopEnd(1, 5);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(1).Entries, 1u);
}

TEST(TraceEngine, DisableAfterThreadsFreesBank) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.setDisableLoopAfterThreads(2);
  for (int Entry = 0; Entry < 3; ++Entry) {
    std::uint64_t T = 100 * Entry;
    E.onLoopStart(0, 1, T);
    E.onLoopIter(0, T + 10);
    E.onLoopEnd(0, T + 20);
  }
  // Two threads per traced entry; after the first entry the count (2)
  // reaches the threshold, so later entries are untraced.
  EXPECT_EQ(E.stats(0).Threads, 2u);
  EXPECT_EQ(E.stats(0).UntracedEntries, 2u);
}

TEST(TraceEngine, DynamicParentsFollowNesting) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(3));
  E.onLoopStart(0, 1, 0);
  E.onLoopStart(1, 1, 1);
  E.onLoopEnd(1, 5);
  E.onLoopEnd(0, 10);
  E.onLoopStart(2, 1, 20);
  E.onLoopEnd(2, 25);
  std::vector<int> P = E.dynamicParents();
  EXPECT_EQ(P[0], -1);
  EXPECT_EQ(P[1], 0);
  EXPECT_EQ(P[2], -1);
}

TEST(TraceEngine, ReturnClosesOpenBanks) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(2));
  E.onLoopStart(0, 5, 0);
  E.onLoopStart(1, 5, 10);
  E.onHeapLoad(0, 15, 1);
  E.onReturn(5); // both banks belong to activation 5
  // Stats were finalized; re-entering works normally.
  EXPECT_EQ(E.stats(0).Entries, 1u);
  EXPECT_EQ(E.stats(1).Entries, 1u);
  E.onLoopStart(0, 6, 20);
  E.onLoopEnd(0, 30);
  EXPECT_EQ(E.stats(0).Entries, 2u);
}

TEST(TraceEngine, MismatchedELoopIgnored) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(2));
  E.onLoopStart(0, 1, 0);
  E.onLoopEnd(1, 5); // loop 1 never started: must not pop loop 0
  E.onLoopIter(0, 8);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(0).Threads, 2u);
  EXPECT_EQ(E.stats(1).Entries, 0u);
}

TEST(TraceEngine, PcBinningRecordsCriticalArcSites) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1), /*ExtendedPcBinning=*/true);
  E.onLoopStart(0, 1, 0);
  E.onHeapStore(40, 4, 1);
  E.onHeapStore(44, 6, 1);
  E.onLoopIter(0, 10);
  E.onHeapLoad(40, 12, /*Pc=*/101); // len 8
  E.onHeapLoad(44, 18, /*Pc=*/102); // len 12: not critical
  E.onLoopEnd(0, 20);
  const StlStats &S = E.stats(0);
  ASSERT_EQ(S.PcBins.size(), 1u);
  EXPECT_EQ(S.PcBins.begin()->first, 101);
  EXPECT_EQ(S.PcBins.begin()->second.CriticalArcs, 1u);
  EXPECT_EQ(S.PcBins.begin()->second.AccumulatedLength, 8u);
}

TEST(TraceEngine, HistoryFifoLimitsArcDetection) {
  sim::HydraConfig Cfg;
  Cfg.HeapTimestampFifoLines = 2;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  E.onHeapStore(0, 1, 1);   // line 0
  E.onHeapStore(16, 2, 1);  // line 4
  E.onHeapStore(32, 3, 1);  // line 8 -> line 0 evicted
  E.onLoopIter(0, 10);
  E.onHeapLoad(0, 12, 2); // history lost: no arc
  E.onLoopEnd(0, 20);
  EXPECT_EQ(E.stats(0).CritArcsPrev, 0u);
}

TEST(TraceEngine, SlotsReleasedInStackOrderAcrossNesting) {
  // Three nested loops each reserving locals; the eloop order releases
  // them innermost-first and the file ends empty (reusable).
  sim::HydraConfig Cfg;
  Cfg.LocalVarSlots = 8;
  std::vector<ir::LoopAnnotationInfo> Infos(3);
  Infos[0].AnnotatedLocals = {1, 2};
  Infos[1].AnnotatedLocals = {3};
  Infos[2].AnnotatedLocals = {4, 5, 6};
  TraceEngine E(Cfg, Infos);
  for (int Round = 0; Round < 3; ++Round) {
    std::uint64_t T = Round * 100;
    E.onLoopStart(0, 1, T);
    E.onLoopStart(1, 1, T + 1);
    E.onLoopStart(2, 1, T + 2);
    E.onLoopEnd(2, T + 10);
    E.onLoopEnd(1, T + 20);
    E.onLoopEnd(0, T + 30);
  }
  EXPECT_EQ(E.peakLocalSlots(), 6u);
  EXPECT_EQ(E.stats(0).Entries, 3u);
  EXPECT_EQ(E.stats(2).Entries, 3u);
}

TEST(TraceEngine, InterleavedEnginesStayIndependent) {
  // Two engines with different hardware configs, driven in lockstep from
  // interleaved event streams, must each produce exactly the stats they
  // produce when driven alone. This is the reentrancy contract the sweep
  // pool relies on: no shared mutable state between engine instances.
  using Ev = void (*)(TraceEngine &, std::uint64_t);
  const Ev Events[] = {
      [](TraceEngine &E, std::uint64_t B) { E.onLoopStart(0, 1, B); },
      [](TraceEngine &E, std::uint64_t B) { E.onHeapStore(40, B + 10, 1); },
      // Second store on a different line: with a 1-line FIFO it evicts the
      // line-10 timestamp, so the load below finds no arc there.
      [](TraceEngine &E, std::uint64_t B) { E.onHeapStore(44, B + 18, 2); },
      [](TraceEngine &E, std::uint64_t B) { E.onLoopIter(0, B + 20); },
      [](TraceEngine &E, std::uint64_t B) { E.onHeapLoad(40, B + 30, 3); },
      [](TraceEngine &E, std::uint64_t B) { E.onLoopEnd(0, B + 40); },
  };
  sim::HydraConfig CfgA; // defaults
  sim::HydraConfig CfgB; // starved history: loses the line-10 store
  CfgB.HeapTimestampFifoLines = 1;

  TraceEngine RefA(CfgA, loops(1)), RefB(CfgB, loops(1));
  for (Ev E : Events)
    E(RefA, 100);
  for (Ev E : Events)
    E(RefB, 500);

  TraceEngine A(CfgA, loops(1)), B(CfgB, loops(1));
  for (Ev E : Events) {
    E(A, 100);
    E(B, 500);
  }

  for (auto [Got, Want] : {std::pair{&A, &RefA}, std::pair{&B, &RefB}}) {
    const StlStats &G = Got->stats(0), &W = Want->stats(0);
    EXPECT_EQ(G.Entries, W.Entries);
    EXPECT_EQ(G.Threads, W.Threads);
    EXPECT_EQ(G.Cycles, W.Cycles);
    EXPECT_EQ(G.CritArcsPrev, W.CritArcsPrev);
    EXPECT_EQ(G.CritLenPrev, W.CritLenPrev);
    EXPECT_EQ(G.CritArcsEarlier, W.CritArcsEarlier);
    EXPECT_EQ(Got->peakBanksInUse(), Want->peakBanksInUse());
  }
  // The starved-history engine really did behave differently from the
  // default one, so the interleaving mixed two distinct analyses.
  EXPECT_NE(A.stats(0).CritArcsPrev, B.stats(0).CritArcsPrev);
}

TEST(TraceEngine, ConfigHeldByValueSurvivesCaller) {
  // Regression for the sweep reentrancy audit: the engine used to hold its
  // HydraConfig by reference, dangling when a sweep job built the config in
  // a temporary scope. It must copy.
  std::unique_ptr<TraceEngine> E;
  {
    sim::HydraConfig Cfg;
    Cfg.HeapTimestampFifoLines = 2;
    E = std::make_unique<TraceEngine>(Cfg, loops(1));
  } // Cfg destroyed; the engine must keep operating on its own copy
  E->onLoopStart(0, 1, 0);
  E->onHeapStore(0, 1, 1);
  E->onHeapStore(16, 2, 1);
  E->onHeapStore(32, 3, 1); // line 0 evicted from the 2-line FIFO
  E->onLoopIter(0, 10);
  E->onHeapLoad(0, 12, 2); // history lost: no arc
  E->onLoopEnd(0, 20);
  EXPECT_EQ(E->stats(0).CritArcsPrev, 0u);
}

TEST(TraceEngine, OutOfOrderELoopClosesInnerBanks) {
  // An eloop for the outer loop with the inner still open (a return-like
  // unwinding) must close the inner bank too and keep slot accounting
  // consistent for later entries.
  sim::HydraConfig Cfg;
  std::vector<ir::LoopAnnotationInfo> Infos(2);
  Infos[0].AnnotatedLocals = {1};
  Infos[1].AnnotatedLocals = {2};
  TraceEngine E(Cfg, Infos);
  E.onLoopStart(0, 1, 0);
  E.onLoopStart(1, 1, 5);
  E.onLoopEnd(0, 20); // inner (1) never closed explicitly
  EXPECT_EQ(E.stats(1).Entries, 1u);
  // The slot file must be empty again: a fresh deep nest fits.
  E.onLoopStart(0, 2, 100);
  E.onLoopStart(1, 2, 105);
  E.onLoopEnd(1, 110);
  E.onLoopEnd(0, 120);
  EXPECT_EQ(E.stats(0).Entries, 2u);
  EXPECT_EQ(E.stats(1).Entries, 2u);
}

TEST(TraceEngine, MixedStreamMatchesPinnedResults) {
  TraceEngine E(smallConfig(), loops(3, {3, 4}), /*ExtendedPcBinning=*/true);
  driveMixedStream(E);

  EXPECT_EQ(E.stats(0),
            (StlStats{.Cycles = 32,
                      .Threads = 7,
                      .Entries = 2,
                      .CritArcsPrev = 3,
                      .CritLenPrev = 6,
                      .CritArcsEarlier = 1,
                      .CritLenEarlier = 5,
                      .MaxLoadLines = 2,
                      .MaxStoreLines = 1,
                      .PcBins = {{6, {1, 2}},
                                 {16, {1, 2}},
                                 {18, {1, 2}},
                                 {19, {1, 5}}}}));
  EXPECT_EQ(E.stats(1), (StlStats{.Cycles = 17,
                                  .Threads = 3,
                                  .Entries = 1,
                                  .CritArcsPrev = 2,
                                  .CritLenPrev = 9,
                                  .MaxLoadLines = 2,
                                  .MaxStoreLines = 1,
                                  .PcBins = {{11, {1, 7}}, {13, {1, 2}}}}));
  EXPECT_EQ(E.stats(2), (StlStats{.UntracedEntries = 1, .PcBins = {}}));
  EXPECT_EQ(E.dynamicParents(), (std::vector<int>{-1, 0, 1}));
  EXPECT_EQ(E.peakBanksInUse(), 2u);
  EXPECT_EQ(E.peakLocalSlots(), 2u);
  EXPECT_EQ(E.peakDynamicNest(), 3u);
  EXPECT_EQ(metricsJson(E), R"({
  "counters": {
    "tracer.crit_arcs_earlier": 1,
    "tracer.crit_arcs_prev": 5,
    "tracer.crit_len_earlier": 5,
    "tracer.crit_len_prev": 15,
    "tracer.entries": 3,
    "tracer.events.heap_load": 6,
    "tracer.events.heap_store": 4,
    "tracer.events.local_load": 4,
    "tracer.events.local_store": 5,
    "tracer.events.loop_end": 3,
    "tracer.events.loop_iter": 8,
    "tracer.events.loop_start": 4,
    "tracer.events.read_stats": 1,
    "tracer.events.return": 1,
    "tracer.heap_ts.evictions": 0,
    "tracer.line_table.evictions": 0,
    "tracer.local_ts.release_errors": 0,
    "tracer.overflow_threads": 0,
    "tracer.threads": 10,
    "tracer.untraced_entries": 1
  },
  "gauges": {
    "tracer.heap_ts.peak_occupancy": 4,
    "tracer.line_table.peak_occupancy": 6,
    "tracer.peak_banks": 2,
    "tracer.peak_local_slots": 2,
    "tracer.peak_nest": 3
  },
  "histograms": {
    "tracer.thread_size_cycles": {
      "count": 10,
      "max": 18,
      "mean": 4.9000000000000004,
      "min": 1,
      "p50": 3,
      "p95": 18,
      "p99": 18,
      "sum": 49
    }
  },
  "schema": "jrpm-metrics-v1"
}
)");
}

TEST(TraceEngine, DisabledLoopMatchesPinnedResultsAndEoiCharges) {
  // Two entries of a loop whose tracing is disabled after three threads:
  // the first entry stays traced to its end, the second is untraced.
  sim::HydraConfig Cfg = smallConfig();
  Cfg.EoiCost = 3;
  TraceEngine E(Cfg, loops(1), /*ExtendedPcBinning=*/true);
  E.setDisableLoopAfterThreads(3);
  std::uint64_t C = 0;
  for (int Entry = 0; Entry < 2; ++Entry) {
    const bool Traced = Entry == 0;
    EXPECT_EQ(E.onLoopStart(0, 7, ++C), Traced ? Cfg.SLoopCost - 1 : 0);
    for (int I = 0; I < 6; ++I) {
      E.onHeapStore(100, ++C, 1);
      // A traced loop's eoi pays the coprocessor interaction; a disabled
      // one is a nop.
      EXPECT_EQ(E.onLoopIter(0, ++C), Traced ? Cfg.EoiCost - 1 : 0)
          << "entry " << Entry << " iteration " << I;
      E.onHeapLoad(100, ++C, 2);
    }
    EXPECT_EQ(E.onLoopEnd(0, ++C), 0u); // disabled by the time it closes
  }

  EXPECT_EQ(E.stats(0), (StlStats{.Cycles = 19,
                                  .Threads = 7,
                                  .Entries = 1,
                                  .UntracedEntries = 1,
                                  .CritArcsPrev = 6,
                                  .CritLenPrev = 12,
                                  .MaxLoadLines = 1,
                                  .MaxStoreLines = 1,
                                  .PcBins = {{2, {6, 12}}}}));
  EXPECT_EQ(E.dynamicParents(), (std::vector<int>{-1}));
  EXPECT_EQ(E.peakBanksInUse(), 1u);
  EXPECT_EQ(E.peakLocalSlots(), 0u);
  EXPECT_EQ(E.peakDynamicNest(), 1u);
  EXPECT_EQ(metricsJson(E), R"({
  "counters": {
    "tracer.crit_arcs_earlier": 0,
    "tracer.crit_arcs_prev": 6,
    "tracer.crit_len_earlier": 0,
    "tracer.crit_len_prev": 12,
    "tracer.entries": 1,
    "tracer.events.heap_load": 12,
    "tracer.events.heap_store": 12,
    "tracer.events.local_load": 0,
    "tracer.events.local_store": 0,
    "tracer.events.loop_end": 2,
    "tracer.events.loop_iter": 12,
    "tracer.events.loop_start": 2,
    "tracer.events.read_stats": 0,
    "tracer.events.return": 0,
    "tracer.heap_ts.evictions": 0,
    "tracer.line_table.evictions": 0,
    "tracer.local_ts.release_errors": 0,
    "tracer.overflow_threads": 0,
    "tracer.threads": 7,
    "tracer.untraced_entries": 1
  },
  "gauges": {
    "tracer.heap_ts.peak_occupancy": 1,
    "tracer.line_table.peak_occupancy": 2,
    "tracer.peak_banks": 1,
    "tracer.peak_local_slots": 0,
    "tracer.peak_nest": 1
  },
  "histograms": {
    "tracer.thread_size_cycles": {
      "count": 7,
      "max": 3,
      "mean": 2.7142857142857144,
      "min": 2,
      "p50": 3,
      "p95": 3,
      "p99": 3,
      "sum": 19
    }
  },
  "schema": "jrpm-metrics-v1"
}
)");
}
