//===- tests/timeline_schema_test.cpp - trace_event schema validation ------==//
//
// Validates the Chrome trace_event documents the Timeline exports: every
// "B" has a matching "E" on the same (pid, tid) track with non-decreasing
// timestamps (the stack discipline that makes spans nest instead of
// overlap), instants are self-contained, and the pid/tid assignment is a
// pure function of registration order. Checked for the two real producers:
// a full TLS pipeline run (simulated-cycle timestamps, byte-identical
// across runs) and a 4-worker sweep (wall-clock timestamps — structure and
// track naming are validated, timestamps deliberately are not).
//
//===----------------------------------------------------------------------===//

#include "jrpm/Pipeline.h"
#include "metrics/Timeline.h"
#include "sweep/SweepRunner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace jrpm;

namespace {

struct TrackState {
  std::vector<std::string> OpenSpans; // names of currently-open B events
  std::uint64_t LastTs = 0;
  bool SawTs = false;
};

/// Walks a trace_event document, enforcing the schema on every event and
/// filling per-track statistics. Fails the current test on violation
/// (void so ASSERT_* may abort it).
void validateTraceEvents(
    const Json &Root,
    std::map<std::pair<std::uint64_t, std::uint64_t>, TrackState> &Tracks) {
  const Json *Events = Root.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  for (const Json &E : Events->items()) {
    const Json *Ph = E.find("ph");
    ASSERT_NE(Ph, nullptr) << "event without ph";
    const Json *Pid = E.find("pid");
    const Json *Tid = E.find("tid");
    ASSERT_NE(Pid, nullptr);
    ASSERT_NE(Tid, nullptr);
    std::string Kind = Ph->str();
    if (Kind == "M") {
      const Json *Name = E.find("name");
      ASSERT_NE(Name, nullptr);
      EXPECT_TRUE(Name->str() == "process_name" ||
                  Name->str() == "thread_name");
      continue;
    }
    TrackState &T = Tracks[{Pid->asUint(), Tid->asUint()}];
    const Json *Ts = E.find("ts");
    ASSERT_NE(Ts, nullptr) << "non-metadata event without ts";
    // Within one track events are recorded in time order: a new event can
    // never run backwards, which is what rules out overlapping siblings.
    if (T.SawTs) {
      EXPECT_GE(Ts->asUint(), T.LastTs) << "timestamps ran backwards";
    }
    T.LastTs = Ts->asUint();
    T.SawTs = true;
    if (Kind == "B") {
      const Json *Name = E.find("name");
      ASSERT_NE(Name, nullptr) << "B event without name";
      T.OpenSpans.push_back(Name->str());
    } else if (Kind == "E") {
      ASSERT_FALSE(T.OpenSpans.empty()) << "E without matching B";
      T.OpenSpans.pop_back();
    } else if (Kind == "i") {
      EXPECT_NE(E.find("name"), nullptr);
    } else {
      ADD_FAILURE() << "unknown event phase '" << Kind << "'";
    }
  }
  for (const auto &[Key, T] : Tracks)
    EXPECT_TRUE(T.OpenSpans.empty())
        << "track (" << Key.first << "," << Key.second << ") has "
        << T.OpenSpans.size() << " unclosed span(s)";
}

/// Collects (pid, tid) -> "process/thread" names from the metadata.
std::map<std::pair<std::uint64_t, std::uint64_t>, std::string>
trackNames(const Json &Root) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> Names;
  const Json *Events = Root.find("traceEvents");
  if (!Events)
    return Names;
  std::map<std::uint64_t, std::string> Processes;
  for (const Json &E : Events->items()) {
    const Json *Ph = E.find("ph");
    const Json *Name = E.find("name");
    if (!Ph || Ph->str() != "M" || !Name)
      continue;
    const Json *Args = E.find("args");
    const Json *ArgName = Args ? Args->find("name") : nullptr;
    if (!ArgName)
      continue;
    if (Name->str() == "process_name")
      Processes[E.find("pid")->asUint()] = ArgName->str();
    else
      Names[{E.find("pid")->asUint(), E.find("tid")->asUint()}] =
          Processes[E.find("pid")->asUint()] + "/" + ArgName->str();
  }
  return Names;
}

Json pipelineTimeline(const workloads::Workload &W) {
  metrics::Timeline TL;
  pipeline::PipelineConfig Cfg;
  Cfg.ExtendedPcBinning = true;
  Cfg.Timeline = &TL;
  pipeline::Jrpm J(W.Build(), Cfg);
  J.runAll();
  return TL.toJson();
}

} // namespace

TEST(TimelineSchema, TlsPipelineSpansBalancedAndTracksStable) {
  const workloads::Workload *W = workloads::findWorkload("fft");
  ASSERT_NE(W, nullptr);
  Json Root = pipelineTimeline(*W);

  std::map<std::pair<std::uint64_t, std::uint64_t>, TrackState> Tracks;
  validateTraceEvents(Root, Tracks);
  EXPECT_FALSE(Tracks.empty());

  // Expected track layout: the three pipeline phases, the tracer's bank
  // array, one row per Hydra core and one for the engine.
  auto Names = trackNames(Root);
  std::set<std::string> Seen;
  for (const auto &[Key, N] : Names)
    Seen.insert(N);
  for (const char *Expected :
       {"jrpm/plain", "jrpm/profile", "jrpm/tls", "tracer/banks",
        "hydra/cpu0", "hydra/cpu3", "hydra/engine"})
    EXPECT_TRUE(Seen.count(Expected)) << "missing track " << Expected;

  // Simulated-cycle timestamps make the whole document a pure function of
  // the run: a second identical pipeline must export identical bytes.
  EXPECT_EQ(Root.dump(), pipelineTimeline(*W).dump());

  // Nothing was dropped by the event cap on a workload this size.
  EXPECT_EQ(Root.find("droppedEvents"), nullptr);
}

TEST(TimelineSchema, SweepWorkerSpansBalancedOn4Threads) {
  sweep::SweepPlan Plan;
  Plan.Workloads = {"BitOps", "Huffman", "NumHeapSort", "compress"};
  std::vector<sweep::SweepJob> Jobs;
  std::string Err;
  ASSERT_TRUE(Plan.expand(Jobs, &Err)) << Err;

  metrics::Timeline TL;
  sweep::SweepReport R = sweep::runSweep(Jobs, 4, &TL);
  ASSERT_TRUE(R.allOk());
  Json Root = TL.toJson();

  std::map<std::pair<std::uint64_t, std::uint64_t>, TrackState> Tracks;
  validateTraceEvents(Root, Tracks);

  // Worker tracks are registered up front in index order, so all four
  // exist (pid/tid stable) even if the pool never scheduled onto some.
  auto Names = trackNames(Root);
  ASSERT_EQ(Names.size(), 4u);
  std::uint64_t Tid = 0;
  std::uint64_t Pid = Names.begin()->first.first;
  for (const auto &[Key, N] : Names) {
    EXPECT_EQ(Key.first, Pid) << "workers span multiple pids";
    EXPECT_EQ(Key.second, Tid);
    EXPECT_EQ(N, "sweep/worker" + std::to_string(Tid));
    ++Tid;
  }

  // Every job produced exactly one span somewhere: total B events across
  // worker tracks == number of jobs.
  std::uint64_t Begins = 0;
  for (const Json &E : Root.find("traceEvents")->items()) {
    const Json *Ph = E.find("ph");
    if (Ph && Ph->str() == "B")
      ++Begins;
  }
  EXPECT_EQ(Begins, Jobs.size());
}
