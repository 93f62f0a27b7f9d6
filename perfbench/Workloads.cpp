//===- perfbench/Workloads.cpp - registry, tracer-sweep and corpus ---------==//
//
//   registry      one job per Table-6 workload: the five pipeline::Jrpm
//                 steps (analysis, plain run, profile + select, TLS run).
//   tracer-sweep  set-up records every registry workload's event stream
//                 once; one job replays one trace::CachedTrace under one
//                 point of a tracer-geometry grid (no interpreter, no Hydra).
//   corpus        one job instantiates one template variant and runs the
//                 corpus::runOracles stack on it. The seed picks the
//                 variants; for the other two it only permutes job order.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Candidates.h"
#include "corpus/Oracles.h"
#include "corpus/Template.h"
#include "corpus/Variant.h"
#include "hydra/TlsEngine.h"
#include "interp/EventBlock.h"
#include "interp/Machine.h"
#include "jit/Annotator.h"
#include "jit/TlsPlan.h"
#include "jrpm/Pipeline.h"
#include "trace/Reader.h"
#include "trace/Replay.h"
#include "tracer/Selector.h"
#include "tracer/TraceEngine.h"
#include "workloads/Workload.h"

#include <filesystem>
#include <set>

using namespace jrpm;

namespace perfbench {

std::uint64_t registryDigest(const metrics::Registry &R) {
  Digest D;
  for (const auto &[Name, C] : R.counters()) {
    D.add(Name);
    D.add(C.value());
  }
  for (const auto &[Name, G] : R.gauges()) {
    D.add(Name);
    D.add(G.value());
  }
  for (const auto &[Name, H] : R.histograms()) {
    D.add(Name);
    D.add(H.count());
    D.add(H.sum());
    D.add(H.min());
    D.add(H.max());
  }
  return D.value();
}

namespace {

void addRun(Digest &D, const interp::RunResult &R) {
  D.add(R.Cycles);
  D.add(R.Instructions);
  D.add(R.ReturnValue);
  D.add(R.Loads);
  D.add(R.Stores);
  D.add(R.L1Misses);
}

void countCandidates(const analysis::ModuleAnalysis &MA, JobContext &Ctx) {
  if (!Ctx.Counts)
    return;
  for (const analysis::CandidateStl &C : MA.candidates()) {
    ++Ctx.Counts->AnalysisCandidates;
    Ctx.Counts->AnalysisRejected += C.Rejected;
  }
}

double speedup(std::uint64_t Base, std::uint64_t Tls) {
  return Tls ? static_cast<double>(Base) / static_cast<double>(Tls) : 1.0;
}

// --- registry --------------------------------------------------------------

class RegistryWorkload : public Workload {
public:
  void setup(SpanLog &Spans) override {
    Modules.clear();
    for (const workloads::Workload &W : workloads::allWorkloads()) {
      Scope S(Spans, "frontend", SetupJob);
      Modules.push_back(W.Build());
    }
  }
  std::size_t jobs() const override { return Modules.size(); }
  std::string expectedKey() const override { return "registry"; }

  JobResult run(std::size_t I, bool Traced, JobContext &Ctx) override {
    pipeline::PipelineConfig Cfg;
    metrics::Registry Reg;
    if (Traced)
      Cfg.Metrics = &Reg;
    std::unique_ptr<pipeline::Jrpm> J;
    {
      Scope S(Ctx.Spans, "analysis", Ctx.Job);
      J = std::make_unique<pipeline::Jrpm>(Modules[I], Cfg);
    }
    interp::RunResult Plain;
    {
      Scope S(Ctx.Spans, "interp", Ctx.Job);
      Plain = J->runPlain();
    }
    pipeline::Jrpm::ProfileOutcome Prof;
    {
      Scope S(Ctx.Spans, "interp.profiled", Ctx.Job);
      Prof = J->profileAndSelect();
    }
    pipeline::Jrpm::TlsOutcome Tls;
    {
      Scope S(Ctx.Spans, "hydra", Ctx.Job);
      Tls = J->runSpeculative(Prof.Selection);
    }

    JobResult R;
    R.Ok = Tls.Run.ReturnValue == Plain.ReturnValue &&
           Prof.Run.ReturnValue == Plain.ReturnValue;
    Digest D;
    addRun(D, Plain);
    addRun(D, Prof.Run);
    addRun(D, Tls.Run);
    D.add(tracer::selectionDigest(Prof.Selection));
    D.add(std::uint64_t(Prof.PeakBanksInUse));
    D.add(std::uint64_t(Prof.PeakLocalSlots));
    D.add(std::uint64_t(Prof.PeakDynamicNest));
    for (const auto &[Loop, St] : Tls.LoopStats) {
      D.add(std::uint64_t(Loop));
      for (std::uint64_t V :
           {St.Invocations, St.CommittedThreads, St.Violations, St.Restarts,
            St.OverflowStalls, St.SyncStalls, St.SpecCycles,
            St.ThreadsStarted, St.ThreadsExited, St.ThreadsDiscarded,
            St.UsefulCycles, St.ForkCommitCycles, St.ViolationDiscardCycles,
            St.BufferStallCycles, St.SyncStallCycles, St.IdleCycles})
        D.add(V);
    }
    R.Digest = D.value();
    R.Speedup = R.Reference = speedup(Plain.Cycles, Tls.Run.Cycles);
    R.Predicted = Prof.Selection.PredictedSpeedup;
    if (Traced) {
      R.CounterDigest = registryDigest(Reg);
      Ctx.Metrics->merge(Reg);
      countCandidates(J->moduleAnalysis(), Ctx);
      for (std::uint32_t Loop : Prof.Selection.SelectedLoops)
        Ctx.Counts->JitPlans += !J->moduleAnalysis().candidate(Loop).Rejected;
    }
    return R;
  }

private:
  std::vector<ir::Module> Modules;
};

// --- tracer-sweep ----------------------------------------------------------

struct Geometry {
  std::uint32_t Banks;
  std::uint32_t HistoryLines;
};
// Comparator banks x heap-store history (Sections 5.2-5.3). {8, 192} is
// the paper's hardware, i.e. the capture configuration.
constexpr Geometry Grid[] = {{1, 48}, {1, 192}, {1, 768}, {2, 48}, {2, 192},
                             {2, 768}, {8, 48}, {8, 192}, {8, 768}};
constexpr std::size_t GridSize = sizeof(Grid) / sizeof(Grid[0]);

class TracerSweepWorkload : public Workload {
public:
  explicit TracerSweepWorkload(std::string Dir) : Dir(std::move(Dir)) {}

  void setup(SpanLog &Spans) override {
    Traces.clear();
    Live.clear();
    Figures = {};
    std::filesystem::create_directories(Dir);
    for (const workloads::Workload &W : workloads::allWorkloads()) {
      ir::Module M;
      {
        Scope S(Spans, "frontend", SetupJob);
        M = W.Build();
      }
      pipeline::PipelineConfig Cfg;
      Cfg.RecordTracePath = Dir + "/" + W.Name + ".jtrace";
      Cfg.WorkloadName = W.Name;
      std::unique_ptr<pipeline::Jrpm> J;
      {
        Scope S(Spans, "analysis", SetupJob);
        J = std::make_unique<pipeline::Jrpm>(std::move(M), Cfg);
      }
      pipeline::Jrpm::ProfileOutcome P;
      {
        Scope S(Spans, "trace.record", SetupJob);
        P = J->profileAndSelect();
      }
      {
        Scope S(Spans, "trace.decode", SetupJob);
        Traces.push_back(
            std::make_unique<trace::CachedTrace>(Cfg.RecordTracePath));
      }
      Figures.TraceEvents += Traces.back()->footer().TotalEvents;
      Figures.TraceBytes += std::filesystem::file_size(Cfg.RecordTracePath);
      std::filesystem::remove(Cfg.RecordTracePath);
      Live.push_back({tracer::selectionDigest(P.Selection),
                      P.Selection.PredictedSpeedup});
    }
  }
  std::size_t jobs() const override { return Traces.size() * GridSize; }
  std::string expectedKey() const override { return "tracer-sweep"; }
  SetupFigures setupFigures() const override { return Figures; }

  JobResult run(std::size_t I, bool Traced, JobContext &Ctx) override {
    const trace::CachedTrace &T = *Traces[I / GridSize];
    const Geometry &G = Grid[I % GridSize];
    trace::ReplayConfig Cfg;
    Cfg.Hw = T.header().Hw;
    Cfg.ExtendedPcBinning = T.header().ExtendedPcBinning;
    Cfg.DisableLoopAfterThreads = T.header().DisableLoopAfterThreads;
    Cfg.Hw.ComparatorBanks = G.Banks;
    Cfg.Hw.HeapTimestampFifoLines = G.HistoryLines;
    metrics::Registry Reg;
    if (Traced)
      Cfg.Metrics = &Reg;
    trace::ReplayOutcome O;
    {
      Scope S(Ctx.Spans, "tracer", Ctx.Job);
      O = trace::selectFromTrace(T, Cfg);
    }

    const LiveSelection &L = Live[I / GridSize];
    bool Recorded = Cfg.Hw.ComparatorBanks == T.header().Hw.ComparatorBanks &&
                    Cfg.Hw.HeapTimestampFifoLines ==
                        T.header().Hw.HeapTimestampFifoLines;
    std::uint64_t Sel = tracer::selectionDigest(O.Selection);
    JobResult R;
    // Under the capture geometry the replay must equal the live selection.
    R.Ok = O.EventsReplayed == T.footer().TotalEvents &&
           (!Recorded || Sel == L.Digest);
    Digest D;
    D.add(Sel);
    D.add(O.EventsReplayed);
    D.add(std::uint64_t(O.PeakBanksInUse));
    D.add(std::uint64_t(O.PeakLocalSlots));
    D.add(std::uint64_t(O.PeakDynamicNest));
    R.Digest = D.value();
    R.Speedup = R.Predicted = O.Selection.PredictedSpeedup;
    R.Reference = L.Predicted;
    if (Traced) {
      R.CounterDigest = registryDigest(Reg);
      Ctx.Metrics->merge(Reg);
      Ctx.Counts->TracerReplayedEvents += O.EventsReplayed;
    }
    return R;
  }

private:
  struct LiveSelection {
    std::uint64_t Digest;
    double Predicted;
  };
  std::string Dir;
  std::vector<std::unique_ptr<trace::CachedTrace>> Traces;
  std::vector<LiveSelection> Live;
  SetupFigures Figures;
};

// --- corpus ----------------------------------------------------------------

/// Records every event into memory while forwarding it, and the downstream
/// engine's cycle charges, unchanged: the in-memory recorder of
/// corpus::runOracles' replay oracle.
class VectorSink : public interp::TraceSink {
public:
  explicit VectorSink(interp::TraceSink &Down) : Down(Down) {}

  const std::vector<trace::Event> &events() const { return Events; }

  std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                           std::int32_t Pc) override {
    push(trace::EventKind::HeapLoad, Cycle).Addr = Addr;
    Events.back().Pc = Pc;
    return Down.onHeapLoad(Addr, Cycle, Pc);
  }
  std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                            std::int32_t Pc) override {
    push(trace::EventKind::HeapStore, Cycle).Addr = Addr;
    Events.back().Pc = Pc;
    return Down.onHeapStore(Addr, Cycle, Pc);
  }
  std::uint32_t onLocalLoad(std::uint64_t Activation, std::uint16_t Reg,
                            std::uint64_t Cycle, std::int32_t Pc) override {
    trace::Event &E = push(trace::EventKind::LocalLoad, Cycle);
    E.Activation = Activation;
    E.Reg = Reg;
    E.Pc = Pc;
    return Down.onLocalLoad(Activation, Reg, Cycle, Pc);
  }
  std::uint32_t onLocalStore(std::uint64_t Activation, std::uint16_t Reg,
                             std::uint64_t Cycle, std::int32_t Pc) override {
    trace::Event &E = push(trace::EventKind::LocalStore, Cycle);
    E.Activation = Activation;
    E.Reg = Reg;
    E.Pc = Pc;
    return Down.onLocalStore(Activation, Reg, Cycle, Pc);
  }
  std::uint32_t onLoopStart(std::uint32_t LoopId, std::uint64_t Activation,
                            std::uint64_t Cycle) override {
    trace::Event &E = push(trace::EventKind::LoopStart, Cycle);
    E.LoopId = LoopId;
    E.Activation = Activation;
    return Down.onLoopStart(LoopId, Activation, Cycle);
  }
  std::uint32_t onLoopIter(std::uint32_t LoopId,
                           std::uint64_t Cycle) override {
    push(trace::EventKind::LoopIter, Cycle).LoopId = LoopId;
    return Down.onLoopIter(LoopId, Cycle);
  }
  std::uint32_t onLoopEnd(std::uint32_t LoopId, std::uint64_t Cycle) override {
    push(trace::EventKind::LoopEnd, Cycle).LoopId = LoopId;
    return Down.onLoopEnd(LoopId, Cycle);
  }
  void onReturn(std::uint64_t Activation) override {
    push(trace::EventKind::Return, 0).Activation = Activation;
    Down.onReturn(Activation);
  }
  void onCallSite(std::int32_t CallPc, std::uint64_t Cycle) override {
    push(trace::EventKind::CallSite, Cycle).Pc = CallPc;
    Down.onCallSite(CallPc, Cycle);
  }
  void onCallReturn(std::uint64_t Cycle) override {
    push(trace::EventKind::CallReturn, Cycle);
    Down.onCallReturn(Cycle);
  }
  std::uint32_t onReadStats(std::uint32_t LoopId,
                            std::uint64_t Cycle) override {
    push(trace::EventKind::ReadStats, Cycle).LoopId = LoopId;
    return Down.onReadStats(LoopId, Cycle);
  }

private:
  trace::Event &push(trace::EventKind K, std::uint64_t Cycle) {
    trace::Event &E = Events.emplace_back();
    E.Kind = K;
    E.Cycle = Cycle;
    return E;
  }

  interp::TraceSink &Down;
  std::vector<trace::Event> Events;
};

bool isSerialReject(analysis::RejectKind K) {
  return K == analysis::RejectKind::SerialMemoryRecurrence ||
         K == analysis::RejectKind::AffineSerialZiv ||
         K == analysis::RejectKind::AffineSerialSiv;
}

/// corpus::runOracles made of its layer calls one by one, so each gets a
/// span and exports its counters. Same calls in the same order, same
/// outcome; both are checked against one expected digest.
corpus::OracleOutcome runOraclesTraced(const corpus::Variant &V,
                                       const sim::HydraConfig &Hw,
                                       JobContext &Ctx,
                                       metrics::Registry &Reg,
                                       JobResult &R) {
  corpus::OracleOutcome Out;
  const ir::Module &M = V.Module;
  auto Fail = [&Out](corpus::OracleKind K) {
    Out.Passed = false;
    Out.Failures.push_back({K, {}});
  };

  interp::RunResult Seq;
  {
    Scope S(Ctx.Spans, "interp", Ctx.Job);
    interp::Machine Machine(M, Hw);
    Machine.setObservability(&Reg, "plain");
    Seq = Machine.run();
  }
  Out.SeqReturn = Seq.ReturnValue;
  Out.SeqCycles = Seq.Cycles;

  // Oracle 1: the restart, sync and line-grain TLS runs.
  sim::HydraConfig GridHw[3] = {Hw, Hw, Hw};
  GridHw[1].SyncCarriedLocals = true;
  GridHw[2].ViolationGrain = sim::ViolationGranularity::Line;
  for (const sim::HydraConfig &G : GridHw) {
    std::unique_ptr<analysis::ModuleAnalysis> MA;
    {
      Scope S(Ctx.Spans, "analysis", Ctx.Job);
      MA = std::make_unique<analysis::ModuleAnalysis>(M);
    }
    countCandidates(*MA, Ctx);
    std::vector<jit::TlsLoopPlan> Plans;
    {
      Scope S(Ctx.Spans, "jit", Ctx.Job);
      for (const analysis::CandidateStl &C : MA->candidates())
        if (!C.Rejected)
          Plans.push_back(jit::buildTlsPlan(*MA, C));
    }
    Ctx.Counts->JitPlans += Plans.size();
    interp::RunResult Tls;
    {
      Scope S(Ctx.Spans, "hydra", Ctx.Job);
      hydra::TlsEngine Engine(M, G, std::move(Plans));
      interp::Machine Machine(M, G);
      Machine.setDispatcher(&Engine);
      Machine.setObservability(&Reg, "tls");
      Tls = Machine.run();
      Engine.exportMetrics(Reg);
    }
    if (Tls.ReturnValue != Seq.ReturnValue)
      Fail(corpus::OracleKind::Execution);
    if (&G == &GridHw[0])
      R.Speedup = R.Reference = speedup(Seq.Cycles, Tls.Cycles);
  }

  // Profiled run, recorded into memory.
  std::unique_ptr<analysis::ModuleAnalysis> MA;
  {
    Scope S(Ctx.Spans, "analysis", Ctx.Job);
    MA = std::make_unique<analysis::ModuleAnalysis>(M);
  }
  countCandidates(*MA, Ctx);
  std::unique_ptr<jit::AnnotatedModule> AM;
  {
    Scope S(Ctx.Spans, "jit", Ctx.Job);
    AM = std::make_unique<jit::AnnotatedModule>(
        jit::annotateModule(M, *MA, jit::AnnotationLevel::Optimized));
  }
  tracer::TraceEngine Live(Hw, AM->LoopInfos);
  VectorSink Recorder(Live);
  interp::RunResult ProfRun;
  {
    Scope S(Ctx.Spans, "interp.profiled", Ctx.Job);
    interp::Machine Prof(AM->Module, Hw);
    Prof.setTraceSink(&Recorder);
    Prof.setObservability(&Reg, "profiled");
    ProfRun = Prof.run();
  }
  if (ProfRun.ReturnValue != Seq.ReturnValue)
    Fail(corpus::OracleKind::Execution);
  tracer::SelectionResult LiveSel;
  {
    Scope S(Ctx.Spans, "tracer", Ctx.Job);
    LiveSel = tracer::selectStls(Live, ProfRun.Cycles, Hw);
    Live.exportMetrics(Reg);
  }
  Out.SelectionDigest = tracer::selectionDigest(LiveSel);
  Out.Candidates = static_cast<std::uint32_t>(MA->candidates().size());
  Out.DynSelected = static_cast<std::uint32_t>(LiveSel.SelectedLoops.size());
  R.Predicted = LiveSel.PredictedSpeedup;

  // Oracle 2: static serial rejections against the dynamic selection.
  std::set<std::uint32_t> Selected(LiveSel.SelectedLoops.begin(),
                                   LiveSel.SelectedLoops.end());
  analysis::AnalysisOptions Modes[2];
  Modes[0].StaticPrefilter = true;
  Modes[1].AffineOracle = true;
  for (const analysis::AnalysisOptions &Opts : Modes) {
    std::unique_ptr<analysis::ModuleAnalysis> SMA;
    {
      Scope S(Ctx.Spans, "analysis", Ctx.Job);
      SMA = std::make_unique<analysis::ModuleAnalysis>(M, Opts);
    }
    countCandidates(*SMA, Ctx);
    for (const analysis::CandidateStl &C : SMA->candidates()) {
      if (!isSerialReject(C.Kind))
        continue;
      ++Out.StaticRejects;
      if (Selected.count(C.LoopId)) {
        ++Out.FalseRejects;
        Fail(corpus::OracleKind::StaticConformance);
      }
    }
  }

  // Oracle 3: a fresh engine fed the recorded events.
  {
    Scope S(Ctx.Spans, "tracer", Ctx.Job);
    tracer::TraceEngine Fresh(Hw, AM->LoopInfos);
    interp::EventBlock *Blk = Fresh.eventBlock();
    for (const trace::Event &E : Recorder.events())
      trace::dispatchEventBatched(E, Fresh, Blk);
    interp::drainPending(Fresh, Blk);
    Out.EventsReplayed = Recorder.events().size();
    tracer::SelectionResult ReplaySel =
        tracer::selectStls(Fresh, ProfRun.Cycles, Hw);
    if (tracer::selectionDigest(ReplaySel) != Out.SelectionDigest)
      Fail(corpus::OracleKind::Replay);
    Fresh.exportMetrics(Reg);
  }
  Ctx.Counts->TracerReplayedEvents += Out.EventsReplayed;
  return Out;
}

constexpr std::uint64_t VariantsPerTemplate = 4;

class CorpusWorkload : public Workload {
public:
  explicit CorpusWorkload(std::uint64_t Seed)
      : BaseSeed(1 + VariantsPerTemplate * (Seed % CorpusBaseSeeds)) {}

  void setup(SpanLog &Spans) override {
    Scope S(Spans, "corpus", SetupJob);
    Templates = corpus::extractRegistryTemplates();
  }
  std::size_t jobs() const override {
    return Templates.size() * VariantsPerTemplate;
  }
  std::string expectedKey() const override {
    return "corpus/base-seed-" + std::to_string(BaseSeed);
  }

  JobResult run(std::size_t I, bool Traced, JobContext &Ctx) override {
    const corpus::Template &T = Templates[I / VariantsPerTemplate];
    std::uint64_t Seed = BaseSeed + I % VariantsPerTemplate;
    corpus::Variant V;
    {
      Scope S(Ctx.Spans, "frontend", Ctx.Job);
      V = corpus::instantiate(T, Seed);
    }
    JobResult R;
    metrics::Registry Reg;
    corpus::OracleOutcome O;
    if (Traced) {
      Scope S(Ctx.Spans, "corpus", Ctx.Job);
      O = runOraclesTraced(V, corpus::OracleConfig().Hw, Ctx, Reg, R);
    } else {
      O = corpus::runOracles(T, V, corpus::OracleConfig());
    }
    R.Ok = O.Passed;
    Digest D;
    D.add(V.Digest);
    D.add(std::uint64_t(O.Passed));
    for (std::uint64_t X :
         {O.SeqReturn, O.SeqCycles, O.SelectionDigest, O.EventsReplayed})
      D.add(X);
    for (std::uint32_t X :
         {O.Candidates, O.DynSelected, O.StaticRejects, O.FalseRejects})
      D.add(std::uint64_t(X));
    R.Digest = D.value();
    if (Traced) {
      R.CounterDigest = registryDigest(Reg);
      Ctx.Metrics->merge(Reg);
      ++Ctx.Counts->FrontendModules;
    }
    return R;
  }

private:
  std::uint64_t BaseSeed;
  std::vector<corpus::Template> Templates;
};

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"registry", "tracer-sweep",
                                                 "corpus"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       std::uint64_t Seed,
                                       const std::string &ScratchDir) {
  if (Name == "registry")
    return std::make_unique<RegistryWorkload>();
  if (Name == "tracer-sweep")
    return std::make_unique<TracerSweepWorkload>(ScratchDir + "/traces");
  if (Name == "corpus")
    return std::make_unique<CorpusWorkload>(Seed);
  return nullptr;
}

} // namespace perfbench
