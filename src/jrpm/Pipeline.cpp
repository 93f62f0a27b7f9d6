//===- jrpm/Pipeline.cpp --------------------------------------------------==//

#include "jrpm/Pipeline.h"

#include "ir/AnnotationVerifier.h"
#include "support/Compiler.h"
#include "trace/Replay.h"
#include "trace/Writer.h"

using namespace jrpm;
using namespace jrpm::pipeline;

namespace {

void failOnErrors(const char *Stage, const std::vector<std::string> &Errors) {
  if (Errors.empty())
    return;
  for (const std::string &E : Errors)
    std::fprintf(stderr, "%s: %s\n", Stage, E.c_str());
  JRPM_FATAL("pipeline verification failed");
}

trace::RunInfo toRunInfo(const interp::RunResult &R) {
  trace::RunInfo I;
  I.Cycles = R.Cycles;
  I.Instructions = R.Instructions;
  I.ReturnValue = R.ReturnValue;
  I.Loads = R.Loads;
  I.Stores = R.Stores;
  I.L1Misses = R.L1Misses;
  return I;
}

interp::RunResult toRunResult(const trace::RunInfo &I) {
  interp::RunResult R;
  R.Cycles = I.Cycles;
  R.Instructions = I.Instructions;
  R.ReturnValue = I.ReturnValue;
  R.Loads = I.Loads;
  R.Stores = I.Stores;
  R.L1Misses = I.L1Misses;
  return R;
}

} // namespace

Jrpm::Jrpm(ir::Module Program, PipelineConfig Config)
    : M(std::move(Program)), Cfg(std::move(Config)) {
  analysis::AnalysisOptions Opts;
  Opts.StaticPrefilter = Cfg.StaticPrefilter;
  Opts.SerialArcBudget = Cfg.SerialArcBudget;
  Opts.AffineOracle = Cfg.AffineOracle;
  MA = std::make_unique<analysis::ModuleAnalysis>(M, Opts);
  if (Cfg.Timeline) {
    // Fixed registration order => stable pid/tid assignment across runs.
    metrics::Timeline &TL = *Cfg.Timeline;
    PlainTrack = TL.track("jrpm", 0, "plain");
    ProfileTrack = TL.track("jrpm", 1, "profile");
    TlsTrack = TL.track("jrpm", 2, "tls");
    TracerTrack = TL.track("tracer", 0, "banks");
    for (std::uint32_t C = 0; C < Cfg.Hw.NumCores; ++C)
      CoreTracks.push_back(
          TL.track("hydra", C, "cpu" + std::to_string(C)));
    EngineTrack = TL.track("hydra", Cfg.Hw.NumCores, "engine");
  }
}

interp::RunResult Jrpm::runPlain(const std::vector<std::uint64_t> &Args) {
  interp::Machine Machine(M, Cfg.Hw);
  Machine.setObservability(Cfg.Metrics, "plain", Cfg.Timeline, PlainTrack);
  return Machine.run(Args);
}

Jrpm::ProfileOutcome
Jrpm::profileAndSelect(const std::vector<std::uint64_t> &Args) {
  if (!Cfg.ReplayTracePath.empty()) {
    Tracer.reset(); // the replay owns its engine; lastTracer() is null
    return pipeline::selectFromTrace(Cfg.ReplayTracePath, Cfg);
  }
  if (!Annotated) {
    Annotated = std::make_unique<jit::AnnotatedModule>(
        jit::annotateModule(M, *MA, Cfg.Level));
    // Step-1 lint: the tracer trusts marker nesting and lwl/swl coverage.
    std::vector<ir::LoopAnnotationInfo> Infos;
    Infos.reserve(Annotated->LoopInfos.size());
    for (const tracer::LoopTraceInfo &Info : Annotated->LoopInfos)
      Infos.push_back({Info.AnnotatedLocals});
    failOnErrors("annotation verifier",
                 ir::verifyAnnotations(Annotated->Module, Infos));
  }

  Tracer = std::make_unique<tracer::TraceEngine>(
      Cfg.Hw, Annotated->LoopInfos, Cfg.ExtendedPcBinning);
  if (Cfg.DisableLoopAfterThreads)
    Tracer->setDisableLoopAfterThreads(Cfg.DisableLoopAfterThreads);

  // Optional capture: tee the event stream to disk while profiling.
  std::unique_ptr<trace::Writer> Recorder;
  std::unique_ptr<trace::RecordingSink> Tee;
  interp::TraceSink *Sink = Tracer.get();
  if (!Cfg.RecordTracePath.empty()) {
    trace::TraceHeader H;
    H.WorkloadName = Cfg.WorkloadName;
    H.AnnotationLevel = Cfg.Level == jit::AnnotationLevel::Base ? 0 : 1;
    H.ExtendedPcBinning = Cfg.ExtendedPcBinning;
    H.DisableLoopAfterThreads = Cfg.DisableLoopAfterThreads;
    H.Hw = Cfg.Hw;
    H.LoopLocals.reserve(Annotated->LoopInfos.size());
    for (const tracer::LoopTraceInfo &Info : Annotated->LoopInfos)
      H.LoopLocals.push_back(Info.AnnotatedLocals);
    Recorder = std::make_unique<trace::Writer>(Cfg.RecordTracePath, H);
    Tee = std::make_unique<trace::RecordingSink>(*Recorder, Tracer.get());
    Sink = Tee.get();
  }

  interp::Machine Machine(Annotated->Module, Cfg.Hw);
  Machine.setTraceSink(Sink);
  Machine.setObservability(Cfg.Metrics, "profiled", Cfg.Timeline,
                           ProfileTrack);
  if (Cfg.Timeline)
    Tracer->setObservability(Cfg.Timeline, TracerTrack);
  ProfileOutcome Out;
  Out.Run = Machine.run(Args);
  if (Recorder)
    Recorder->finish(toRunInfo(Out.Run));
  Out.Selection = tracer::selectStls(*Tracer, Out.Run.Cycles, Cfg.Hw);
  Out.PeakBanksInUse = Tracer->peakBanksInUse();
  Out.PeakLocalSlots = Tracer->peakLocalSlots();
  Out.PeakDynamicNest = Tracer->peakDynamicNest();
  if (Cfg.Metrics)
    Tracer->exportMetrics(*Cfg.Metrics);
  return Out;
}

Jrpm::TlsOutcome
Jrpm::runSpeculative(const tracer::SelectionResult &Selection,
                     const std::vector<std::uint64_t> &Args) {
  std::vector<jit::TlsLoopPlan> Plans;
  for (std::uint32_t LoopId : Selection.SelectedLoops) {
    const analysis::CandidateStl &C = MA->candidate(LoopId);
    if (C.Rejected)
      continue;
    Plans.push_back(jit::buildTlsPlan(*MA, C));
    // Step-4 lint: the Hydra engine executes the plan unchecked.
    failOnErrors("tls plan verifier", jit::verifyTlsPlan(M, Plans.back()));
  }
  hydra::TlsEngine Engine(M, Cfg.Hw, std::move(Plans));
  interp::Machine Machine(M, Cfg.Hw);
  Machine.setDispatcher(&Engine);
  Machine.setObservability(Cfg.Metrics, "tls", Cfg.Timeline, TlsTrack);
  if (Cfg.Timeline)
    Engine.setObservability(Cfg.Timeline, EngineTrack, CoreTracks);
  TlsOutcome Out;
  Out.Run = Machine.run(Args);
  Out.LoopStats = Engine.loopStats();
  if (Cfg.Metrics)
    Engine.exportMetrics(*Cfg.Metrics);
  return Out;
}

Jrpm::ProfileOutcome pipeline::selectFromTrace(const std::string &Path,
                                               const PipelineConfig &Cfg) {
  trace::Reader R(Path);
  trace::ReplayConfig RC;
  RC.Hw = Cfg.Hw;
  RC.ExtendedPcBinning = Cfg.ExtendedPcBinning;
  RC.DisableLoopAfterThreads = Cfg.DisableLoopAfterThreads;
  RC.Metrics = Cfg.Metrics;
  trace::ReplayOutcome Replayed = trace::selectFromTrace(R, RC);

  Jrpm::ProfileOutcome Out;
  Out.Run = toRunResult(Replayed.Run);
  Out.Selection = std::move(Replayed.Selection);
  Out.PeakBanksInUse = Replayed.PeakBanksInUse;
  Out.PeakLocalSlots = Replayed.PeakLocalSlots;
  Out.PeakDynamicNest = Replayed.PeakDynamicNest;
  return Out;
}

PipelineResult Jrpm::runAll(const std::vector<std::uint64_t> &Args) {
  PipelineResult R;
  R.PlainRun = runPlain(Args);
  ProfileOutcome P = profileAndSelect(Args);
  R.ProfiledRun = P.Run;
  R.Selection = std::move(P.Selection);
  R.PeakBanksInUse = P.PeakBanksInUse;
  R.PeakLocalSlots = P.PeakLocalSlots;
  R.PeakDynamicNest = P.PeakDynamicNest;
  TlsOutcome T = runSpeculative(R.Selection, Args);
  R.TlsRun = T.Run;
  R.TlsLoopStats = std::move(T.LoopStats);
  return R;
}
