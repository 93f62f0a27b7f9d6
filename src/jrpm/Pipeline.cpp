//===- jrpm/Pipeline.cpp --------------------------------------------------==//

#include "jrpm/Pipeline.h"

#include "ir/AnnotationVerifier.h"
#include "support/Compiler.h"
#include "support/Format.h"
#include "trace/Writer.h"

#include <optional>

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

/// The header a capture of \p AM's profiling run under \p Cfg carries.
trace::TraceHeader traceHeader(const PipelineConfig &Cfg,
                               const jit::AnnotatedModule &AM) {
  trace::TraceHeader H;
  H.WorkloadName = Cfg.WorkloadName;
  H.AnnotationLevel = Cfg.Level == jit::AnnotationLevel::Base ? 0 : 1;
  trace::copyTracerConfig(Cfg, H);
  H.LoopLocals.reserve(AM.LoopInfos.size());
  for (const tracer::LoopTraceInfo &Info : AM.LoopInfos)
    H.LoopLocals.push_back(Info.AnnotatedLocals);
  return H;
}

} // namespace

tracer::SelectionResult
pipeline::everyCandidate(const analysis::ModuleAnalysis &MA) {
  tracer::SelectionResult Sel;
  for (const analysis::CandidateStl &C : MA.candidates())
    Sel.SelectedLoops.push_back(C.LoopId);
  return Sel;
}

Jrpm::Jrpm(ir::Module Program, PipelineConfig Config)
    : M(std::move(Program)), Cfg(std::move(Config)) {
  analysis::AnalysisOptions Opts;
  Opts.StaticPrefilter = Cfg.StaticPrefilter;
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

const jit::AnnotatedModule &Jrpm::annotated() {
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
  return *Annotated;
}

template <typename Dest>
Jrpm::ProfileOutcome
Jrpm::profileInto(Dest *Capture, const std::vector<std::uint64_t> &Args) {
  const jit::AnnotatedModule &AM = annotated();
  auto Tracer = std::make_unique<tracer::TraceEngine>(
      Cfg.Hw, AM.LoopInfos, Cfg.ExtendedPcBinning);
  if (Cfg.DisableLoopAfterThreads)
    Tracer->setDisableLoopAfterThreads(Cfg.DisableLoopAfterThreads);

  std::optional<trace::RecordingSink<Dest>> Tee;
  interp::TraceSink *Sink = Tracer.get();
  if (Capture)
    Sink = &Tee.emplace(*Capture, *Tracer);

  interp::Machine Machine(AM.Module, Cfg.Hw);
  Machine.setTraceSink(Sink);
  Machine.setObservability(Cfg.Metrics, "profiled", Cfg.Timeline,
                           ProfileTrack);
  if (Cfg.Timeline)
    Tracer->setObservability(Cfg.Timeline, TracerTrack);
  ProfileOutcome Out;
  Out.Run = Machine.run(Args);
  if (Capture)
    Capture->finish(toRunInfo(Out.Run));
  Out.Selection = tracer::selectStls(*Tracer, Out.Run.Cycles, Cfg.Hw);
  Out.PeakBanksInUse = Tracer->peakBanksInUse();
  Out.PeakLocalSlots = Tracer->peakLocalSlots();
  Out.PeakDynamicNest = Tracer->peakDynamicNest();
  if (Cfg.Metrics)
    Tracer->exportMetrics(*Cfg.Metrics);
  return Out;
}

Jrpm::ProfileOutcome
Jrpm::profileAndSelect(const std::vector<std::uint64_t> &Args) {
  if (Cfg.RecordTracePath.empty())
    return profileInto<trace::Writer>(nullptr, Args);
  trace::Writer Recorder(Cfg.RecordTracePath, traceHeader(Cfg, annotated()));
  return profileInto(&Recorder, Args);
}

Jrpm::RecordedProfile
Jrpm::profileInMemory(const std::vector<std::uint64_t> &Args) {
  RecordedProfile R{{}, trace::CachedTrace(traceHeader(Cfg, annotated()))};
  R.Profile = profileInto(&R.Trace, Args);
  return R;
}

Jrpm::TlsOutcome
Jrpm::runSpeculative(const tracer::SelectionResult &Selection,
                     const std::vector<std::uint64_t> &Args) {
  return runSpeculative(Selection, Cfg.Hw, Args);
}

Jrpm::TlsOutcome
Jrpm::runSpeculative(const tracer::SelectionResult &Selection,
                     const sim::HydraConfig &Hw,
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
  hydra::TlsEngine Engine(M, Hw, std::move(Plans));
  interp::Machine Machine(M, Hw);
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

Jrpm::DifferentialOutcome
Jrpm::runDifferential(const std::vector<std::uint64_t> &Args) {
  DifferentialOutcome Out;
  Out.PlainRun = runPlain(Args);
  RecordedProfile Rec =
      Cfg.RecordTracePath.empty()
          ? profileInMemory(Args)
          : RecordedProfile{profileAndSelect(Args),
                            trace::CachedTrace(Cfg.RecordTracePath)};
  Out.Profile = std::move(Rec.Profile);
  trace::ReplayConfig RC; // Metrics unset: tracer.* is exported live only
  trace::copyTracerConfig(Cfg, RC);
  Out.Replay = trace::selectFromTrace(Rec.Trace, RC);

  const interp::RunResult &Live = Out.Profile.Run;
  if (Live.ReturnValue != Out.PlainRun.ReturnValue)
    Out.ExecutionMismatches.push_back(
        formatString("annotated checksum %llu != sequential %llu",
                     (unsigned long long)Live.ReturnValue,
                     (unsigned long long)Out.PlainRun.ReturnValue));
  std::uint64_t LiveDigest = tracer::selectionDigest(Out.Profile.Selection);
  std::uint64_t ReplayDigest = tracer::selectionDigest(Out.Replay.Selection);
  if (ReplayDigest != LiveDigest)
    Out.ReplayMismatches.push_back(
        formatString("replayed selection digest %016llx != live %016llx",
                     (unsigned long long)ReplayDigest,
                     (unsigned long long)LiveDigest));
  if (Out.Replay.Run != toRunInfo(Live))
    Out.ReplayMismatches.push_back(
        "trace footer run diverged from live profiled run");
  return Out;
}
