//===- corpus/Oracles.cpp --------------------------------------------------==//

#include "corpus/Oracles.h"

#include "analysis/Candidates.h"
#include "hydra/TlsEngine.h"
#include "interp/Machine.h"
#include "jit/Annotator.h"
#include "jit/TlsPlan.h"
#include "support/Format.h"
#include "trace/Reader.h"
#include "trace/Writer.h"
#include "tracer/Selector.h"
#include "tracer/TraceEngine.h"

#include <set>

using namespace jrpm;
using namespace jrpm::corpus;

const char *corpus::oracleKindName(OracleKind K) {
  switch (K) {
  case OracleKind::Execution:
    return "execution";
  case OracleKind::StaticConformance:
    return "static-conformance";
  case OracleKind::Replay:
    return "replay";
  case OracleKind::Injected:
    return "injected";
  }
  return "unknown";
}

Json OracleOutcome::toJson() const {
  Json J = Json::object();
  J["passed"] = Passed;
  Json F = Json::array();
  for (const OracleFailure &Fail : Failures) {
    Json FJ = Json::object();
    FJ["oracle"] = oracleKindName(Fail.Kind);
    FJ["detail"] = Fail.Detail;
    F.push(std::move(FJ));
  }
  J["failures"] = std::move(F);
  J["seq_return"] = SeqReturn;
  J["seq_cycles"] = SeqCycles;
  J["selection_digest"] =
      formatString("%016llx", (unsigned long long)SelectionDigest);
  J["events_replayed"] = EventsReplayed;
  J["candidates"] = Candidates;
  J["dyn_selected"] = DynSelected;
  J["static_rejects"] = StaticRejects;
  J["false_rejects"] = FalseRejects;
  return J;
}

std::int64_t corpus::tripProduct(const Template &T, const VariantSpec &Spec) {
  std::int64_t P = 1;
  for (const Hole &H : T.Holes)
    if (H.Kind == HoleKind::TripCount)
      P *= H.clamp(Spec.valueOf(H.Name, H.Observed));
  return P;
}

namespace {

/// Speculative execution under \p Cfg with the paper's optimistic policy
/// (every non-rejected candidate gets a plan) — the fuzz suite's contract.
/// \p MA is the default-options analysis of \p M.
interp::RunResult runTls(const ir::Module &M,
                         const analysis::ModuleAnalysis &MA,
                         const sim::HydraConfig &Cfg) {
  std::vector<jit::TlsLoopPlan> Plans;
  for (const analysis::CandidateStl &C : MA.candidates())
    if (!C.Rejected)
      Plans.push_back(jit::buildTlsPlan(MA, C));
  hydra::TlsEngine Engine(M, Cfg, std::move(Plans));
  interp::Machine Machine(M, Cfg);
  Machine.setDispatcher(&Engine);
  return Machine.run();
}

bool isSerialReject(analysis::RejectKind K) {
  return K == analysis::RejectKind::SerialMemoryRecurrence ||
         K == analysis::RejectKind::AffineSerialZiv ||
         K == analysis::RejectKind::AffineSerialSiv;
}

} // namespace

OracleOutcome corpus::runOracles(const Template &T, const Variant &V,
                                 const OracleConfig &Cfg) {
  OracleOutcome Out;
  const ir::Module &M = V.Module;
  auto Fail = [&Out](OracleKind K, std::string Detail) {
    Out.Passed = false;
    Out.Failures.push_back({K, std::move(Detail)});
  };

  // Sequential reference run.
  interp::Machine SeqMachine(M, Cfg.Hw);
  interp::RunResult Seq = SeqMachine.run();
  Out.SeqReturn = Seq.ReturnValue;
  Out.SeqCycles = Seq.Cycles;

  // One default-options analysis serves the TLS grid and the profiled run.
  analysis::ModuleAnalysis MA(M);

  // Oracle 1: sequential vs speculative bit-identity on the config grid.
  struct GridPoint {
    const char *Name;
    sim::HydraConfig Hw;
  };
  GridPoint Grid[3] = {{"restart", Cfg.Hw}, {"sync", Cfg.Hw},
                       {"line", Cfg.Hw}};
  Grid[1].Hw.SyncCarriedLocals = true;
  Grid[2].Hw.ViolationGrain = sim::ViolationGranularity::Line;
  for (const GridPoint &G : Grid) {
    interp::RunResult Tls = runTls(M, MA, G.Hw);
    if (Tls.ReturnValue != Seq.ReturnValue)
      Fail(OracleKind::Execution,
           formatString("%s mode returned %llu, sequential %llu", G.Name,
                        (unsigned long long)Tls.ReturnValue,
                        (unsigned long long)Seq.ReturnValue));
  }

  // Profiled run: dynamic TEST ground truth, recorded once into memory.
  jit::AnnotatedModule AM =
      jit::annotateModule(M, MA, jit::AnnotationLevel::Optimized);
  tracer::TraceEngine Live(Cfg.Hw, AM.LoopInfos);
  std::vector<trace::Event> Recorded;
  trace::RecordingSink<std::vector<trace::Event>> Recorder(Recorded, &Live);
  interp::Machine Prof(AM.Module, Cfg.Hw);
  Prof.setTraceSink(&Recorder);
  interp::RunResult ProfRun = Prof.run();
  if (ProfRun.ReturnValue != Seq.ReturnValue)
    Fail(OracleKind::Execution,
         formatString("annotated run returned %llu, sequential %llu",
                      (unsigned long long)ProfRun.ReturnValue,
                      (unsigned long long)Seq.ReturnValue));
  tracer::SelectionResult LiveSel =
      tracer::selectStls(Live, ProfRun.Cycles, Cfg.Hw);
  Out.SelectionDigest = tracer::selectionDigest(LiveSel);
  Out.Candidates = static_cast<std::uint32_t>(MA.candidates().size());
  Out.DynSelected = static_cast<std::uint32_t>(LiveSel.SelectedLoops.size());

  // Oracle 2: static verdicts vs the dynamic selection — zero false
  // rejections, per mode.
  std::set<std::uint32_t> Selected(LiveSel.SelectedLoops.begin(),
                                   LiveSel.SelectedLoops.end());
  struct Mode {
    const char *Name;
    analysis::AnalysisOptions Opts;
  };
  Mode Modes[2];
  Modes[0].Name = "prefilter";
  Modes[0].Opts.StaticPrefilter = true;
  Modes[1].Name = "affine-oracle";
  Modes[1].Opts.AffineOracle = true;
  for (const Mode &Md : Modes) {
    analysis::ModuleAnalysis SMA(M, Md.Opts);
    for (const analysis::CandidateStl &C : SMA.candidates()) {
      if (!isSerialReject(C.Kind))
        continue;
      ++Out.StaticRejects;
      if (Selected.count(C.LoopId)) {
        ++Out.FalseRejects;
        Fail(OracleKind::StaticConformance,
             formatString("%s rejected loop %u but TEST selected it",
                          Md.Name, C.LoopId));
      }
    }
  }

  // Oracle 3: record-once / replay-many — a fresh engine fed the recorded
  // events must reproduce the live selection digest exactly.
  tracer::TraceEngine Fresh(Cfg.Hw, AM.LoopInfos);
  for (const trace::Event &E : Recorded)
    trace::dispatchEvent(E, Fresh);
  Out.EventsReplayed = Recorded.size();
  tracer::SelectionResult ReplaySel =
      tracer::selectStls(Fresh, ProfRun.Cycles, Cfg.Hw);
  std::uint64_t ReplayDigest = tracer::selectionDigest(ReplaySel);
  if (ReplayDigest != Out.SelectionDigest)
    Fail(OracleKind::Replay,
         formatString("replayed selection digest %016llx != live %016llx",
                      (unsigned long long)ReplayDigest,
                      (unsigned long long)Out.SelectionDigest));

  // Planted fault, for testing the harness/shrinker end to end.
  if (Cfg.InjectTripAtLeast > 0) {
    std::int64_t P = tripProduct(T, V.Spec);
    if (P >= Cfg.InjectTripAtLeast)
      Fail(OracleKind::Injected,
           formatString("planted fault: trip product %lld >= %lld",
                        (long long)P, (long long)Cfg.InjectTripAtLeast));
  }

  return Out;
}
