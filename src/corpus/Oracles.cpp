//===- corpus/Oracles.cpp --------------------------------------------------==//

#include "corpus/Oracles.h"

#include "analysis/Candidates.h"
#include "jrpm/Pipeline.h"
#include "support/Format.h"

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

OracleOutcome corpus::runOracles(const Template &T, const Variant &V,
                                 const OracleConfig &Cfg) {
  OracleOutcome Out;
  auto Fail = [&Out](OracleKind K, std::string Detail) {
    Out.Passed = false;
    Out.Failures.push_back({K, std::move(Detail)});
  };

  // The plain run, the profiled run recorded into memory, and its replay.
  pipeline::PipelineConfig PCfg;
  PCfg.Hw = Cfg.Hw;
  pipeline::Jrpm J(V.Module, PCfg);
  pipeline::Jrpm::DifferentialOutcome D = J.runDifferential();
  const interp::RunResult &Seq = D.PlainRun;
  Out.SeqReturn = Seq.ReturnValue;
  Out.SeqCycles = Seq.Cycles;

  // Oracle 1: sequential vs speculative bit-identity on the config grid,
  // every non-rejected candidate speculated; then the annotated run.
  struct GridPoint {
    const char *Name;
    sim::HydraConfig Hw;
  };
  GridPoint Grid[3] = {{"restart", Cfg.Hw}, {"sync", Cfg.Hw},
                       {"line", Cfg.Hw}};
  Grid[1].Hw.SyncCarriedLocals = true;
  Grid[2].Hw.ViolationGrain = sim::ViolationGranularity::Line;
  tracer::SelectionResult All = pipeline::everyCandidate(J.moduleAnalysis());
  for (const GridPoint &G : Grid) {
    interp::RunResult Tls = J.runSpeculative(All, G.Hw).Run;
    if (Tls.ReturnValue != Seq.ReturnValue)
      Fail(OracleKind::Execution,
           formatString("%s mode returned %llu, sequential %llu", G.Name,
                        (unsigned long long)Tls.ReturnValue,
                        (unsigned long long)Seq.ReturnValue));
  }
  for (std::string &M : D.ExecutionMismatches)
    Fail(OracleKind::Execution, std::move(M));

  const tracer::SelectionResult &LiveSel = D.Profile.Selection;
  Out.SelectionDigest = tracer::selectionDigest(LiveSel);
  Out.Candidates = static_cast<std::uint32_t>(All.SelectedLoops.size());
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
    analysis::ModuleAnalysis SMA(J.moduleAnalysis(), Md.Opts);
    for (const analysis::CandidateStl &C : SMA.candidates()) {
      if (!C.rejectedAsSerial())
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

  // Oracle 3: record-once / replay-many — the replayed selection must
  // reproduce the live digest exactly.
  Out.EventsReplayed = D.Replay.EventsReplayed;
  for (std::string &M : D.ReplayMismatches)
    Fail(OracleKind::Replay, std::move(M));

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
