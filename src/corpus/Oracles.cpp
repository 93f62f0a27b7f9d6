//===- corpus/Oracles.cpp --------------------------------------------------==//

#include "corpus/Oracles.h"

#include "analysis/Candidates.h"
#include "hydra/TlsEngine.h"
#include "interp/Machine.h"
#include "jit/Annotator.h"
#include "jit/TlsPlan.h"
#include "support/Format.h"
#include "trace/Reader.h"
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

/// In-memory analogue of trace::RecordingSink: captures every event into a
/// vector while forwarding it (and the downstream engine's cycle charges)
/// unchanged, so the recorded run is cycle-identical to an unrecorded one.
class VectorSink : public interp::TraceSink {
public:
  explicit VectorSink(interp::TraceSink *Downstream) : Down(Downstream) {}

  const std::vector<trace::Event> &events() const { return Events; }

  std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                           std::int32_t Pc) override {
    trace::Event E;
    E.Kind = trace::EventKind::HeapLoad;
    E.Addr = Addr;
    E.Cycle = Cycle;
    E.Pc = Pc;
    Events.push_back(E);
    return Down ? Down->onHeapLoad(Addr, Cycle, Pc) : 0;
  }
  std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                            std::int32_t Pc) override {
    trace::Event E;
    E.Kind = trace::EventKind::HeapStore;
    E.Addr = Addr;
    E.Cycle = Cycle;
    E.Pc = Pc;
    Events.push_back(E);
    return Down ? Down->onHeapStore(Addr, Cycle, Pc) : 0;
  }
  std::uint32_t onLocalLoad(std::uint64_t Activation, std::uint16_t Reg,
                            std::uint64_t Cycle, std::int32_t Pc) override {
    trace::Event E;
    E.Kind = trace::EventKind::LocalLoad;
    E.Activation = Activation;
    E.Reg = Reg;
    E.Cycle = Cycle;
    E.Pc = Pc;
    Events.push_back(E);
    return Down ? Down->onLocalLoad(Activation, Reg, Cycle, Pc) : 0;
  }
  std::uint32_t onLocalStore(std::uint64_t Activation, std::uint16_t Reg,
                             std::uint64_t Cycle, std::int32_t Pc) override {
    trace::Event E;
    E.Kind = trace::EventKind::LocalStore;
    E.Activation = Activation;
    E.Reg = Reg;
    E.Cycle = Cycle;
    E.Pc = Pc;
    Events.push_back(E);
    return Down ? Down->onLocalStore(Activation, Reg, Cycle, Pc) : 0;
  }
  std::uint32_t onLoopStart(std::uint32_t LoopId, std::uint64_t Activation,
                            std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::LoopStart;
    E.LoopId = LoopId;
    E.Activation = Activation;
    E.Cycle = Cycle;
    Events.push_back(E);
    return Down ? Down->onLoopStart(LoopId, Activation, Cycle) : 0;
  }
  std::uint32_t onLoopIter(std::uint32_t LoopId,
                           std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::LoopIter;
    E.LoopId = LoopId;
    E.Cycle = Cycle;
    Events.push_back(E);
    return Down ? Down->onLoopIter(LoopId, Cycle) : 0;
  }
  std::uint32_t onLoopEnd(std::uint32_t LoopId, std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::LoopEnd;
    E.LoopId = LoopId;
    E.Cycle = Cycle;
    Events.push_back(E);
    return Down ? Down->onLoopEnd(LoopId, Cycle) : 0;
  }
  void onReturn(std::uint64_t Activation) override {
    trace::Event E;
    E.Kind = trace::EventKind::Return;
    E.Activation = Activation;
    Events.push_back(E);
    if (Down)
      Down->onReturn(Activation);
  }
  void onCallSite(std::int32_t CallPc, std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::CallSite;
    E.Pc = CallPc;
    E.Cycle = Cycle;
    Events.push_back(E);
    if (Down)
      Down->onCallSite(CallPc, Cycle);
  }
  void onCallReturn(std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::CallReturn;
    E.Cycle = Cycle;
    Events.push_back(E);
    if (Down)
      Down->onCallReturn(Cycle);
  }
  std::uint32_t onReadStats(std::uint32_t LoopId,
                            std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::ReadStats;
    E.LoopId = LoopId;
    E.Cycle = Cycle;
    Events.push_back(E);
    return Down ? Down->onReadStats(LoopId, Cycle) : 0;
  }

private:
  interp::TraceSink *Down;
  std::vector<trace::Event> Events;
};

/// Speculative execution under \p Cfg with the paper's optimistic policy
/// (every non-rejected candidate gets a plan) — the fuzz suite's contract.
interp::RunResult runTls(const ir::Module &M, const sim::HydraConfig &Cfg) {
  analysis::ModuleAnalysis MA(M);
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
    interp::RunResult Tls = runTls(M, G.Hw);
    if (Tls.ReturnValue != Seq.ReturnValue)
      Fail(OracleKind::Execution,
           formatString("%s mode returned %llu, sequential %llu", G.Name,
                        (unsigned long long)Tls.ReturnValue,
                        (unsigned long long)Seq.ReturnValue));
  }

  // Profiled run: dynamic TEST ground truth, recorded once into memory.
  analysis::ModuleAnalysis MA(M);
  jit::AnnotatedModule AM =
      jit::annotateModule(M, MA, jit::AnnotationLevel::Optimized);
  tracer::TraceEngine Live(Cfg.Hw, AM.LoopInfos);
  VectorSink Recorder(&Live);
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
  for (const trace::Event &E : Recorder.events())
    trace::dispatchEvent(E, Fresh);
  Out.EventsReplayed = Recorder.events().size();
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
