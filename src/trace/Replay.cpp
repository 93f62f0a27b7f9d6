//===- trace/Replay.cpp ----------------------------------------------------==//

#include "trace/Replay.h"

#include <algorithm>

using namespace jrpm;
using namespace jrpm::trace;

namespace {

/// Builds the engine's loop tables for \p Header. (The engine copies its
/// HydraConfig, so callers may pass configs in temporaries — a sweep-job
/// requirement; see the reentrancy note in TraceEngine.h.)
std::vector<tracer::LoopTraceInfo> loopInfos(const TraceHeader &Header) {
  std::vector<tracer::LoopTraceInfo> Loops;
  Loops.reserve(Header.LoopLocals.size());
  for (const std::vector<std::uint16_t> &Locals : Header.LoopLocals)
    Loops.push_back({Locals});
  return Loops;
}

ReplayOutcome finishOutcome(tracer::TraceEngine &Engine,
                            const ReplayConfig &Cfg, const RunInfo &Run,
                            std::uint64_t EventsReplayed) {
  ReplayOutcome Out;
  Out.EventsReplayed = EventsReplayed;
  Out.Run = Run;
  Out.Selection = tracer::selectStls(Engine, Out.Run.Cycles, Cfg.Hw);
  Out.PeakBanksInUse = Engine.peakBanksInUse();
  Out.PeakLocalSlots = Engine.peakLocalSlots();
  Out.PeakDynamicNest = Engine.peakDynamicNest();
  if (Cfg.Metrics) {
    Engine.exportMetrics(*Cfg.Metrics);
    Cfg.Metrics->counter("trace.events_replayed").inc(EventsReplayed);
  }
  return Out;
}

} // namespace

ReplayOutcome trace::selectFromTrace(Reader &R, const ReplayConfig &Cfg) {
  tracer::TraceEngine Engine(Cfg.Hw, loopInfos(R.header()),
                             Cfg.ExtendedPcBinning);
  if (Cfg.DisableLoopAfterThreads)
    Engine.setDisableLoopAfterThreads(Cfg.DisableLoopAfterThreads);
  std::uint64_t N = replay(R, Engine);
  return finishOutcome(Engine, Cfg, R.footer().Run, N);
}

//===----------------------------------------------------------------------===//
// CachedTrace
//===----------------------------------------------------------------------===//

CachedTrace::CachedTrace(const std::string &Path) {
  Reader R(Path);
  Header = R.header();
  // Every event takes at least one wire byte, so a footer that claims
  // more events than the file has bytes cannot be reserved for: the
  // stream check below rejects it with a typed Error.
  Records.reserve(std::min(R.footer().TotalEvents, R.fileSize()));
  Event E;
  while (R.next(E))
    append(E);
  Footer = R.footer();
}

ReplayOutcome trace::selectFromTrace(const CachedTrace &T,
                                     const ReplayConfig &Cfg) {
  tracer::TraceEngine Engine(Cfg.Hw, loopInfos(T.header()),
                             Cfg.ExtendedPcBinning);
  if (Cfg.DisableLoopAfterThreads)
    Engine.setDisableLoopAfterThreads(Cfg.DisableLoopAfterThreads);
  T.replay(Engine);
  return finishOutcome(Engine, Cfg, T.footer().Run, T.footer().TotalEvents);
}
