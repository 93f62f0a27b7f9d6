//===- trace/Replay.cpp ----------------------------------------------------==//

#include "trace/Replay.h"

#include <algorithm>

using namespace jrpm;
using namespace jrpm::trace;

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
    store(E);
  Footer = R.footer();
}

ReplayOutcome trace::selectFromTrace(const CachedTrace &T,
                                     const ReplayConfig &Cfg) {
  // The engine copies its HydraConfig, so callers may pass configs in
  // temporaries — a sweep-job requirement; see the reentrancy note in
  // TraceEngine.h.
  tracer::TraceEngine Engine(Cfg.Hw, T.header().LoopLocals,
                             Cfg.ExtendedPcBinning);
  if (Cfg.DisableLoopAfterThreads)
    Engine.setDisableLoopAfterThreads(Cfg.DisableLoopAfterThreads);
  T.replay(Engine);

  ReplayOutcome Out;
  Out.EventsReplayed = T.footer().TotalEvents;
  Out.Run = T.footer().Run;
  Out.Selection = tracer::selectStls(Engine, Out.Run.Cycles, Cfg.Hw);
  Out.PeakBanksInUse = Engine.peakBanksInUse();
  Out.PeakLocalSlots = Engine.peakLocalSlots();
  Out.PeakDynamicNest = Engine.peakDynamicNest();
  if (Cfg.Metrics) {
    Engine.exportMetrics(*Cfg.Metrics);
    Cfg.Metrics->counter("trace.events_replayed").inc(Out.EventsReplayed);
  }
  return Out;
}
