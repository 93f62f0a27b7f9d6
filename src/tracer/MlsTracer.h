//===- tracer/MlsTracer.h - Method-level speculation coverage --------------==//
//
// Section 4.1: "Speculative threads can be composed from loops, method call
// returns, and general regions. ... Our experiments so far have not found
// many method call return or general region decompositions that are either
// not covered by similar loop decompositions or have significant coverage
// to impact total execution time." This tracer measures that claim: for
// every call site it estimates how many cycles a method-return
// decomposition could overlap — the continuation runs speculatively in
// parallel with the callee until it loads a value the callee stored —
// so the exploitable MLS cycles can be compared against loop STL coverage.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACER_MLSTRACER_H
#define JRPM_TRACER_MLSTRACER_H

#include "interp/TraceSink.h"
#include "sim/Config.h"
#include "tracer/TimestampStores.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

namespace jrpm {
namespace tracer {

/// Per-call-site method-level speculation statistics.
struct MlsSiteStats {
  std::uint64_t Invocations = 0;
  std::uint64_t CalleeCycles = 0;  ///< total time spent in the callee
  std::uint64_t OverlapCycles = 0; ///< continuation overlap achievable

  double overlapFraction() const {
    return CalleeCycles ? static_cast<double>(OverlapCycles) /
                              static_cast<double>(CalleeCycles)
                        : 0;
  }
};

/// Observes annotated sequential execution and accumulates, per call site,
/// the overlap a fork-at-call decomposition could achieve. The analysis
/// shares the tracer's store-timestamp idea: a continuation load whose
/// last-store timestamp falls inside the callee's execution window is a
/// dependence on the callee and ends the speculative overlap.
class MlsTracer : public interp::TraceSink {
public:
  explicit MlsTracer(const sim::HydraConfig &Cfg)
      : HeapTs(Cfg.HeapTimestampFifoLines, Cfg.WordsPerLine) {}

  std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                           std::int32_t Pc) override {
    (void)Pc;
    std::uint64_t Ts = HeapTs.lookup(Addr);
    expireWindows(Cycle);
    for (Window &W : Returned) {
      if (W.Closed)
        continue;
      if (Ts != NoTimestamp && Ts >= W.Start && Ts <= W.Return)
        closeWindow(W, Cycle);
    }
    return 0;
  }

  std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                            std::int32_t Pc) override {
    (void)Pc;
    HeapTs.recordStore(Addr, Cycle);
    expireWindows(Cycle);
    return 0;
  }

  std::uint32_t onLocalLoad(std::uint64_t, std::uint16_t, std::uint64_t,
                            std::int32_t) override {
    return 0;
  }
  std::uint32_t onLocalStore(std::uint64_t, std::uint16_t, std::uint64_t,
                             std::int32_t) override {
    return 0;
  }
  std::uint32_t onLoopStart(std::uint32_t, std::uint64_t,
                            std::uint64_t) override {
    return 0;
  }
  std::uint32_t onLoopIter(std::uint32_t, std::uint64_t) override {
    return 0;
  }
  std::uint32_t onLoopEnd(std::uint32_t, std::uint64_t) override { return 0; }
  void onReturn(std::uint64_t) override {}

  void onCallSite(std::int32_t CallPc, std::uint64_t Cycle) override {
    CallStack.push_back({CallPc, Cycle});
  }

  void onCallReturn(std::uint64_t Cycle) override {
    if (CallStack.empty())
      return; // the entry function's return
    OpenCall C = CallStack.back();
    CallStack.pop_back();
    Window W;
    W.SitePc = C.SitePc;
    W.Start = C.Start;
    W.Return = Cycle;
    MlsSiteStats &S = Stats[C.SitePc];
    ++S.Invocations;
    S.CalleeCycles += Cycle - C.Start;
    if (Returned.size() == MaxWindows) {
      // Evicted windows saw no dependence while observed: credit what was
      // proven so far.
      closeWindow(Returned.front(), Returned.front().LastSeen);
      Returned.pop_front();
    }
    W.LastSeen = Cycle;
    Returned.push_back(W);
  }

  /// Per-site statistics, keyed by the call instruction's PC.
  const std::map<std::int32_t, MlsSiteStats> &siteStats() const {
    return Stats;
  }

  /// Total cycles a fork-at-call MLS decomposition could overlap.
  std::uint64_t totalOverlapCycles() const {
    std::uint64_t Sum = 0;
    for (const auto &[Pc, S] : Stats)
      Sum += S.OverlapCycles;
    return Sum;
  }

  /// Flushes still-open windows at program end.
  void finish(std::uint64_t Cycle) {
    for (Window &W : Returned)
      if (!W.Closed)
        closeWindow(W, Cycle);
    Returned.clear();
  }

private:
  struct OpenCall {
    std::int32_t SitePc;
    std::uint64_t Start;
  };
  /// A recently returned call whose continuation is being watched.
  struct Window {
    std::int32_t SitePc = 0;
    std::uint64_t Start = 0;
    std::uint64_t Return = 0;
    std::uint64_t LastSeen = 0;
    bool Closed = false;
  };

  void closeWindow(Window &W, std::uint64_t Cycle) {
    if (W.Closed)
      return;
    W.Closed = true;
    std::uint64_t Dur = W.Return - W.Start;
    std::uint64_t Independent = Cycle >= W.Return ? Cycle - W.Return : 0;
    Stats[W.SitePc].OverlapCycles += std::min(Dur, Independent);
  }

  /// Windows whose continuation already ran for the callee's full duration
  /// have proven complete overlap; close them.
  void expireWindows(std::uint64_t Cycle) {
    for (Window &W : Returned) {
      if (!W.Closed) {
        W.LastSeen = Cycle;
        if (Cycle - W.Return >= W.Return - W.Start)
          closeWindow(W, Cycle);
      }
    }
    while (!Returned.empty() && Returned.front().Closed)
      Returned.pop_front();
  }

  static constexpr std::size_t MaxWindows = 8;
  HeapStoreTimestamps HeapTs;
  std::vector<OpenCall> CallStack;
  std::deque<Window> Returned;
  std::map<std::int32_t, MlsSiteStats> Stats;
};

} // namespace tracer
} // namespace jrpm

#endif // JRPM_TRACER_MLSTRACER_H
