//===- trace/Replay.h - Trace-driven STL selection -------------------------==//
//
// Rebuilds the full TEST analysis stack (TraceEngine + Equation 1/2
// selection) from a recorded trace alone — no program, no interpretation.
// The header's annotated-locals table constructs the engine; the footer's
// recorded program cycles anchor the selection. Replaying under the
// recorded hardware config reproduces the live run's SelectionResult
// bit-for-bit; replaying under an overridden config is how one recorded
// trace feeds N ablation configurations.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACE_REPLAY_H
#define JRPM_TRACE_REPLAY_H

#include "tracer/Selector.h"
#include "trace/Reader.h"

namespace jrpm {
namespace metrics {
class Registry;
} // namespace metrics

namespace trace {

/// Tracer-side knobs for a replayed analysis. Defaults are filled from the
/// trace header by selectFromTrace(); override fields to sweep them.
struct ReplayConfig {
  sim::HydraConfig Hw;
  bool ExtendedPcBinning = false;
  std::uint64_t DisableLoopAfterThreads = 0;
  /// When set, the replayed engine exports its "tracer.*" metrics here
  /// (plus a "trace.events_replayed" counter). A replay under the recorded
  /// config exports bytes identical to the live run's tracer metrics.
  metrics::Registry *Metrics = nullptr;
};

struct ReplayOutcome {
  tracer::SelectionResult Selection;
  RunInfo Run; ///< the capture run's results, from the footer
  std::uint32_t PeakBanksInUse = 0;
  std::uint32_t PeakLocalSlots = 0;
  std::uint32_t PeakDynamicNest = 0;
  std::uint64_t EventsReplayed = 0;

  bool operator==(const ReplayOutcome &O) const = default;
};

/// Copies the tracer-side fields (Hw, ExtendedPcBinning,
/// DisableLoopAfterThreads) between any two of TraceHeader, ReplayConfig
/// and pipeline::PipelineConfig, which spell them alike. Nothing else is
/// copied: callers decide where a replay exports its metrics.
template <typename From, typename To>
void copyTracerConfig(const From &F, To &T) {
  T.Hw = F.Hw;
  T.ExtendedPcBinning = F.ExtendedPcBinning;
  T.DisableLoopAfterThreads = F.DisableLoopAfterThreads;
}

/// The replay config a trace with header \p H was captured under.
inline ReplayConfig recordedConfig(const TraceHeader &H) {
  ReplayConfig Cfg;
  copyTracerConfig(H, Cfg);
  return Cfg;
}

/// Replays \p R into a fresh TraceEngine under \p Cfg and runs STL
/// selection against the recorded program cycles. Throws Error on any
/// corruption.
ReplayOutcome selectFromTrace(Reader &R, const ReplayConfig &Cfg);

/// Replay under the exact capture-time configuration: bit-identical to the
/// live profiled run's selection.
inline ReplayOutcome selectFromTrace(Reader &R) {
  return selectFromTrace(R, recordedConfig(R.header()));
}

/// A fully decoded in-memory trace for sweep-style consumers: pays the
/// disk read, checksum, and varint decode exactly once, then feeds any
/// number of analysis configurations straight from memory. Construction
/// from a file performs the same strict validation as streaming the whole
/// file. It is also RecordingSink's in-memory destination: append() and
/// finish() keep the footer the way Writer does.
class CachedTrace {
public:
  /// Opens \p Path, drains it and validates the stream against its
  /// footer. Throws Error on any corruption.
  explicit CachedTrace(const std::string &Path);
  /// An empty capture of a run described by \p Header.
  explicit CachedTrace(const TraceHeader &Header) : Header(Header) {}

  /// Appends one event and counts it into the footer.
  void append(const Event &E) {
    Events.push_back(E);
    countEvent(Footer, E);
  }
  /// Records the capture run's results in the footer.
  void finish(const RunInfo &Run) { Footer.Run = Run; }

  const TraceHeader &header() const { return Header; }
  const TraceFooter &footer() const { return Footer; }
  const std::vector<Event> &events() const { return Events; }

private:
  TraceHeader Header;
  TraceFooter Footer;
  std::vector<Event> Events;
};

/// Engine construction + replay + selection from an in-memory trace: the
/// per-configuration cost of a record-once/analyze-many sweep.
ReplayOutcome selectFromTrace(const CachedTrace &T, const ReplayConfig &Cfg);

} // namespace trace
} // namespace jrpm

#endif // JRPM_TRACE_REPLAY_H
