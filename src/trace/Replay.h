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
///
/// Events are held as fixed 16-byte records, not 40-byte Events: one u64
/// packs kind:4 | reg:16 | cycle:44, and two u32 words carry the kind's
/// payload (heap: Addr, Pc; local: Activation, Pc; LoopStart: LoopId,
/// Activation; LoopIter/LoopEnd/ReadStats: LoopId; Return: Activation;
/// CallSite: Pc). An event the record cannot reproduce exactly (an
/// activation of 2^32 or more, a cycle of 2^44 or more, a field its kind
/// does not carry set away from its default) is kept whole in a side
/// table and its record holds the escape kind and the table index, so
/// every appended event comes back from forEach() unchanged.
class CachedTrace {
public:
  /// Opens \p Path, drains it and validates the stream against its
  /// footer. Throws Error on any corruption.
  explicit CachedTrace(const std::string &Path);
  /// An empty capture of a run described by \p Header.
  explicit CachedTrace(const TraceHeader &Header) : Header(Header) {}

  /// Appends one event and counts it into the footer.
  void append(const Event &E) {
    Record R = pack(E);
    if (static_cast<std::uint8_t>(E.Kind) >= NumEventKinds ||
        !(unpackNarrow(R) == E)) {
      std::uint64_t I = Wide.size();
      Wide.push_back(E);
      R = {EscapeKind, static_cast<std::uint32_t>(I),
           static_cast<std::uint32_t>(I >> 32)};
    }
    Records.push_back(R);
    countEvent(Footer, E);
  }
  /// Records the capture run's results in the footer.
  void finish(const RunInfo &Run) { Footer.Run = Run; }

  const TraceHeader &header() const { return Header; }
  const TraceFooter &footer() const { return Footer; }

  /// Calls \p F with every event, in capture order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const Record &R : Records)
      F(unpack(R));
  }

  /// Bytes the event store occupies, side table included.
  std::uint64_t eventBytes() const {
    return Records.size() * sizeof(Record) + Wide.size() * sizeof(Event);
  }

private:
  struct Record {
    std::uint64_t Head; ///< kind:4 | reg:16 | cycle:44
    std::uint32_t A;    ///< first payload word, or the low escape index
    std::uint32_t B;    ///< second payload word, or the high escape index
  };
  static_assert(sizeof(Record) == 16);
  static constexpr std::uint64_t EscapeKind = 15;
  static_assert(NumEventKinds <= EscapeKind);

  /// \p E's record, exact only when unpackNarrow gives \p E back.
  static Record pack(const Event &E) {
    Record R{static_cast<std::uint64_t>(E.Kind) |
                 static_cast<std::uint64_t>(E.Reg) << 4 | E.Cycle << 20,
             0, 0};
    auto Pc = static_cast<std::uint32_t>(E.Pc);
    auto Act = static_cast<std::uint32_t>(E.Activation);
    switch (E.Kind) {
    case EventKind::HeapLoad:
    case EventKind::HeapStore:
      R.A = E.Addr;
      R.B = Pc;
      break;
    case EventKind::LocalLoad:
    case EventKind::LocalStore:
      R.A = Act;
      R.B = Pc;
      break;
    case EventKind::LoopStart:
      R.A = E.LoopId;
      R.B = Act;
      break;
    case EventKind::LoopIter:
    case EventKind::LoopEnd:
    case EventKind::ReadStats:
      R.A = E.LoopId;
      break;
    case EventKind::Return:
      R.A = Act;
      break;
    case EventKind::CallSite:
      R.A = Pc;
      break;
    case EventKind::CallReturn:
      break;
    }
    return R;
  }

  /// The event a non-escape record holds; fields its kind does not carry
  /// keep their defaults.
  static Event unpackNarrow(const Record &R) {
    Event E;
    E.Kind = static_cast<EventKind>(R.Head & 0xF);
    E.Reg = static_cast<std::uint16_t>(R.Head >> 4);
    E.Cycle = R.Head >> 20;
    switch (E.Kind) {
    case EventKind::HeapLoad:
    case EventKind::HeapStore:
      E.Addr = R.A;
      E.Pc = static_cast<std::int32_t>(R.B);
      break;
    case EventKind::LocalLoad:
    case EventKind::LocalStore:
      E.Activation = R.A;
      E.Pc = static_cast<std::int32_t>(R.B);
      break;
    case EventKind::LoopStart:
      E.LoopId = R.A;
      E.Activation = R.B;
      break;
    case EventKind::LoopIter:
    case EventKind::LoopEnd:
    case EventKind::ReadStats:
      E.LoopId = R.A;
      break;
    case EventKind::Return:
      E.Activation = R.A;
      break;
    case EventKind::CallSite:
      E.Pc = static_cast<std::int32_t>(R.A);
      break;
    case EventKind::CallReturn:
      break;
    }
    return E;
  }

  Event unpack(const Record &R) const {
    if ((R.Head & 0xF) == EscapeKind)
      return Wide[R.A | static_cast<std::uint64_t>(R.B) << 32];
    return unpackNarrow(R);
  }

  TraceHeader Header;
  TraceFooter Footer;
  std::vector<Record> Records;
  std::vector<Event> Wide; ///< the escaped events, in capture order
};

/// Engine construction + replay + selection from an in-memory trace: the
/// per-configuration cost of a record-once/analyze-many sweep.
ReplayOutcome selectFromTrace(const CachedTrace &T, const ReplayConfig &Cfg);

} // namespace trace
} // namespace jrpm

#endif // JRPM_TRACE_REPLAY_H
