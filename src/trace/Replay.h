//===- trace/Replay.h - Trace-driven STL selection -------------------------==//
//
// Rebuilds the full TEST analysis stack (TraceEngine + Equation 1/2
// selection) from a recorded trace alone — no program, no interpretation.
// The header's annotated-locals table constructs the engine; the footer's
// recorded program cycles anchor the selection. Replaying under the
// recorded hardware config reproduces the live run's SelectionResult
// bit-for-bit; replaying under an overridden config is how one recorded
// trace feeds N ablation configurations. A capture is replayed one way:
// loaded into a CachedTrace (from a file or recorded in memory) and run
// through selectFromTrace().
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

/// Tracer-side knobs for a replayed analysis. recordedConfig() fills them
/// from the trace header; override fields to sweep them.
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
  interp::RunResult Run; ///< the capture run's results, from the footer
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

/// A fully decoded in-memory trace for sweep-style consumers: pays the
/// disk read, checksum, and varint decode exactly once, then feeds any
/// number of analysis configurations straight from memory. Construction
/// from a file checks all of it (header, footer, every event, the stream
/// against the footer) before any replay starts. It is also the recording
/// tee's in-memory destination: append() and finish() keep the footer the
/// way Writer does.
///
/// Events are held as one 8-byte record each, not 40-byte Events:
/// kind:4 | cycle delta:12 | payload:48, low bits first. The cycle and the
/// activation are deltas against a predictor holding the last cycle and
/// the last activation seen; every event advances it in capture order,
/// escaped ones included (a Return carries no cycle, so it leaves the
/// cycle word alone). The payload, low bits first, per kind:
///   heap:        Addr:32 | Pc+1:16
///   local:       Reg:16 | activation delta:16 | Pc+1:16
///   LoopStart:   LoopId:16 | activation delta:32
///   LoopIter, LoopEnd, ReadStats: LoopId:32
///   Return:      activation delta:48
///   CallSite:    Pc+1:32
///   CallReturn:  nothing
/// Activation deltas are signed. An event the record cannot reproduce
/// exactly (a delta outside its window, a field its kind does not carry
/// set away from its default) is kept whole in a side table and its
/// record holds the escape kind and the table index, so every appended
/// event comes back from forEach() unchanged.
///
/// One template, decode(), reads the layout. replay(Sink), the path of
/// selectFromTrace(), hands a narrow record's fields straight to the
/// sink's handler of its kind: one switch and, for the final
/// tracer::TraceEngine, one direct call per event, with no Event built.
/// An escaped record goes through dispatchEvent(). forEach() gives whole
/// Events, for tests and for re-encoding a capture; it and store()'s
/// exactness check rebuild a record's Event by decoding it into an
/// EventSink, so the record layout and the call-to-Event mapping are each
/// written once.
class CachedTrace {
public:
  /// Opens \p Path, drains it and validates the stream against its
  /// footer. Throws Error on any corruption.
  explicit CachedTrace(const std::string &Path);
  /// An empty capture of a run described by \p Header.
  explicit CachedTrace(const TraceHeader &Header) : Header(Header) {}

  /// Appends one event and counts it into the footer.
  void append(const Event &E) {
    store(E);
    countEvent(Footer, E);
  }
  /// Records the capture run's results in the footer.
  void finish(const interp::RunResult &Run) { Footer.Run = Run; }

  const TraceHeader &header() const { return Header; }
  const TraceFooter &footer() const { return Footer; }

  /// Calls \p F with every event, in capture order.
  template <typename Fn> void forEach(Fn &&F) const {
    Predictor P;
    for (std::uint64_t R : Records) {
      if ((R & 0xF) != EscapeKind) {
        F(unpackNarrow(R, P));
        continue;
      }
      const Event &E = Wide[R >> 4];
      P.advance(E);
      F(E);
    }
  }

  /// Calls \p S's TraceSink method of every event, in capture order, the
  /// same calls forEach() followed by dispatchEvent() makes. A narrow
  /// record goes from its bits straight into the call, with no Event in
  /// between; the calls bind to \p Sink's static type, so they are direct
  /// when Sink is a final class (tracer::TraceEngine).
  template <typename Sink> void replay(Sink &S) const {
    Predictor P;
    for (std::uint64_t R : Records) {
      if ((R & 0xF) != EscapeKind) {
        decode(R, P, S);
        continue;
      }
      const Event &E = Wide[R >> 4];
      P.advance(E);
      dispatchEvent(E, S);
    }
  }

  /// Bytes the event store occupies, side table included.
  std::uint64_t eventBytes() const {
    return Records.size() * sizeof(std::uint64_t) +
           Wide.size() * sizeof(Event);
  }

private:
  static constexpr std::uint64_t EscapeKind = 15;
  static_assert(NumEventKinds <= EscapeKind);

  /// Appends \p E's record, or escapes \p E into the side table when the
  /// record cannot give it back exactly. append() without the footer
  /// count: CachedTrace(path) takes the footer the Reader has checked the
  /// stream against, so it stores each event and counts none.
  void store(const Event &E) {
    std::uint64_t R = pack(E, Last);
    Predictor Check = Last;
    if (static_cast<std::uint8_t>(E.Kind) >= NumEventKinds ||
        !(unpackNarrow(R, Check) == E)) {
      R = EscapeKind | static_cast<std::uint64_t>(Wide.size()) << 4;
      Wide.push_back(E);
    }
    Records.push_back(R);
    Last.advance(E);
  }

  /// The last cycle and activation of the events before a record.
  /// unpackNarrow() advances it as it decodes; advance() is the rule it
  /// follows, for any event.
  struct Predictor {
    std::uint64_t Cycle = 0;
    std::uint64_t Activation = 0;

    void advance(const Event &E) {
      switch (E.Kind) {
      case EventKind::Return:
        Activation = E.Activation;
        return;
      case EventKind::LocalLoad:
      case EventKind::LocalStore:
      case EventKind::LoopStart:
        Activation = E.Activation;
        break;
      default:
        break;
      }
      Cycle = E.Cycle;
    }
  };

  static constexpr std::uint64_t mask(unsigned Bits) {
    return (1ull << Bits) - 1;
  }
  /// The \p Bits-wide field of \p P at bit \p At.
  static std::uint64_t field(std::uint64_t P, unsigned At, unsigned Bits) {
    return P >> At & mask(Bits);
  }
  /// The same field, sign-extended.
  static std::uint64_t signedField(std::uint64_t P, unsigned At,
                                   unsigned Bits) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(P << (64 - At - Bits)) >> (64 - Bits));
  }
  /// Pc+1, so the default Pc of -1 packs as 0.
  static std::uint64_t packPc(std::int32_t Pc) {
    return static_cast<std::uint32_t>(Pc) + 1u;
  }
  static std::int32_t unpackPc(std::uint64_t F) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(F) - 1u);
  }

  /// \p E's record against predictor \p Last, exact only when
  /// unpackNarrow gives \p E back.
  static std::uint64_t pack(const Event &E, const Predictor &Last) {
    std::uint64_t Act = E.Activation - Last.Activation;
    std::uint64_t P = 0;
    switch (E.Kind) {
    case EventKind::HeapLoad:
    case EventKind::HeapStore:
      P = E.Addr | (packPc(E.Pc) & mask(16)) << 32;
      break;
    case EventKind::LocalLoad:
    case EventKind::LocalStore:
      P = E.Reg | (Act & mask(16)) << 16 | (packPc(E.Pc) & mask(16)) << 32;
      break;
    case EventKind::LoopStart:
      P = (E.LoopId & mask(16)) | (Act & mask(32)) << 16;
      break;
    case EventKind::LoopIter:
    case EventKind::LoopEnd:
    case EventKind::ReadStats:
      P = E.LoopId;
      break;
    case EventKind::Return:
      P = Act & mask(48);
      break;
    case EventKind::CallSite:
      P = packPc(E.Pc) & mask(32);
      break;
    case EventKind::CallReturn:
      break;
    }
    std::uint64_t Cycle =
        E.Kind == EventKind::Return ? 0 : (E.Cycle - Last.Cycle) & mask(12);
    return (static_cast<std::uint64_t>(E.Kind) & 0xF) | Cycle << 4 | P << 16;
  }

  /// Decodes non-escape record \p R against predictor \p Last, advances
  /// the predictor past the event and calls \p V's TraceSink method of the
  /// record's kind with the event's fields. The one reader of the record
  /// layout: forEach() sees it through unpackNarrow(), replay() with the
  /// sink itself as \p V. Always inlined, so replay()'s loop keeps the
  /// predictor in registers; left to itself GCC outlines the engine's
  /// instance, and tracer-sweep then runs 3-5% fewer jobs per second.
  template <typename Visitor>
  [[gnu::always_inline]] static void decode(std::uint64_t R, Predictor &Last,
                                            Visitor &V) {
    Last.Cycle += field(R, 4, 12); // 0 in a Return's record
    const std::uint64_t Cycle = Last.Cycle;
    const std::uint64_t P = R >> 16;
    switch (static_cast<EventKind>(R & 0xF)) {
    case EventKind::HeapLoad:
      V.onHeapLoad(static_cast<std::uint32_t>(P), Cycle,
                   unpackPc(field(P, 32, 16)));
      break;
    case EventKind::HeapStore:
      V.onHeapStore(static_cast<std::uint32_t>(P), Cycle,
                    unpackPc(field(P, 32, 16)));
      break;
    case EventKind::LocalLoad:
      V.onLocalLoad(Last.Activation += signedField(P, 16, 16),
                    static_cast<std::uint16_t>(P), Cycle,
                    unpackPc(field(P, 32, 16)));
      break;
    case EventKind::LocalStore:
      V.onLocalStore(Last.Activation += signedField(P, 16, 16),
                     static_cast<std::uint16_t>(P), Cycle,
                     unpackPc(field(P, 32, 16)));
      break;
    case EventKind::LoopStart:
      V.onLoopStart(static_cast<std::uint32_t>(field(P, 0, 16)),
                    Last.Activation += signedField(P, 16, 32), Cycle);
      break;
    case EventKind::LoopIter:
      V.onLoopIter(static_cast<std::uint32_t>(P), Cycle);
      break;
    case EventKind::LoopEnd:
      V.onLoopEnd(static_cast<std::uint32_t>(P), Cycle);
      break;
    case EventKind::Return:
      V.onReturn(Last.Activation += signedField(P, 0, 48));
      break;
    case EventKind::CallSite:
      V.onCallSite(unpackPc(P), Cycle);
      break;
    case EventKind::CallReturn:
      V.onCallReturn(Cycle);
      break;
    case EventKind::ReadStats:
      V.onReadStats(static_cast<std::uint32_t>(P), Cycle);
      break;
    }
  }

  /// The event a non-escape record holds against predictor \p Last,
  /// which it advances past the event: decode() into an EventSink that
  /// keeps the Event it builds.
  static Event unpackNarrow(std::uint64_t R, Predictor &Last) {
    Event Out;
    EventSink Keep([&Out](const Event &E) {
      Out = E;
      return 0u;
    });
    decode(R, Last, Keep);
    return Out;
  }

  TraceHeader Header;
  TraceFooter Footer;
  std::vector<std::uint64_t> Records;
  std::vector<Event> Wide; ///< the escaped events, in capture order
  Predictor Last;          ///< append()'s predictor
};

/// Replays \p T into a fresh TraceEngine under \p Cfg and runs STL
/// selection against the recorded program cycles: the per-configuration
/// cost of a record-once/analyze-many sweep. Under recordedConfig() the
/// selection is bit-identical to the live profiled run's.
ReplayOutcome selectFromTrace(const CachedTrace &T, const ReplayConfig &Cfg);

} // namespace trace
} // namespace jrpm

#endif // JRPM_TRACE_REPLAY_H
