//===- trace/Reader.h - Validating .jtrace reader --------------------------==//
//
// Reader decodes a recorded trace with strict validation: every framing,
// checksum, range, or ordering violation throws a typed trace::Error, so a
// corrupt or truncated file can never crash a consumer or silently skew an
// analysis. It feeds CachedTrace(path), through which every replay of a
// file goes, and the dump, info and diff views. dispatchEvent() and
// EventSink, the two mappings between an Event and a TraceSink call, live
// here too.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACE_READER_H
#define JRPM_TRACE_READER_H

#include "interp/TraceSink.h"
#include "trace/Wire.h"

#include <cstdio>
#include <utility>

namespace jrpm {
namespace trace {

class Reader {
public:
  /// Opens \p Path and reads + validates the header. Throws Error.
  explicit Reader(const std::string &Path);
  ~Reader();

  Reader(const Reader &) = delete;
  Reader &operator=(const Reader &) = delete;

  const std::string &path() const { return Path; }
  const TraceHeader &header() const { return Header; }
  std::uint64_t fileSize() const { return FileSize; }

  /// O(1) footer access via the trailing block-size field — no event
  /// decoding. Independent of the sequential cursor.
  const TraceFooter &footer();

  /// Decodes the next event into \p E. Returns false once the footer is
  /// reached, after cross-checking it against the decoded stream (event
  /// counts per kind, total events, final cycle) and verifying the file
  /// ends exactly at the end magic.
  /// The in-chunk path is inline; the chunk loads and the error paths
  /// are out of line.
  bool next(Event &E) {
    if (ChunkEventsLeft == 0 && !nextChunk()) [[unlikely]]
      return false;
    E = decodeEvent(Cur, End, Deltas, Header.LoopLocals.size());
    --ChunkEventsLeft;
    // LastCycle starts at 0, so the first cycle-bearing event always passes.
    if (E.Kind != EventKind::Return && E.Cycle < Tally.LastCycle) [[unlikely]]
      cycleWentBack(E.Cycle);
    countEvent(Tally, E);
    return true;
  }

private:
  void readAt(std::uint64_t Offset, void *Out, std::size_t Size);
  std::uint32_t readU32At(std::uint64_t Offset);
  /// Loads blocks until one holds an event (true) or the stream ends at a
  /// checked footer (false).
  bool nextChunk();
  void loadNextBlock();
  /// Throws NonMonotonicCycle for \p Cycle after Tally.LastCycle.
  [[noreturn]] void cycleWentBack(std::uint64_t Cycle) const;
  /// Reads the footer record whose tag byte is at \p TagOffset and checks
  /// its framing: payload CRC, block-size field, end magic, and that the
  /// file ends there. Both footer() and the stream's end read through it.
  TraceFooter readFooter(std::uint64_t TagOffset);
  void finishStream(std::uint64_t FooterStart);

  std::string Path;
  std::FILE *File = nullptr;
  std::uint64_t FileSize = 0;
  TraceHeader Header;

  // Sequential cursor state.
  std::uint64_t Offset = 0; ///< next unread file offset
  std::vector<std::uint8_t> Chunk;
  const std::uint8_t *Cur = nullptr;
  const std::uint8_t *End = nullptr;
  std::uint32_t ChunkEventsLeft = 0;
  DeltaState Deltas;
  TraceFooter Tally; ///< accumulated while decoding, checked vs footer
  bool Done = false;

  // Cached O(1) footer.
  TraceFooter CachedFooter;
  bool FooterCached = false;
};

/// Calls \p Sink's TraceSink method of \p E's kind with \p E's fields and
/// returns the method's cycle charge (0 from those that return none). The
/// one mapping from an Event to a TraceSink call; EventSink below is its
/// inverse. CachedTrace::replay() sends an escaped record through it and
/// Jrpm's recording tee forwards every live event through it. Always
/// inlined, so a caller whose event kind is a constant makes one call and
/// no switch.
[[gnu::always_inline]] inline std::uint32_t
dispatchEvent(const Event &E, interp::TraceSink &Sink) {
  switch (E.Kind) {
  case EventKind::HeapLoad:
    return Sink.onHeapLoad(E.Addr, E.Cycle, E.Pc);
  case EventKind::HeapStore:
    return Sink.onHeapStore(E.Addr, E.Cycle, E.Pc);
  case EventKind::LocalLoad:
    return Sink.onLocalLoad(E.Activation, E.Reg, E.Cycle, E.Pc);
  case EventKind::LocalStore:
    return Sink.onLocalStore(E.Activation, E.Reg, E.Cycle, E.Pc);
  case EventKind::LoopStart:
    return Sink.onLoopStart(E.LoopId, E.Activation, E.Cycle);
  case EventKind::LoopIter:
    return Sink.onLoopIter(E.LoopId, E.Cycle);
  case EventKind::LoopEnd:
    return Sink.onLoopEnd(E.LoopId, E.Cycle);
  case EventKind::Return:
    Sink.onReturn(E.Activation);
    return 0;
  case EventKind::CallSite:
    Sink.onCallSite(E.Pc, E.Cycle);
    return 0;
  case EventKind::CallReturn:
    Sink.onCallReturn(E.Cycle);
    return 0;
  case EventKind::ReadStats:
    return Sink.onReadStats(E.LoopId, E.Cycle);
  }
  return 0;
}

/// The one mapping from a TraceSink call to an Event: each handler builds
/// its call's Event, with the fields its kind does not carry at their
/// defaults, and returns \p F(E) as the call's cycle charge (a handler
/// that returns nothing drops it). Jrpm's recording tee is an EventSink
/// whose \p F appends the event to the capture and dispatchEvent()s it to
/// the tracer; CachedTrace rebuilds a packed record's Event through one.
/// Final, so a caller that holds an EventSink by its own type calls the
/// handlers directly and can inline \p F.
template <typename Fn> class EventSink final : public interp::TraceSink {
public:
  explicit EventSink(Fn F) : F(std::move(F)) {}

  std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                           std::int32_t Pc) override {
    return F(Event{.Kind = EventKind::HeapLoad, .Cycle = Cycle, .Addr = Addr,
                   .Pc = Pc});
  }
  std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                            std::int32_t Pc) override {
    return F(Event{.Kind = EventKind::HeapStore, .Cycle = Cycle, .Addr = Addr,
                   .Pc = Pc});
  }
  std::uint32_t onLocalLoad(std::uint64_t Activation, std::uint16_t Reg,
                            std::uint64_t Cycle, std::int32_t Pc) override {
    return F(Event{.Kind = EventKind::LocalLoad, .Cycle = Cycle,
                   .Activation = Activation, .Reg = Reg, .Pc = Pc});
  }
  std::uint32_t onLocalStore(std::uint64_t Activation, std::uint16_t Reg,
                             std::uint64_t Cycle, std::int32_t Pc) override {
    return F(Event{.Kind = EventKind::LocalStore, .Cycle = Cycle,
                   .Activation = Activation, .Reg = Reg, .Pc = Pc});
  }
  std::uint32_t onLoopStart(std::uint32_t LoopId, std::uint64_t Activation,
                            std::uint64_t Cycle) override {
    return F(Event{.Kind = EventKind::LoopStart, .Cycle = Cycle,
                   .Activation = Activation, .LoopId = LoopId});
  }
  std::uint32_t onLoopIter(std::uint32_t LoopId,
                           std::uint64_t Cycle) override {
    return F(
        Event{.Kind = EventKind::LoopIter, .Cycle = Cycle, .LoopId = LoopId});
  }
  std::uint32_t onLoopEnd(std::uint32_t LoopId, std::uint64_t Cycle) override {
    return F(
        Event{.Kind = EventKind::LoopEnd, .Cycle = Cycle, .LoopId = LoopId});
  }
  void onReturn(std::uint64_t Activation) override {
    F(Event{.Kind = EventKind::Return, .Activation = Activation});
  }
  void onCallSite(std::int32_t CallPc, std::uint64_t Cycle) override {
    F(Event{.Kind = EventKind::CallSite, .Cycle = Cycle, .Pc = CallPc});
  }
  void onCallReturn(std::uint64_t Cycle) override {
    F(Event{.Kind = EventKind::CallReturn, .Cycle = Cycle});
  }
  std::uint32_t onReadStats(std::uint32_t LoopId,
                            std::uint64_t Cycle) override {
    return F(
        Event{.Kind = EventKind::ReadStats, .Cycle = Cycle, .LoopId = LoopId});
  }

private:
  Fn F;
};

/// Event-by-event comparison of two traces for golden-trace regression.
struct DiffResult {
  bool Identical = false;
  /// Index of the first diverging event (or the shorter stream's length).
  std::uint64_t FirstDivergence = 0;
  /// Human-readable description of the first divergence; empty when equal.
  std::string Detail;
};

DiffResult diffTraces(Reader &A, Reader &B);

} // namespace trace
} // namespace jrpm

#endif // JRPM_TRACE_READER_H
