//===- trace/Reader.h - Validating .jtrace reader --------------------------==//
//
// Reader decodes a recorded trace with strict validation: every framing,
// checksum, range, or ordering violation throws a typed trace::Error, so a
// corrupt or truncated file can never crash a consumer or silently skew an
// analysis. It feeds CachedTrace(path), through which every replay of a
// file goes, and the dump, info and diff views.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACE_READER_H
#define JRPM_TRACE_READER_H

#include "interp/TraceSink.h"
#include "trace/Wire.h"

#include <cstdio>

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
  bool next(Event &E);

private:
  void readAt(std::uint64_t Offset, void *Out, std::size_t Size);
  std::uint32_t readU32At(std::uint64_t Offset);
  void loadNextBlock();
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

/// Delivers one decoded event to \p Sink, mapping wire kinds back onto the
/// TraceSink interface. Cycle-charge return values are ignored: the
/// recorded cycle stream already includes them. CachedTrace::replay()
/// sends an escaped record through it; a narrow record's kind is mapped
/// by CachedTrace's decoder.
inline void dispatchEvent(const Event &E, interp::TraceSink &Sink) {
  switch (E.Kind) {
  case EventKind::HeapLoad:
    Sink.onHeapLoad(E.Addr, E.Cycle, E.Pc);
    break;
  case EventKind::HeapStore:
    Sink.onHeapStore(E.Addr, E.Cycle, E.Pc);
    break;
  case EventKind::LocalLoad:
    Sink.onLocalLoad(E.Activation, E.Reg, E.Cycle, E.Pc);
    break;
  case EventKind::LocalStore:
    Sink.onLocalStore(E.Activation, E.Reg, E.Cycle, E.Pc);
    break;
  case EventKind::LoopStart:
    Sink.onLoopStart(E.LoopId, E.Activation, E.Cycle);
    break;
  case EventKind::LoopIter:
    Sink.onLoopIter(E.LoopId, E.Cycle);
    break;
  case EventKind::LoopEnd:
    Sink.onLoopEnd(E.LoopId, E.Cycle);
    break;
  case EventKind::Return:
    Sink.onReturn(E.Activation);
    break;
  case EventKind::CallSite:
    Sink.onCallSite(E.Pc, E.Cycle);
    break;
  case EventKind::CallReturn:
    Sink.onCallReturn(E.Cycle);
    break;
  case EventKind::ReadStats:
    Sink.onReadStats(E.LoopId, E.Cycle);
    break;
  }
}

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
