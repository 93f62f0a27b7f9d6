//===- trace/Writer.h - Streaming .jtrace capture --------------------------==//
//
// Writer streams TraceSink events to disk in buffered, delta-encoded
// chunks; RecordingSink is the tee that feeds it (or an in-memory
// trace::CachedTrace) from a live annotated run while forwarding every
// event (and the downstream sink's cycle charges) unchanged, so recording
// never perturbs the run being recorded.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACE_WRITER_H
#define JRPM_TRACE_WRITER_H

#include "interp/TraceSink.h"
#include "trace/Wire.h"

#include <cstdio>
#include <memory>

namespace jrpm {
namespace trace {

class Writer {
public:
  /// Opens \p Path and writes the header; throws Error(Io) on failure.
  Writer(const std::string &Path, const TraceHeader &Header);
  ~Writer();

  Writer(const Writer &) = delete;
  Writer &operator=(const Writer &) = delete;

  /// Appends one event to the current chunk (flushed automatically).
  /// Inline, so a RecordingSink<Writer> handler encodes its event straight
  /// into the chunk buffer.
  void append(const Event &E) {
    if (!File) [[unlikely]]
      appendAfterFinish();
    ChunkBytes = static_cast<std::size_t>(
        encodeEvent(Chunk.get() + ChunkBytes, E, Deltas) - Chunk.get());
    ++ChunkEvents;
    countEvent(Footer, E);
    if (ChunkBytes >= ChunkTargetBytes) [[unlikely]]
      flushChunk();
  }

  /// Flushes the final chunk, writes the footer and end magic, and closes
  /// the file. Must be called exactly once; a Writer destroyed without
  /// finish() leaves a file any Reader rejects as truncated.
  void finish(const RunInfo &Run);

  std::uint64_t bytesWritten() const { return BytesWritten; }

private:
  [[noreturn]] void appendAfterFinish() const;
  void write(const void *Data, std::size_t Size);
  void writeU32(std::uint32_t V);
  void flushChunk();

  std::FILE *File = nullptr;
  std::string Path;
  /// The current chunk's payload: its first ChunkBytes bytes. A chunk is
  /// flushed once it reaches ChunkTargetBytes, so it never holds more than
  /// ChunkTargetBytes - 1 bytes before an append.
  std::unique_ptr<std::uint8_t[]> Chunk =
      std::make_unique_for_overwrite<std::uint8_t[]>(ChunkTargetBytes +
                                                     MaxEventWireBytes);
  std::size_t ChunkBytes = 0;
  std::uint32_t ChunkEvents = 0;
  DeltaState Deltas;
  TraceFooter Footer;
  std::uint64_t BytesWritten = 0;
};

/// TraceSink tee: records every event into \p Dest and forwards it to the
/// downstream sink, returning the downstream's cycle charges so the
/// captured run is cycle-identical to an unrecorded one. \p Dest is a
/// Writer (a .jtrace file) or a CachedTrace (an in-memory capture); both
/// take append(Event) and finish(RunInfo). It is a template parameter so
/// recording adds no per-event virtual call.
template <typename Dest> class RecordingSink : public interp::TraceSink {
public:
  RecordingSink(Dest &D, interp::TraceSink &Down) : D(D), Down(Down) {}

  std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                           std::int32_t Pc) override {
    D.append({.Kind = EventKind::HeapLoad, .Cycle = Cycle, .Addr = Addr,
              .Pc = Pc});
    return Down.onHeapLoad(Addr, Cycle, Pc);
  }
  std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                            std::int32_t Pc) override {
    D.append({.Kind = EventKind::HeapStore, .Cycle = Cycle, .Addr = Addr,
              .Pc = Pc});
    return Down.onHeapStore(Addr, Cycle, Pc);
  }
  std::uint32_t onLocalLoad(std::uint64_t Activation, std::uint16_t Reg,
                            std::uint64_t Cycle, std::int32_t Pc) override {
    D.append({.Kind = EventKind::LocalLoad, .Cycle = Cycle,
              .Activation = Activation, .Reg = Reg, .Pc = Pc});
    return Down.onLocalLoad(Activation, Reg, Cycle, Pc);
  }
  std::uint32_t onLocalStore(std::uint64_t Activation, std::uint16_t Reg,
                             std::uint64_t Cycle, std::int32_t Pc) override {
    D.append({.Kind = EventKind::LocalStore, .Cycle = Cycle,
              .Activation = Activation, .Reg = Reg, .Pc = Pc});
    return Down.onLocalStore(Activation, Reg, Cycle, Pc);
  }
  std::uint32_t onLoopStart(std::uint32_t LoopId, std::uint64_t Activation,
                            std::uint64_t Cycle) override {
    D.append({.Kind = EventKind::LoopStart, .Cycle = Cycle,
              .Activation = Activation, .LoopId = LoopId});
    return Down.onLoopStart(LoopId, Activation, Cycle);
  }
  std::uint32_t onLoopIter(std::uint32_t LoopId,
                           std::uint64_t Cycle) override {
    D.append({.Kind = EventKind::LoopIter, .Cycle = Cycle, .LoopId = LoopId});
    return Down.onLoopIter(LoopId, Cycle);
  }
  std::uint32_t onLoopEnd(std::uint32_t LoopId, std::uint64_t Cycle) override {
    D.append({.Kind = EventKind::LoopEnd, .Cycle = Cycle, .LoopId = LoopId});
    return Down.onLoopEnd(LoopId, Cycle);
  }
  void onReturn(std::uint64_t Activation) override {
    D.append({.Kind = EventKind::Return, .Activation = Activation});
    Down.onReturn(Activation);
  }
  void onCallSite(std::int32_t CallPc, std::uint64_t Cycle) override {
    D.append({.Kind = EventKind::CallSite, .Cycle = Cycle, .Pc = CallPc});
    Down.onCallSite(CallPc, Cycle);
  }
  void onCallReturn(std::uint64_t Cycle) override {
    D.append({.Kind = EventKind::CallReturn, .Cycle = Cycle});
    Down.onCallReturn(Cycle);
  }
  std::uint32_t onReadStats(std::uint32_t LoopId,
                            std::uint64_t Cycle) override {
    D.append({.Kind = EventKind::ReadStats, .Cycle = Cycle, .LoopId = LoopId});
    return Down.onReadStats(LoopId, Cycle);
  }

private:
  Dest &D;
  interp::TraceSink &Down;
};

} // namespace trace
} // namespace jrpm

#endif // JRPM_TRACE_WRITER_H
