//===- trace/Writer.h - Streaming .jtrace capture --------------------------==//
//
// Writer streams TraceSink events to disk in buffered, delta-encoded
// chunks; RecordingSink is the tee that feeds it from a live annotated run
// while forwarding every event (and the downstream sink's cycle charges)
// unchanged, so recording never perturbs the run being recorded.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACE_WRITER_H
#define JRPM_TRACE_WRITER_H

#include "interp/TraceSink.h"
#include "trace/Wire.h"

#include <cstdio>

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
  void append(const Event &E);

  /// Flushes the final chunk, writes the footer and end magic, and closes
  /// the file. Must be called exactly once; a Writer destroyed without
  /// finish() leaves a file any Reader rejects as truncated.
  void finish(const RunInfo &Run);

  std::uint64_t eventsWritten() const { return Footer.TotalEvents; }
  std::uint64_t bytesWritten() const { return BytesWritten; }

private:
  void write(const void *Data, std::size_t Size);
  void writeU32(std::uint32_t V);
  void flushChunk();

  std::FILE *File = nullptr;
  std::string Path;
  std::vector<std::uint8_t> Chunk;
  std::uint32_t ChunkEvents = 0;
  DeltaState Deltas;
  TraceFooter Footer;
  std::uint64_t BytesWritten = 0;
};

/// TraceSink tee: records every event into \p W and forwards it to the
/// optional downstream sink, returning the downstream's cycle charges so
/// the captured run is cycle-identical to an unrecorded one.
class RecordingSink : public interp::TraceSink {
public:
  explicit RecordingSink(Writer &W, interp::TraceSink *Downstream = nullptr)
      : W(W), Down(Downstream) {}

  std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                           std::int32_t Pc) override {
    Event E;
    E.Kind = EventKind::HeapLoad;
    E.Addr = Addr;
    E.Cycle = Cycle;
    E.Pc = Pc;
    W.append(E);
    return Down ? Down->onHeapLoad(Addr, Cycle, Pc) : 0;
  }
  std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                            std::int32_t Pc) override {
    Event E;
    E.Kind = EventKind::HeapStore;
    E.Addr = Addr;
    E.Cycle = Cycle;
    E.Pc = Pc;
    W.append(E);
    return Down ? Down->onHeapStore(Addr, Cycle, Pc) : 0;
  }
  std::uint32_t onLocalLoad(std::uint64_t Activation, std::uint16_t Reg,
                            std::uint64_t Cycle, std::int32_t Pc) override {
    Event E;
    E.Kind = EventKind::LocalLoad;
    E.Activation = Activation;
    E.Reg = Reg;
    E.Cycle = Cycle;
    E.Pc = Pc;
    W.append(E);
    return Down ? Down->onLocalLoad(Activation, Reg, Cycle, Pc) : 0;
  }
  std::uint32_t onLocalStore(std::uint64_t Activation, std::uint16_t Reg,
                             std::uint64_t Cycle, std::int32_t Pc) override {
    Event E;
    E.Kind = EventKind::LocalStore;
    E.Activation = Activation;
    E.Reg = Reg;
    E.Cycle = Cycle;
    E.Pc = Pc;
    W.append(E);
    return Down ? Down->onLocalStore(Activation, Reg, Cycle, Pc) : 0;
  }
  std::uint32_t onLoopStart(std::uint32_t LoopId, std::uint64_t Activation,
                            std::uint64_t Cycle) override {
    Event E;
    E.Kind = EventKind::LoopStart;
    E.LoopId = LoopId;
    E.Activation = Activation;
    E.Cycle = Cycle;
    W.append(E);
    return Down ? Down->onLoopStart(LoopId, Activation, Cycle) : 0;
  }
  std::uint32_t onLoopIter(std::uint32_t LoopId,
                           std::uint64_t Cycle) override {
    Event E;
    E.Kind = EventKind::LoopIter;
    E.LoopId = LoopId;
    E.Cycle = Cycle;
    W.append(E);
    return Down ? Down->onLoopIter(LoopId, Cycle) : 0;
  }
  std::uint32_t onLoopEnd(std::uint32_t LoopId, std::uint64_t Cycle) override {
    Event E;
    E.Kind = EventKind::LoopEnd;
    E.LoopId = LoopId;
    E.Cycle = Cycle;
    W.append(E);
    return Down ? Down->onLoopEnd(LoopId, Cycle) : 0;
  }
  void onReturn(std::uint64_t Activation) override {
    Event E;
    E.Kind = EventKind::Return;
    E.Activation = Activation;
    W.append(E);
    if (Down)
      Down->onReturn(Activation);
  }
  void onCallSite(std::int32_t CallPc, std::uint64_t Cycle) override {
    Event E;
    E.Kind = EventKind::CallSite;
    E.Pc = CallPc;
    E.Cycle = Cycle;
    W.append(E);
    if (Down)
      Down->onCallSite(CallPc, Cycle);
  }
  void onCallReturn(std::uint64_t Cycle) override {
    Event E;
    E.Kind = EventKind::CallReturn;
    E.Cycle = Cycle;
    W.append(E);
    if (Down)
      Down->onCallReturn(Cycle);
  }
  std::uint32_t onReadStats(std::uint32_t LoopId,
                            std::uint64_t Cycle) override {
    Event E;
    E.Kind = EventKind::ReadStats;
    E.LoopId = LoopId;
    E.Cycle = Cycle;
    W.append(E);
    return Down ? Down->onReadStats(LoopId, Cycle) : 0;
  }

private:
  Writer &W;
  interp::TraceSink *Down;
};

} // namespace trace
} // namespace jrpm

#endif // JRPM_TRACE_WRITER_H
