//===- trace/Writer.h - Streaming .jtrace capture --------------------------==//
//
// Writer streams TraceSink events to disk in buffered, delta-encoded
// chunks. A live annotated run feeds it (or an in-memory
// trace::CachedTrace, which takes the same append() and finish()) through
// Jrpm's recording tee, an EventSink (Reader.h) that forwards every event
// and the tracer's cycle charges unchanged, so recording never perturbs
// the run being recorded.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACE_WRITER_H
#define JRPM_TRACE_WRITER_H

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
  /// Inline, with encodeEvent inlined into it, so an append makes no call
  /// until a chunk fills.
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
  void finish(const interp::RunResult &Run);

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

} // namespace trace
} // namespace jrpm

#endif // JRPM_TRACE_WRITER_H
