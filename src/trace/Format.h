//===- trace/Format.h - Binary .jtrace format definitions ------------------==//
//
// The persistent form of the annotated-execution event stream (everything
// interp::TraceSink sees). A trace is: a header (format version, workload
// identity, capture configuration, per-loop annotation tables), a sequence
// of independently-decodable chunks of varint/delta-encoded events with a
// CRC32 each, and a footer (per-kind event counts, final cycle, the
// capture run's RunResult) addressable in O(1) from the end of the file.
//
// Layout:
//
//   +--------------------------------------------------------------+
//   | magic "JRPMTRC1" | u32 version | u32 size | u32 crc | header |
//   +--------------------------------------------------------------+
//   | tag 0x01 | u32 size | u32 events | u32 crc | chunk payload   |  (xN)
//   +--------------------------------------------------------------+
//   | tag 0x02 | u32 size | u32 crc | footer payload               |
//   +--------------------------------------------------------------+
//   | u32 footer block size | magic "JRPMTEND"                     |
//   +--------------------------------------------------------------+
//
// All multi-byte integers inside payloads are LEB128 varints; deltas
// (cycle, pc, address, activation) are zigzag-encoded against per-chunk
// predictors that reset at every chunk boundary, so chunks decode
// independently and a corrupt chunk cannot poison its successors.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACE_FORMAT_H
#define JRPM_TRACE_FORMAT_H

#include "ir/AnnotationVerifier.h"
#include "sim/Config.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace jrpm {
namespace trace {

// --- Constants -------------------------------------------------------------

/// Leading file magic ("JRPM trace, major format 1").
inline constexpr char FileMagic[8] = {'J', 'R', 'P', 'M', 'T', 'R', 'C', '1'};
/// Trailing file magic; its presence certifies the footer was written.
inline constexpr char EndMagic[8] = {'J', 'R', 'P', 'M', 'T', 'E', 'N', 'D'};
/// Bump on any incompatible layout change; readers reject other versions.
inline constexpr std::uint32_t FormatVersion = 1;

inline constexpr std::uint8_t ChunkTag = 0x01;
inline constexpr std::uint8_t FooterTag = 0x02;

/// Writer flushes a chunk once its payload reaches this size.
inline constexpr std::size_t ChunkTargetBytes = 64 * 1024;

// --- Events ----------------------------------------------------------------

/// Every event kind interp::TraceSink can observe, in stable wire order.
enum class EventKind : std::uint8_t {
  HeapLoad = 0,
  HeapStore = 1,
  LocalLoad = 2,
  LocalStore = 3,
  LoopStart = 4,
  LoopIter = 5,
  LoopEnd = 6,
  Return = 7,
  CallSite = 8,
  CallReturn = 9,
  ReadStats = 10,
};
inline constexpr std::uint32_t NumEventKinds = 11;

const char *eventKindName(EventKind K);

/// One decoded trace event. Only the fields relevant to `Kind` are
/// meaningful; the rest stay at their defaults.
struct Event {
  EventKind Kind = EventKind::HeapLoad;
  std::uint64_t Cycle = 0;      ///< all kinds except Return
  std::uint64_t Activation = 0; ///< LocalLoad/Store, LoopStart, Return
  std::uint32_t Addr = 0;       ///< HeapLoad/Store
  std::uint32_t LoopId = 0;     ///< LoopStart/Iter/End, ReadStats
  std::uint16_t Reg = 0;        ///< LocalLoad/Store
  std::int32_t Pc = -1;         ///< HeapLoad/Store, LocalLoad/Store, CallSite

  bool operator==(const Event &O) const = default;
};

// --- Header & footer -------------------------------------------------------

/// Everything a replay needs to rebuild the capture-time analysis stack
/// without the program: the annotated-locals table drives TraceEngine
/// construction and the captured HydraConfig reproduces the exact hardware
/// model (replays may override it to feed one trace into many configs).
struct TraceHeader {
  std::string WorkloadName;
  /// jit::AnnotationLevel as an integer (0 = Base, 1 = Optimized).
  std::uint8_t AnnotationLevel = 1;
  bool ExtendedPcBinning = false;
  std::uint64_t DisableLoopAfterThreads = 0;
  sim::HydraConfig Hw;
  /// Per-loop annotated locals, indexed by module-global loop id.
  std::vector<ir::LoopAnnotationInfo> LoopLocals;
};

/// Summary of the capture run, mirrored from interp::RunResult so the trace
/// library does not depend on the interpreter.
struct RunInfo {
  std::uint64_t Cycles = 0;
  std::uint64_t Instructions = 0;
  std::uint64_t ReturnValue = 0;
  std::uint64_t Loads = 0;
  std::uint64_t Stores = 0;
  std::uint64_t L1Misses = 0;

  bool operator==(const RunInfo &O) const = default;
};

struct TraceFooter {
  std::uint64_t EventCounts[NumEventKinds] = {};
  std::uint64_t TotalEvents = 0;
  /// Cycle stamp of the last cycle-bearing event (0 when none).
  std::uint64_t LastCycle = 0;
  RunInfo Run;
};

/// Tallies \p E into \p F: its kind's count, the total and the last cycle.
/// The one footer count shared by Writer, an in-memory CachedTrace capture
/// and the Reader's cross-check.
inline void countEvent(TraceFooter &F, const Event &E) {
  ++F.EventCounts[static_cast<std::uint8_t>(E.Kind)];
  ++F.TotalEvents;
  if (E.Kind != EventKind::Return)
    F.LastCycle = E.Cycle;
}

// --- Errors ----------------------------------------------------------------

enum class ErrorKind {
  Io,                ///< open/read/write/seek failure
  BadMagic,          ///< leading or trailing magic missing
  BadVersion,        ///< format version not understood
  Truncated,         ///< file ends inside a record
  BadChecksum,       ///< CRC32 mismatch (header, chunk, or footer)
  BadRecord,         ///< unknown record tag or malformed record framing
  BadVarint,         ///< varint runs past its payload or overflows
  UnknownEventKind,  ///< event kind byte outside the known range
  EventOutOfRange,   ///< event references a loop id outside the header table
  NonMonotonicCycle, ///< cycle stamps decrease (spliced/reordered chunks)
  FooterMismatch,    ///< footer totals disagree with the decoded stream
  TrailingData,      ///< bytes after the end magic
  MissingFooter,     ///< stream ended without a footer record
};

const char *errorKindName(ErrorKind K);

/// Every malformed input the reader can encounter surfaces as this typed
/// exception — never UB, never an abort.
class Error : public std::runtime_error {
public:
  Error(ErrorKind K, const std::string &Message)
      : std::runtime_error(std::string(errorKindName(K)) + ": " + Message),
        Kind(K) {}

  ErrorKind kind() const { return Kind; }

private:
  ErrorKind Kind;
};

// --- CRC32 (IEEE 802.3, the zlib polynomial) -------------------------------

std::uint32_t crc32(const std::uint8_t *Data, std::size_t Size);

// --- Varint / zigzag helpers ----------------------------------------------

inline void appendVarint(std::vector<std::uint8_t> &Out, std::uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<std::uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<std::uint8_t>(V));
}

/// Raw-pointer varint writer for the event hot path: the caller guarantees
/// at least 10 bytes of room behind \p P. Returns the advanced pointer.
inline std::uint8_t *writeVarint(std::uint8_t *P, std::uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<std::uint8_t>(V) | 0x80;
    V >>= 7;
  }
  *P++ = static_cast<std::uint8_t>(V);
  return P;
}

inline std::uint64_t zigzag(std::int64_t V) {
  return (static_cast<std::uint64_t>(V) << 1) ^
         static_cast<std::uint64_t>(V >> 63);
}

inline std::int64_t unzigzag(std::uint64_t V) {
  return static_cast<std::int64_t>(V >> 1) ^
         -static_cast<std::int64_t>(V & 1);
}

inline std::uint8_t *writeZigzag(std::uint8_t *P, std::int64_t V) {
  return writeVarint(P, zigzag(V));
}

/// Decodes one varint from [*P, End); throws Error::BadVarint when the
/// encoding runs past End or exceeds 64 bits.
inline std::uint64_t parseVarint(const std::uint8_t *&P,
                                 const std::uint8_t *End) {
  std::uint64_t V = 0;
  unsigned Shift = 0;
  while (P != End) {
    std::uint8_t B = *P++;
    if (Shift == 63 && (B & 0x7E))
      throw Error(ErrorKind::BadVarint, "varint overflows 64 bits");
    V |= static_cast<std::uint64_t>(B & 0x7F) << Shift;
    if (!(B & 0x80))
      return V;
    Shift += 7;
    if (Shift > 63)
      throw Error(ErrorKind::BadVarint, "varint overflows 64 bits");
  }
  throw Error(ErrorKind::BadVarint, "varint runs past end of payload");
}

inline std::int64_t parseZigzag(const std::uint8_t *&P,
                                const std::uint8_t *End) {
  return unzigzag(parseVarint(P, End));
}

} // namespace trace
} // namespace jrpm

#endif // JRPM_TRACE_FORMAT_H
