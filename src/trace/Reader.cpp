//===- trace/Reader.cpp ----------------------------------------------------==//

#include "trace/Reader.h"

#include "trace/Dump.h"

#include <cstring>

using namespace jrpm;
using namespace jrpm::trace;

Reader::Reader(const std::string &Path) : Path(Path) {
  File = std::fopen(Path.c_str(), "rb");
  if (!File)
    throw Error(ErrorKind::Io, "cannot open '" + Path + "' for reading");
  if (std::fseek(File, 0, SEEK_END) != 0)
    throw Error(ErrorKind::Io, "cannot seek '" + Path + "'");
  long Size = std::ftell(File);
  if (Size < 0)
    throw Error(ErrorKind::Io, "cannot size '" + Path + "'");
  FileSize = static_cast<std::uint64_t>(Size);

  char Magic[sizeof(FileMagic)];
  readAt(0, Magic, sizeof(Magic));
  if (std::memcmp(Magic, FileMagic, sizeof(FileMagic)) != 0)
    throw Error(ErrorKind::BadMagic, "'" + Path + "' is not a jtrace file");
  std::uint32_t Version = readU32At(8);
  if (Version != FormatVersion)
    throw Error(ErrorKind::BadVersion,
                "version " + std::to_string(Version) + " (expected " +
                    std::to_string(FormatVersion) + ")");
  std::uint32_t PayloadSize = readU32At(12);
  std::uint32_t Crc = readU32At(16);
  Offset = 20;
  if (PayloadSize > FileSize - Offset)
    throw Error(ErrorKind::Truncated, "header payload runs past end of file");
  std::vector<std::uint8_t> Payload(PayloadSize);
  readAt(Offset, Payload.data(), PayloadSize);
  Offset += PayloadSize;
  if (crc32(Payload.data(), PayloadSize) != Crc)
    throw Error(ErrorKind::BadChecksum, "header payload");
  Header = decodeHeader(Payload.data(), Payload.data() + PayloadSize);
}

Reader::~Reader() {
  if (File)
    std::fclose(File);
}

void Reader::readAt(std::uint64_t At, void *Out, std::size_t Size) {
  if (At > FileSize || Size > FileSize - At)
    throw Error(ErrorKind::Truncated,
                "read of " + std::to_string(Size) + " bytes at offset " +
                    std::to_string(At) + " runs past end of file");
  if (std::fseek(File, static_cast<long>(At), SEEK_SET) != 0)
    throw Error(ErrorKind::Io, "cannot seek '" + Path + "'");
  if (std::fread(Out, 1, Size, File) != Size)
    throw Error(ErrorKind::Io, "short read from '" + Path + "'");
}

std::uint32_t Reader::readU32At(std::uint64_t At) {
  std::uint8_t B[4];
  readAt(At, B, 4);
  return static_cast<std::uint32_t>(B[0]) |
         (static_cast<std::uint32_t>(B[1]) << 8) |
         (static_cast<std::uint32_t>(B[2]) << 16) |
         (static_cast<std::uint32_t>(B[3]) << 24);
}

void Reader::loadNextBlock() {
  if (Offset >= FileSize)
    throw Error(ErrorKind::MissingFooter,
                "stream ended without a footer record");
  std::uint64_t TagOffset = Offset;
  std::uint8_t Tag = 0;
  readAt(Offset, &Tag, 1);
  ++Offset;

  if (Tag == ChunkTag) {
    std::uint32_t Size = readU32At(Offset);
    std::uint32_t Events = readU32At(Offset + 4);
    std::uint32_t Crc = readU32At(Offset + 8);
    Offset += 12;
    if (Size > FileSize - Offset)
      throw Error(ErrorKind::Truncated, "chunk payload runs past end of file");
    Chunk.resize(Size);
    readAt(Offset, Chunk.data(), Size);
    Offset += Size;
    if (crc32(Chunk.data(), Size) != Crc)
      throw Error(ErrorKind::BadChecksum, "chunk at offset " +
                                              std::to_string(TagOffset));
    Cur = Chunk.data();
    End = Cur + Size;
    ChunkEventsLeft = Events;
    Deltas = DeltaState();
    return;
  }
  if (Tag == FooterTag) {
    finishStream(TagOffset);
    return;
  }
  throw Error(ErrorKind::BadRecord, "unknown record tag " +
                                        std::to_string(Tag) + " at offset " +
                                        std::to_string(TagOffset));
}

TraceFooter Reader::readFooter(std::uint64_t TagOffset) {
  std::uint8_t Tag = 0;
  readAt(TagOffset, &Tag, 1);
  if (Tag != FooterTag)
    throw Error(ErrorKind::BadRecord, "footer tag missing at offset " +
                                          std::to_string(TagOffset));
  std::uint32_t Size = readU32At(TagOffset + 1);
  std::uint32_t Crc = readU32At(TagOffset + 5);
  std::uint64_t At = TagOffset + 9;
  if (Size > FileSize - At)
    throw Error(ErrorKind::Truncated, "footer payload runs past end of file");
  std::vector<std::uint8_t> Payload(Size);
  readAt(At, Payload.data(), Size);
  At += Size;
  if (crc32(Payload.data(), Size) != Crc)
    throw Error(ErrorKind::BadChecksum, "footer payload");
  TraceFooter F = decodeFooter(Payload.data(), Payload.data() + Size);

  std::uint32_t BlockSize = readU32At(At);
  if (BlockSize != At - TagOffset)
    throw Error(ErrorKind::BadRecord, "footer block size disagrees with "
                                      "footer position");
  At += 4;
  char Magic[sizeof(EndMagic)];
  readAt(At, Magic, sizeof(Magic));
  At += sizeof(Magic);
  if (std::memcmp(Magic, EndMagic, sizeof(EndMagic)) != 0)
    throw Error(ErrorKind::BadMagic, "end magic missing");
  if (At != FileSize)
    throw Error(ErrorKind::TrailingData,
                std::to_string(FileSize - At) + " bytes after the end magic");
  return F;
}

void Reader::finishStream(std::uint64_t FooterStart) {
  TraceFooter F = readFooter(FooterStart);
  for (std::uint32_t K = 0; K < NumEventKinds; ++K)
    if (F.EventCounts[K] != Tally.EventCounts[K])
      throw Error(ErrorKind::FooterMismatch,
                  std::string("event count for kind '") +
                      eventKindName(static_cast<EventKind>(K)) +
                      "' disagrees with the decoded stream");
  if (F.TotalEvents != Tally.TotalEvents)
    throw Error(ErrorKind::FooterMismatch, "total event count disagrees "
                                           "with the decoded stream");
  if (F.LastCycle != Tally.LastCycle)
    throw Error(ErrorKind::FooterMismatch, "final cycle disagrees with the "
                                           "decoded stream");
  CachedFooter = F;
  FooterCached = true;
  Done = true;
}

const TraceFooter &Reader::footer() {
  if (FooterCached)
    return CachedFooter;
  // O(1) path: the trailer, [u32 footer block size][8-byte end magic] at
  // the very end, locates the record; readFooter() then checks it as the
  // stream's end does.
  constexpr std::uint64_t TrailerSize = 4 + sizeof(EndMagic);
  if (FileSize < TrailerSize)
    throw Error(ErrorKind::Truncated, "file too small to hold a footer");
  char Magic[sizeof(EndMagic)];
  readAt(FileSize - sizeof(EndMagic), Magic, sizeof(Magic));
  if (std::memcmp(Magic, EndMagic, sizeof(EndMagic)) != 0)
    throw Error(ErrorKind::BadMagic,
                "end magic missing (truncated or unfinished trace)");
  std::uint32_t BlockSize = readU32At(FileSize - TrailerSize);
  if (BlockSize < 9 || BlockSize + TrailerSize > FileSize)
    throw Error(ErrorKind::BadRecord, "implausible footer block size " +
                                          std::to_string(BlockSize));
  std::uint64_t TagOffset = FileSize - TrailerSize - BlockSize;
  // Checked before readFooter(), so a payload size the trailer contradicts
  // is a BadRecord here, not a truncated or mis-summed payload.
  if (readU32At(TagOffset + 1) != BlockSize - 9)
    throw Error(ErrorKind::BadRecord, "footer payload size disagrees with "
                                      "footer block size");
  CachedFooter = readFooter(TagOffset);
  FooterCached = true;
  return CachedFooter;
}

bool Reader::nextChunk() {
  while (!Done) {
    if (Cur != End)
      throw Error(ErrorKind::BadRecord, "chunk payload longer than its "
                                        "declared event count");
    loadNextBlock();
    if (ChunkEventsLeft != 0)
      return true;
  }
  return false;
}

void Reader::cycleWentBack(std::uint64_t Cycle) const {
  throw Error(ErrorKind::NonMonotonicCycle,
              "cycle " + std::to_string(Cycle) + " after cycle " +
                  std::to_string(Tally.LastCycle));
}

//===----------------------------------------------------------------------===//
// Diff
//===----------------------------------------------------------------------===//

DiffResult trace::diffTraces(Reader &A, Reader &B) {
  DiffResult R;
  std::vector<std::uint8_t> HA, HB;
  encodeHeader(HA, A.header());
  encodeHeader(HB, B.header());
  if (HA != HB) {
    R.Detail = "headers differ (workload, capture config, or loop tables)";
    return R;
  }
  Event EA, EB;
  std::uint64_t I = 0;
  for (;;) {
    bool MoreA = A.next(EA);
    bool MoreB = B.next(EB);
    if (!MoreA || !MoreB) {
      if (MoreA != MoreB) {
        R.FirstDivergence = I;
        R.Detail = "event streams have different lengths (" +
                   (MoreA ? A.path() : B.path()) + " continues past event " +
                   std::to_string(I) + ")";
        return R;
      }
      break;
    }
    if (!(EA == EB)) {
      R.FirstDivergence = I;
      R.Detail = "event " + std::to_string(I) + ":\n  a: " +
                 formatEvent(EA) + "\n  b: " + formatEvent(EB);
      return R;
    }
    ++I;
  }
  if (!(A.footer().Run == B.footer().Run)) {
    R.FirstDivergence = I;
    R.Detail = "capture run results differ";
    return R;
  }
  R.Identical = true;
  R.FirstDivergence = I;
  return R;
}
