//===- trace/Format.cpp ----------------------------------------------------==//

#include "trace/Format.h"

#include "support/Compiler.h"

#include <array>

using namespace jrpm;
using namespace jrpm::trace;

const char *trace::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::HeapLoad:
    return "LD";
  case EventKind::HeapStore:
    return "ST";
  case EventKind::LocalLoad:
    return "lwl";
  case EventKind::LocalStore:
    return "swl";
  case EventKind::LoopStart:
    return "sloop";
  case EventKind::LoopIter:
    return "eoi";
  case EventKind::LoopEnd:
    return "eloop";
  case EventKind::Return:
    return "ret";
  case EventKind::CallSite:
    return "call";
  case EventKind::CallReturn:
    return "cret";
  case EventKind::ReadStats:
    return "rstat";
  }
  JRPM_UNREACHABLE("bad EventKind");
}

const char *trace::errorKindName(ErrorKind K) {
  switch (K) {
  case ErrorKind::Io:
    return "io error";
  case ErrorKind::BadMagic:
    return "bad magic";
  case ErrorKind::BadVersion:
    return "unsupported format version";
  case ErrorKind::Truncated:
    return "truncated trace";
  case ErrorKind::BadChecksum:
    return "checksum mismatch";
  case ErrorKind::BadRecord:
    return "malformed record";
  case ErrorKind::BadVarint:
    return "malformed varint";
  case ErrorKind::UnknownEventKind:
    return "unknown event kind";
  case ErrorKind::EventOutOfRange:
    return "event out of range";
  case ErrorKind::NonMonotonicCycle:
    return "non-monotonic cycle";
  case ErrorKind::FooterMismatch:
    return "footer mismatch";
  case ErrorKind::TrailingData:
    return "trailing data";
  case ErrorKind::MissingFooter:
    return "missing footer";
  }
  JRPM_UNREACHABLE("bad ErrorKind");
}

std::uint64_t trace::parseVarintSlow(const std::uint8_t *&P,
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

namespace {

/// Slicing-by-8 tables: Table[0] is the classic byte-at-a-time table;
/// Table[K][B] is the CRC of byte B followed by K zero bytes. Eight bytes
/// are then folded per iteration instead of one, which matters because
/// every chunk is checksummed on both the record and the replay path.
std::array<std::array<std::uint32_t, 256>, 8> makeCrcTables() {
  std::array<std::array<std::uint32_t, 256>, 8> T{};
  for (std::uint32_t I = 0; I < 256; ++I) {
    std::uint32_t C = I;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    T[0][I] = C;
  }
  for (std::uint32_t I = 0; I < 256; ++I)
    for (std::size_t K = 1; K < 8; ++K)
      T[K][I] = T[0][T[K - 1][I] & 0xFF] ^ (T[K - 1][I] >> 8);
  return T;
}

} // namespace

std::uint32_t trace::crc32(const std::uint8_t *Data, std::size_t Size) {
  static const std::array<std::array<std::uint32_t, 256>, 8> T =
      makeCrcTables();
  std::uint32_t C = 0xFFFFFFFFu;
  while (Size >= 8) {
    std::uint32_t Lo = C ^ (static_cast<std::uint32_t>(Data[0]) |
                            (static_cast<std::uint32_t>(Data[1]) << 8) |
                            (static_cast<std::uint32_t>(Data[2]) << 16) |
                            (static_cast<std::uint32_t>(Data[3]) << 24));
    C = T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF] ^ T[5][(Lo >> 16) & 0xFF] ^
        T[4][Lo >> 24] ^ T[3][Data[4]] ^ T[2][Data[5]] ^ T[1][Data[6]] ^
        T[0][Data[7]];
    Data += 8;
    Size -= 8;
  }
  for (std::size_t I = 0; I < Size; ++I)
    C = T[0][(C ^ Data[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}
