//===- trace/Wire.h - Payload-level encode/decode of the .jtrace format ----==//
//
// The wire form of events, headers, and footers, shared by Writer and
// Reader so there is exactly one implementation of each direction. Framing
// (record tags, sizes, CRCs) lives in Writer.cpp/Reader.cpp; this header
// only deals in payload bytes.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACE_WIRE_H
#define JRPM_TRACE_WIRE_H

#include "trace/Format.h"

namespace jrpm {
namespace trace {

/// Delta predictors for the event encoding. Reset at every chunk boundary
/// so chunks decode independently. Deltas are taken and applied modulo
/// 2^64 (a Pc predictor holds the sign-extended Pc): the bytes are those
/// of the plain signed difference, and neither an activation of 2^63 or
/// more nor a forged delta can overflow a signed add.
struct DeltaState {
  std::uint64_t Cycle = 0;
  std::uint64_t Pc = 0;
  std::uint64_t Addr = 0;
  std::uint64_t Activation = 0;
};

/// Upper bound on one encoded event: a kind byte plus at most four 10-byte
/// varints. Writer's chunk buffer keeps this much room past
/// ChunkTargetBytes, so one more event always fits before a flush.
inline constexpr std::size_t MaxEventWireBytes = 1 + 4 * 10;

/// Writes the wire form of \p E at \p P, which must have
/// MaxEventWireBytes of room, and returns the end of what it wrote.
/// Always inlined, so Writer::append, which the recording tee (an
/// EventSink, Reader.h) calls for every live event, encodes with no call.
[[gnu::always_inline]] inline std::uint8_t *
encodeEvent(std::uint8_t *P, const Event &E, DeltaState &D) {
  *P++ = static_cast<std::uint8_t>(E.Kind);
  auto Delta = [&](std::uint64_t V, std::uint64_t &Pred) {
    P = writeZigzag(P, static_cast<std::int64_t>(V - Pred));
    Pred = V;
  };
  auto Cycle = [&] { Delta(E.Cycle, D.Cycle); };
  auto Pc = [&] {
    Delta(static_cast<std::uint64_t>(static_cast<std::int64_t>(E.Pc)), D.Pc);
  };
  auto Addr = [&] { Delta(E.Addr, D.Addr); };
  auto Act = [&] { Delta(E.Activation, D.Activation); };
  switch (E.Kind) {
  case EventKind::HeapLoad:
  case EventKind::HeapStore:
    Cycle();
    Addr();
    Pc();
    break;
  case EventKind::LocalLoad:
  case EventKind::LocalStore:
    Cycle();
    Act();
    P = writeVarint(P, E.Reg);
    Pc();
    break;
  case EventKind::LoopStart:
    Cycle();
    P = writeVarint(P, E.LoopId);
    Act();
    break;
  case EventKind::LoopIter:
  case EventKind::LoopEnd:
  case EventKind::ReadStats:
    Cycle();
    P = writeVarint(P, E.LoopId);
    break;
  case EventKind::Return:
    Act();
    break;
  case EventKind::CallSite:
    Cycle();
    Pc();
    break;
  case EventKind::CallReturn:
    Cycle();
    break;
  }
  return P;
}

/// decodeEvent's error paths, out of line. Each throws the typed Error
/// named in its comment and reports the value it read.
/// Truncated: the payload ends where an event's kind byte should be.
[[noreturn]] void eventKindMissing();
/// UnknownEventKind.
[[noreturn]] void unknownEventKind(std::uint8_t KindByte);
/// EventOutOfRange: loop id \p Id in a \p NumLoops-entry loop table.
[[noreturn]] void loopIdOutOfRange(std::uint64_t Id, std::uint64_t NumLoops);
/// EventOutOfRange: \p Value of \p Field does not fit its \p Bits-bit
/// Event field, signed when \p Signed.
[[noreturn]] void fieldTooWide(const char *Field, std::uint64_t Value,
                               unsigned Bits, bool Signed);

/// Decodes one event from [*P, End) and advances \p P past it. Throws
/// Error on malformed input, and on a field value its Event field cannot
/// hold: a loop id outside the \p NumLoops-entry table, a register wider
/// than 16 bits, an address wider than 32 bits, a pc outside int32.
/// Always inlined into Reader::next, the one wire decoder.
[[gnu::always_inline]] inline Event decodeEvent(const std::uint8_t *&P,
                                                const std::uint8_t *End,
                                                DeltaState &D,
                                                std::uint64_t NumLoops) {
  if (P == End) [[unlikely]]
    eventKindMissing();
  std::uint8_t KindByte = *P++;
  if (KindByte >= NumEventKinds) [[unlikely]]
    unknownEventKind(KindByte);
  Event E;
  E.Kind = static_cast<EventKind>(KindByte);
  auto Delta = [&](std::uint64_t &Pred) {
    return Pred += static_cast<std::uint64_t>(parseZigzag(P, End));
  };
  auto Cycle = [&] { E.Cycle = Delta(D.Cycle); };
  auto Pc = [&] {
    std::uint64_t V = Delta(D.Pc);
    auto S = static_cast<std::int64_t>(V);
    if (S != static_cast<std::int32_t>(S)) [[unlikely]]
      fieldTooWide("pc", V, 32, true);
    E.Pc = static_cast<std::int32_t>(S);
  };
  auto Addr = [&] {
    std::uint64_t V = Delta(D.Addr);
    if (V > UINT32_MAX) [[unlikely]]
      fieldTooWide("address", V, 32, false);
    E.Addr = static_cast<std::uint32_t>(V);
  };
  auto Act = [&] { E.Activation = Delta(D.Activation); };
  auto Reg = [&] {
    std::uint64_t V = parseVarint(P, End);
    if (V > UINT16_MAX) [[unlikely]]
      fieldTooWide("register", V, 16, false);
    E.Reg = static_cast<std::uint16_t>(V);
  };
  auto Loop = [&] {
    std::uint64_t V = parseVarint(P, End);
    if (V >= NumLoops) [[unlikely]]
      loopIdOutOfRange(V, NumLoops);
    E.LoopId = static_cast<std::uint32_t>(V); // NumLoops <= 2^20
  };
  switch (E.Kind) {
  case EventKind::HeapLoad:
  case EventKind::HeapStore:
    Cycle();
    Addr();
    Pc();
    return E;
  case EventKind::LocalLoad:
  case EventKind::LocalStore:
    Cycle();
    Act();
    Reg();
    Pc();
    return E;
  case EventKind::LoopStart:
    Cycle();
    Loop();
    Act();
    return E;
  case EventKind::LoopIter:
  case EventKind::LoopEnd:
  case EventKind::ReadStats:
    Cycle();
    Loop();
    return E;
  case EventKind::Return:
    Act();
    return E;
  case EventKind::CallSite:
    Cycle();
    Pc();
    return E;
  case EventKind::CallReturn:
    Cycle();
    return E;
  }
  return E; // unreachable: KindByte was range-checked above
}

void encodeHeader(std::vector<std::uint8_t> &Out, const TraceHeader &H);
TraceHeader decodeHeader(const std::uint8_t *P, const std::uint8_t *End);

void encodeFooter(std::vector<std::uint8_t> &Out, const TraceFooter &F);
TraceFooter decodeFooter(const std::uint8_t *P, const std::uint8_t *End);

} // namespace trace
} // namespace jrpm

#endif // JRPM_TRACE_WIRE_H
