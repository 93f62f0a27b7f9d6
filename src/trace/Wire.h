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
/// varints. Used to size the stack staging buffer in encodeEvent.
inline constexpr std::size_t MaxEventWireBytes = 1 + 4 * 10;

/// Appends the wire form of \p E to \p Out via a stack buffer, with no
/// vector bounds check per byte. `inline` only lets the header hold the
/// definition: GCC keeps it, decodeEvent and parseVarint out of line.
inline void encodeEvent(std::vector<std::uint8_t> &Out, const Event &E,
                        DeltaState &D) {
  std::uint8_t Tmp[MaxEventWireBytes];
  std::uint8_t *P = Tmp;
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
  Out.insert(Out.end(), Tmp, P);
}

/// Decodes one event from [*P, End). Throws Error on malformed input;
/// advances \p P past the event. Out of line, like encodeEvent.
inline Event decodeEvent(const std::uint8_t *&P, const std::uint8_t *End,
                         DeltaState &D) {
  if (P == End)
    throw Error(ErrorKind::Truncated, "event kind byte missing");
  std::uint8_t KindByte = *P++;
  if (KindByte >= NumEventKinds)
    throw Error(ErrorKind::UnknownEventKind,
                "event kind " + std::to_string(KindByte));
  Event E;
  E.Kind = static_cast<EventKind>(KindByte);
  auto Delta = [&](std::uint64_t &Pred) {
    return Pred += static_cast<std::uint64_t>(parseZigzag(P, End));
  };
  auto Cycle = [&] { E.Cycle = Delta(D.Cycle); };
  auto Pc = [&] { E.Pc = static_cast<std::int32_t>(Delta(D.Pc)); };
  auto Addr = [&] { E.Addr = static_cast<std::uint32_t>(Delta(D.Addr)); };
  auto Act = [&] { E.Activation = Delta(D.Activation); };
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
    E.Reg = static_cast<std::uint16_t>(parseVarint(P, End));
    Pc();
    return E;
  case EventKind::LoopStart:
    Cycle();
    E.LoopId = static_cast<std::uint32_t>(parseVarint(P, End));
    Act();
    return E;
  case EventKind::LoopIter:
  case EventKind::LoopEnd:
  case EventKind::ReadStats:
    Cycle();
    E.LoopId = static_cast<std::uint32_t>(parseVarint(P, End));
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
