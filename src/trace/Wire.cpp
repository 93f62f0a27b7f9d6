//===- trace/Wire.cpp ------------------------------------------------------==//

#include "trace/Wire.h"

#include <type_traits>

using namespace jrpm;
using namespace jrpm::trace;

//===----------------------------------------------------------------------===//
// Event decoding errors
//===----------------------------------------------------------------------===//

void trace::eventKindMissing() {
  throw Error(ErrorKind::Truncated, "event kind byte missing");
}

void trace::unknownEventKind(std::uint8_t KindByte) {
  throw Error(ErrorKind::UnknownEventKind,
              "event kind " + std::to_string(KindByte));
}

void trace::loopIdOutOfRange(std::uint64_t Id, std::uint64_t NumLoops) {
  throw Error(ErrorKind::EventOutOfRange,
              "loop id " + std::to_string(Id) + " outside the " +
                  std::to_string(NumLoops) + "-entry loop table");
}

void trace::fieldTooWide(const char *Field, std::uint64_t Value,
                         unsigned Bits, bool Signed) {
  std::string Shown = Signed ? std::to_string(static_cast<std::int64_t>(Value))
                             : std::to_string(Value);
  throw Error(ErrorKind::EventOutOfRange,
              std::string(Field) + " " + Shown + " does not fit a " +
                  (Signed ? "signed " : "") + std::to_string(Bits) +
                  "-bit field");
}

//===----------------------------------------------------------------------===//
// Header
//===----------------------------------------------------------------------===//

namespace {

/// Calls \p V on each serialized sim::HydraConfig field of \p Hw, in
/// wire order: the one field list, walked by appendHw and parseHw alike.
/// Bump FormatVersion when this list changes shape incompatibly; appending
/// fields is compatible because the count is part of the payload.
template <typename Config, typename Visitor>
constexpr void forEachHwField(Config &Hw, Visitor &&V) {
  V(Hw.NumCores);
  V(Hw.WordsPerLine);
  V(Hw.L1Lines);
  V(Hw.L1Assoc);
  V(Hw.L2HitExtraCycles);
  V(Hw.SpecLoadLines);
  V(Hw.SpecStoreLines);
  V(Hw.LoopStartupCycles);
  V(Hw.LoopShutdownCycles);
  V(Hw.EndOfIterationCycles);
  V(Hw.ViolationRestartCycles);
  V(Hw.StoreLoadCommCycles);
  V(Hw.ViolationGrain);
  V(Hw.SyncCarriedLocals);
  V(Hw.HeapTimestampFifoLines);
  V(Hw.LoadTimestampEntries);
  V(Hw.StoreTimestampEntries);
  V(Hw.OverflowTableAssoc);
  V(Hw.LocalVarSlots);
  V(Hw.ComparatorBanks);
  V(Hw.SLoopCost);
  V(Hw.ELoopCost);
  V(Hw.EoiCost);
  V(Hw.LocalAnnoCost);
  V(Hw.ReadStatsCost);
  V(Hw.SoftwareProfilerCallbackCycles);
  V(Hw.Costs.Basic);
  V(Hw.Costs.IntDiv);
  V(Hw.Costs.FloatDiv);
  V(Hw.Costs.FloatSqrt);
  V(Hw.Costs.CallOverhead);
}

constexpr std::uint32_t NumHwFields = [] {
  sim::HydraConfig Hw;
  std::uint32_t N = 0;
  forEachHwField(Hw, [&](auto &) { ++N; });
  return N;
}();

void appendHw(std::vector<std::uint8_t> &Out, const sim::HydraConfig &Hw) {
  appendVarint(Out, NumHwFields);
  forEachHwField(Hw, [&](const auto &Field) {
    appendVarint(Out, static_cast<std::uint64_t>(Field));
  });
}

sim::HydraConfig parseHw(const std::uint8_t *&P, const std::uint8_t *End) {
  std::uint64_t Count = parseVarint(P, End);
  if (Count < NumHwFields)
    throw Error(ErrorKind::BadRecord, "hardware config field count " +
                                          std::to_string(Count));
  std::uint64_t Fields[NumHwFields];
  for (std::uint64_t I = 0; I < Count; ++I) {
    std::uint64_t V = parseVarint(P, End);
    if (I < NumHwFields)
      Fields[I] = V; // later writers may append fields; ignore extras
  }
  sim::HydraConfig Hw;
  const std::uint64_t *Next = Fields;
  forEachHwField(Hw, [&](auto &Field) {
    using T = std::remove_reference_t<decltype(Field)>;
    std::uint64_t V = *Next++;
    if (std::is_same_v<T, sim::ViolationGranularity> && V > 1)
      throw Error(ErrorKind::BadRecord,
                  "violation granularity " + std::to_string(V));
    Field = static_cast<T>(V);
  });
  if (!sim::hasValidCacheGeometry(Hw))
    throw Error(ErrorKind::BadRecord,
                "cache geometry of " + std::to_string(Hw.WordsPerLine) +
                    " words per line, " + std::to_string(Hw.L1Lines) +
                    " lines, " + std::to_string(Hw.L1Assoc) +
                    " ways cannot be built");
  if (!sim::hasValidOverflowTables(Hw))
    throw Error(ErrorKind::BadRecord,
                "overflow table associativity " +
                    std::to_string(Hw.OverflowTableAssoc) +
                    " does not fit the timestamp tables");
  return Hw;
}

/// Sanity bound: no workload has anywhere near this many loops; a huge
/// decoded count signals corruption before we try to allocate it.
constexpr std::uint64_t MaxLoops = 1u << 20;
constexpr std::uint64_t MaxLocalsPerLoop = 1u << 16;

} // namespace

void trace::encodeHeader(std::vector<std::uint8_t> &Out,
                         const TraceHeader &H) {
  appendVarint(Out, 0); // reserved flags
  appendVarint(Out, H.WorkloadName.size());
  Out.insert(Out.end(), H.WorkloadName.begin(), H.WorkloadName.end());
  appendVarint(Out, H.AnnotationLevel);
  appendVarint(Out, H.ExtendedPcBinning ? 1 : 0);
  appendVarint(Out, H.DisableLoopAfterThreads);
  appendHw(Out, H.Hw);
  appendVarint(Out, H.LoopLocals.size());
  for (const ir::LoopAnnotationInfo &Loop : H.LoopLocals) {
    appendVarint(Out, Loop.AnnotatedLocals.size());
    for (std::uint16_t Reg : Loop.AnnotatedLocals)
      appendVarint(Out, Reg);
  }
}

TraceHeader trace::decodeHeader(const std::uint8_t *P,
                                const std::uint8_t *End) {
  TraceHeader H;
  parseVarint(P, End); // reserved flags
  std::uint64_t NameLen = parseVarint(P, End);
  if (NameLen > static_cast<std::uint64_t>(End - P))
    throw Error(ErrorKind::Truncated, "workload name runs past header");
  H.WorkloadName.assign(reinterpret_cast<const char *>(P), NameLen);
  P += NameLen;
  std::uint64_t Level = parseVarint(P, End);
  if (Level > 1)
    throw Error(ErrorKind::BadRecord,
                "annotation level " + std::to_string(Level));
  H.AnnotationLevel = static_cast<std::uint8_t>(Level);
  H.ExtendedPcBinning = parseVarint(P, End) != 0;
  H.DisableLoopAfterThreads = parseVarint(P, End);
  H.Hw = parseHw(P, End);
  std::uint64_t NumLoops = parseVarint(P, End);
  if (NumLoops > MaxLoops)
    throw Error(ErrorKind::BadRecord,
                "implausible loop count " + std::to_string(NumLoops));
  H.LoopLocals.resize(NumLoops);
  for (std::uint64_t L = 0; L < NumLoops; ++L) {
    std::uint64_t NumLocals = parseVarint(P, End);
    if (NumLocals > MaxLocalsPerLoop)
      throw Error(ErrorKind::BadRecord, "implausible local count " +
                                            std::to_string(NumLocals));
    std::vector<std::uint16_t> &Locals = H.LoopLocals[L].AnnotatedLocals;
    Locals.reserve(NumLocals);
    for (std::uint64_t I = 0; I < NumLocals; ++I)
      Locals.push_back(static_cast<std::uint16_t>(parseVarint(P, End)));
  }
  if (P != End)
    throw Error(ErrorKind::TrailingData, "extra bytes in header payload");
  return H;
}

//===----------------------------------------------------------------------===//
// Footer
//===----------------------------------------------------------------------===//

void trace::encodeFooter(std::vector<std::uint8_t> &Out,
                         const TraceFooter &F) {
  appendVarint(Out, NumEventKinds);
  for (std::uint64_t C : F.EventCounts)
    appendVarint(Out, C);
  appendVarint(Out, F.TotalEvents);
  appendVarint(Out, F.LastCycle);
  appendVarint(Out, F.Run.Cycles);
  appendVarint(Out, F.Run.Instructions);
  appendVarint(Out, F.Run.ReturnValue);
  appendVarint(Out, F.Run.Loads);
  appendVarint(Out, F.Run.Stores);
  appendVarint(Out, F.Run.L1Misses);
}

TraceFooter trace::decodeFooter(const std::uint8_t *P,
                                const std::uint8_t *End) {
  TraceFooter F;
  std::uint64_t Kinds = parseVarint(P, End);
  if (Kinds < NumEventKinds)
    throw Error(ErrorKind::BadRecord,
                "event kind count " + std::to_string(Kinds));
  for (std::uint64_t K = 0; K < Kinds; ++K) {
    std::uint64_t C = parseVarint(P, End);
    if (K < NumEventKinds)
      F.EventCounts[K] = C;
  }
  F.TotalEvents = parseVarint(P, End);
  F.LastCycle = parseVarint(P, End);
  F.Run.Cycles = parseVarint(P, End);
  F.Run.Instructions = parseVarint(P, End);
  F.Run.ReturnValue = parseVarint(P, End);
  F.Run.Loads = parseVarint(P, End);
  F.Run.Stores = parseVarint(P, End);
  F.Run.L1Misses = parseVarint(P, End);
  if (P != End)
    throw Error(ErrorKind::TrailingData, "extra bytes in footer payload");
  return F;
}
