//===- trace/Wire.cpp ------------------------------------------------------==//

#include "trace/Wire.h"

using namespace jrpm;
using namespace jrpm::trace;

//===----------------------------------------------------------------------===//
// Header
//===----------------------------------------------------------------------===//

namespace {

/// Stable field order of the serialized sim::HydraConfig. Bump
/// FormatVersion when this list changes shape incompatibly; appending
/// fields is compatible because the count is part of the payload.
constexpr std::uint32_t NumHwFields = 31;

void appendHw(std::vector<std::uint8_t> &Out, const sim::HydraConfig &Hw) {
  appendVarint(Out, NumHwFields);
  const std::uint64_t Fields[NumHwFields] = {
      Hw.NumCores,
      Hw.WordsPerLine,
      Hw.L1Lines,
      Hw.L1Assoc,
      Hw.L2HitExtraCycles,
      Hw.SpecLoadLines,
      Hw.SpecStoreLines,
      Hw.LoopStartupCycles,
      Hw.LoopShutdownCycles,
      Hw.EndOfIterationCycles,
      Hw.ViolationRestartCycles,
      Hw.StoreLoadCommCycles,
      static_cast<std::uint64_t>(Hw.ViolationGrain),
      Hw.SyncCarriedLocals ? 1u : 0u,
      Hw.HeapTimestampFifoLines,
      Hw.LoadTimestampEntries,
      Hw.StoreTimestampEntries,
      Hw.OverflowTableAssoc,
      Hw.LocalVarSlots,
      Hw.ComparatorBanks,
      Hw.SLoopCost,
      Hw.ELoopCost,
      Hw.EoiCost,
      Hw.LocalAnnoCost,
      Hw.ReadStatsCost,
      Hw.SoftwareProfilerCallbackCycles,
      Hw.Costs.Basic,
      Hw.Costs.IntDiv,
      Hw.Costs.FloatDiv,
      Hw.Costs.FloatSqrt,
      Hw.Costs.CallOverhead,
  };
  for (std::uint64_t F : Fields)
    appendVarint(Out, F);
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
  std::size_t I = 0;
  auto U32 = [&] { return static_cast<std::uint32_t>(Fields[I++]); };
  Hw.NumCores = U32();
  Hw.WordsPerLine = U32();
  Hw.L1Lines = U32();
  Hw.L1Assoc = U32();
  Hw.L2HitExtraCycles = U32();
  Hw.SpecLoadLines = U32();
  Hw.SpecStoreLines = U32();
  Hw.LoopStartupCycles = U32();
  Hw.LoopShutdownCycles = U32();
  Hw.EndOfIterationCycles = U32();
  Hw.ViolationRestartCycles = U32();
  Hw.StoreLoadCommCycles = U32();
  std::uint64_t Grain = Fields[I++];
  if (Grain > 1)
    throw Error(ErrorKind::BadRecord, "violation granularity " +
                                          std::to_string(Grain));
  Hw.ViolationGrain = static_cast<sim::ViolationGranularity>(Grain);
  Hw.SyncCarriedLocals = Fields[I++] != 0;
  Hw.HeapTimestampFifoLines = U32();
  Hw.LoadTimestampEntries = U32();
  Hw.StoreTimestampEntries = U32();
  Hw.OverflowTableAssoc = U32();
  Hw.LocalVarSlots = U32();
  Hw.ComparatorBanks = U32();
  Hw.SLoopCost = U32();
  Hw.ELoopCost = U32();
  Hw.EoiCost = U32();
  Hw.LocalAnnoCost = U32();
  Hw.ReadStatsCost = U32();
  Hw.SoftwareProfilerCallbackCycles = U32();
  Hw.Costs.Basic = U32();
  Hw.Costs.IntDiv = U32();
  Hw.Costs.FloatDiv = U32();
  Hw.Costs.FloatSqrt = U32();
  Hw.Costs.CallOverhead = U32();
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
  for (const std::vector<std::uint16_t> &Locals : H.LoopLocals) {
    appendVarint(Out, Locals.size());
    for (std::uint16_t Reg : Locals)
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
    H.LoopLocals[L].reserve(NumLocals);
    for (std::uint64_t I = 0; I < NumLocals; ++I)
      H.LoopLocals[L].push_back(
          static_cast<std::uint16_t>(parseVarint(P, End)));
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
