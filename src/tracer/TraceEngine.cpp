//===- tracer/TraceEngine.cpp ---------------------------------------------==//

#include "tracer/TraceEngine.h"

#include <algorithm>
#include <cassert>

using namespace jrpm;
using namespace jrpm::tracer;

TraceEngine::TraceEngine(const sim::HydraConfig &Cfg,
                         std::vector<ir::LoopAnnotationInfo> LoopInfos,
                         bool ExtendedPcBinning)
    : Cfg(Cfg), Loops(std::move(LoopInfos)),
      ExtendedPcBinning(ExtendedPcBinning),
      HeapTs(Cfg.HeapTimestampFifoLines, Cfg.WordsPerLine),
      LoadLineTs(Cfg.LoadTimestampEntries, Cfg.WordsPerLine,
                 Cfg.OverflowTableAssoc),
      StoreLineTs(Cfg.StoreTimestampEntries, Cfg.WordsPerLine,
                  Cfg.OverflowTableAssoc),
      LocalTs(Cfg.LocalVarSlots), SlotIndex(Cfg.LocalVarSlots),
      Stats(Loops.size()),
      PcBinAcc(Loops.size()), ParentVotes(Loops.size()) {
  Traced.init(Cfg.ComparatorBanks);
  RegStack.reserve(Cfg.LocalVarSlots);
}

void TraceEngine::TracedBanks::init(std::size_t Capacity) {
  EntryTime.resize(Capacity);
  CurStart.resize(Capacity);
  PrevStart.resize(Capacity);
  MinArcPrev.resize(Capacity);
  MinArcEarlier.resize(Capacity);
  MinArcPrevPc.resize(Capacity);
  MinArcEarlierPc.resize(Capacity);
  NewLoadLines.resize(Capacity);
  NewStoreLines.resize(Capacity);
  Size = 0;
}

void TraceEngine::TracedBanks::push(std::uint64_t Cycle) {
  const std::size_t I = Size++;
  EntryTime[I] = Cycle;
  CurStart[I] = Cycle;
  PrevStart[I] = Cycle;
  MinArcPrev[I] = NoArc;
  MinArcEarlier[I] = NoArc;
  MinArcPrevPc[I] = -1;
  MinArcEarlierPc[I] = -1;
  NewLoadLines[I] = 0;
  NewStoreLines[I] = 0;
}

void TraceEngine::TracedBanks::resetThread(std::size_t Idx) {
  MinArcPrev[Idx] = NoArc;
  MinArcEarlier[Idx] = NoArc;
  MinArcPrevPc[Idx] = -1;
  MinArcEarlierPc[Idx] = -1;
  NewLoadLines[Idx] = 0;
  NewStoreLines[Idx] = 0;
}

void TraceEngine::exportMetrics(metrics::Registry &R) const {
  R.counter("tracer.events.heap_load").inc(Events.HeapLoads);
  R.counter("tracer.events.heap_store").inc(Events.HeapStores);
  R.counter("tracer.events.local_load").inc(Events.LocalLoads);
  R.counter("tracer.events.local_store").inc(Events.LocalStores);
  R.counter("tracer.events.loop_start").inc(Events.LoopStarts);
  R.counter("tracer.events.loop_iter").inc(Events.LoopIters);
  R.counter("tracer.events.loop_end").inc(Events.LoopEnds);
  R.counter("tracer.events.return").inc(Events.Returns);
  R.counter("tracer.events.read_stats").inc(Events.ReadStats);
  StlStats Sum;
  for (const StlStats &S : Stats) {
    Sum.Threads += S.Threads;
    Sum.Entries += S.Entries;
    Sum.UntracedEntries += S.UntracedEntries;
    Sum.OverflowThreads += S.OverflowThreads;
    Sum.CritArcsPrev += S.CritArcsPrev;
    Sum.CritArcsEarlier += S.CritArcsEarlier;
    Sum.CritLenPrev += S.CritLenPrev;
    Sum.CritLenEarlier += S.CritLenEarlier;
  }
  R.counter("tracer.threads").inc(Sum.Threads);
  R.counter("tracer.entries").inc(Sum.Entries);
  R.counter("tracer.untraced_entries").inc(Sum.UntracedEntries);
  R.counter("tracer.overflow_threads").inc(Sum.OverflowThreads);
  R.counter("tracer.crit_arcs_prev").inc(Sum.CritArcsPrev);
  R.counter("tracer.crit_arcs_earlier").inc(Sum.CritArcsEarlier);
  R.counter("tracer.crit_len_prev").inc(Sum.CritLenPrev);
  R.counter("tracer.crit_len_earlier").inc(Sum.CritLenEarlier);
  // Store-occupancy observability of the flat timestamp tables. Pure
  // functions of the event stream like everything above, so live and
  // replayed exports stay byte-identical.
  R.counter("tracer.heap_ts.evictions").inc(HeapTs.evictions());
  R.counter("tracer.line_table.evictions")
      .inc(LoadLineTs.evictions() + StoreLineTs.evictions());
  R.counter("tracer.local_ts.release_errors").inc(SlotReleaseErrors);
  R.gauge("tracer.heap_ts.peak_occupancy").peak(HeapTs.peakOccupancy());
  R.gauge("tracer.line_table.peak_occupancy")
      .peak(LoadLineTs.peakOccupancy() + StoreLineTs.peakOccupancy());
  R.gauge("tracer.peak_banks").peak(PeakBanks);
  R.gauge("tracer.peak_local_slots").peak(PeakSlots);
  R.gauge("tracer.peak_nest").peak(PeakNest);
  R.histogram("tracer.thread_size_cycles").merge(ThreadSizeCycles);
}

TraceEngine::BankFrame *TraceEngine::findTraced(std::uint32_t LoopId) {
  for (auto It = Active.rbegin(); It != Active.rend(); ++It)
    if (It->LoopId == LoopId)
      return It->Traced ? &*It : nullptr;
  return nullptr;
}

void TraceEngine::checkLoadArcSweep(std::uint64_t StoreTs, std::uint64_t Cycle,
                                    std::int32_t Pc) {
  // The inline gate already rejected NoTimestamp and stores outside every
  // bank's comparison window. One pass over the contiguous per-bank
  // timestamp arrays; every bank updates via conditional moves, exactly
  // Figure 7's parallel comparison.
  const std::size_t N = Traced.size();
  const std::uint64_t *Entry = Traced.EntryTime.data();
  const std::uint64_t *Cur = Traced.CurStart.data();
  const std::uint64_t *Prev = Traced.PrevStart.data();
  std::uint64_t *MinPrev = Traced.MinArcPrev.data();
  std::uint64_t *MinEarlier = Traced.MinArcEarlier.data();
  std::int32_t *PrevPc = Traced.MinArcPrevPc.data();
  std::int32_t *EarlierPc = Traced.MinArcEarlierPc.data();
  const std::uint64_t Len = Cycle - StoreTs;
  for (std::size_t I = 0; I < N; ++I) {
    // Same-thread stores never create inter-thread arcs; stores before the
    // STL entry are not loop-carried dependencies.
    bool InWindow = StoreTs < Cur[I] && StoreTs >= Entry[I];
    bool IsPrev = StoreTs >= Prev[I];
    bool TakePrev = InWindow && IsPrev && Len < MinPrev[I];
    bool TakeEarlier = InWindow && !IsPrev && Len < MinEarlier[I];
    MinPrev[I] = TakePrev ? Len : MinPrev[I];
    PrevPc[I] = TakePrev ? Pc : PrevPc[I];
    MinEarlier[I] = TakeEarlier ? Len : MinEarlier[I];
    EarlierPc[I] = TakeEarlier ? Pc : EarlierPc[I];
  }
}

std::uint32_t TraceEngine::onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                                      std::int32_t Pc) {
  ++Events.HeapLoads;
  LastEventTime = Cycle;
  if (Active.empty())
    return 0;
  // Dependency arc identification against the store timestamp history.
  checkLoadArc(HeapTs.lookup(Addr), Cycle, Pc);
  // Overflow analysis: was this line already part of some thread's
  // speculative load state? A line last touched at or past every bank's
  // current thread start is new to no bank — skip the tally sweep.
  std::uint64_t OldLineTs = LoadLineTs.exchange(Addr, Cycle);
  const bool NoTs = OldLineTs == NoTimestamp;
  if (!NoTs && OldLineTs >= MaxCurStart)
    return 0;
  const std::size_t N = Traced.size();
  const std::uint64_t *Cur = Traced.CurStart.data();
  std::uint64_t *NewLines = Traced.NewLoadLines.data();
  for (std::size_t I = 0; I < N; ++I)
    NewLines[I] += NoTs || OldLineTs < Cur[I];
  return 0;
}

std::uint32_t TraceEngine::onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                                       std::int32_t Pc) {
  (void)Pc;
  ++Events.HeapStores;
  LastEventTime = Cycle;
  // Record history even outside loops: a loop entered shortly after can
  // see stores that preceded it (they are filtered by EntryTime anyway).
  HeapTs.recordStore(Addr, Cycle);
  if (Active.empty())
    return 0;
  std::uint64_t OldLineTs = StoreLineTs.exchange(Addr, Cycle);
  const bool NoTs = OldLineTs == NoTimestamp;
  if (!NoTs && OldLineTs >= MaxCurStart)
    return 0;
  const std::size_t N = Traced.size();
  const std::uint64_t *Cur = Traced.CurStart.data();
  std::uint64_t *NewLines = Traced.NewStoreLines.data();
  for (std::size_t I = 0; I < N; ++I)
    NewLines[I] += NoTs || OldLineTs < Cur[I];
  return 0;
}

std::uint32_t TraceEngine::onLocalLoad(std::uint64_t Activation,
                                       std::uint16_t Reg, std::uint64_t Cycle,
                                       std::int32_t Pc) {
  ++Events.LocalLoads;
  LastEventTime = Cycle;
  // Resolve (activation, register) to the owning reservation — unique
  // among the live banks, so the flat index answers in one probe.
  if (const LocalSlot *S = SlotIndex.find({Activation, Reg}))
    checkLoadArc(LocalTs.read(S->Slot), Cycle, Pc);
  return 0;
}

std::uint32_t TraceEngine::onLocalStore(std::uint64_t Activation,
                                        std::uint16_t Reg, std::uint64_t Cycle,
                                        std::int32_t Pc) {
  (void)Pc;
  ++Events.LocalStores;
  LastEventTime = Cycle;
  if (const LocalSlot *S = SlotIndex.find({Activation, Reg}))
    LocalTs.write(S->Slot, Cycle);
  return 0;
}

std::uint32_t TraceEngine::onLoopStart(std::uint32_t LoopId,
                                       std::uint64_t Activation,
                                       std::uint64_t Cycle) {
  ++Events.LoopStarts;
  LastEventTime = Cycle;
  assert(LoopId < Loops.size() && "unknown loop id");
  bool Disabled = isDisabled(LoopId);
  int Parent = Active.empty() ? -1 : static_cast<int>(Active.back().LoopId);
  std::vector<std::uint64_t> &Votes = ParentVotes[LoopId];
  if (Votes.empty())
    Votes.assign(Loops.size() + 1, 0);
  ++Votes[static_cast<std::size_t>(Parent + 1)];

  BankFrame Bank;
  Bank.LoopId = LoopId;
  Bank.Activation = Activation;

  bool WantTrace = Traced.size() < Cfg.ComparatorBanks && !Disabled;

  if (WantTrace) {
    // Reserve slots for annotated locals not already tracked by an
    // enclosing reservation of the same activation — exactly the pairs
    // absent from the slot index.
    ScratchLocals.clear();
    for (std::uint16_t Reg : Loops[LoopId].AnnotatedLocals)
      if (!SlotIndex.find({Activation, Reg}))
        ScratchLocals.push_back(Reg);
    int Base =
        LocalTs.reserve(static_cast<std::uint32_t>(ScratchLocals.size()));
    if (Base < 0) {
      WantTrace = false; // no room for local variable timestamps
    } else {
      Bank.SlotBase = Base;
      Bank.SlotCount = static_cast<std::uint32_t>(ScratchLocals.size());
      RegStack.insert(RegStack.end(), ScratchLocals.begin(),
                      ScratchLocals.end());
      for (std::uint32_t K = 0; K < Bank.SlotCount; ++K)
        SlotIndex.insertAbsent({.Activation = Activation,
                                .Slot = static_cast<std::uint32_t>(Base) + K,
                                .Reg = ScratchLocals[K]});
      assert(RegStack.size() == LocalTs.used() &&
             "register stack out of sync with the slot file");
      PeakSlots = std::max(PeakSlots, LocalTs.used());
    }
  }

  Bank.Traced = WantTrace;
  if (WantTrace) {
    Bank.TracedIdx = static_cast<int>(Traced.size());
    Traced.push(Cycle);
    recomputeWindow();
    ++Stats[LoopId].Entries;
    if (TL)
      TL->begin(Track, "bank#" + std::to_string(LoopId), Cycle);
  } else {
    ++Stats[LoopId].UntracedEntries;
  }
  Active.push_back(std::move(Bank));
  PeakBanks = std::max(PeakBanks, static_cast<std::uint32_t>(Traced.size()));
  PeakNest = std::max(PeakNest, static_cast<std::uint32_t>(Active.size()));
  return Disabled ? 0 : extraCost(Cfg.SLoopCost);
}

PcBinStats &TraceEngine::pcBin(std::uint32_t LoopId, std::int32_t Pc) {
  PcBinsDirty = true;
  std::vector<std::pair<std::int32_t, PcBinStats>> &V = PcBinAcc[LoopId];
  for (std::pair<std::int32_t, PcBinStats> &E : V)
    if (E.first == Pc)
      return E.second;
  V.emplace_back(Pc, PcBinStats{});
  return V.back().second;
}

void TraceEngine::flushPcBins() const {
  if (!PcBinsDirty)
    return;
  PcBinsDirty = false;
  for (std::size_t L = 0; L < PcBinAcc.size(); ++L) {
    for (const std::pair<std::int32_t, PcBinStats> &E : PcBinAcc[L]) {
      PcBinStats &Dst = Stats[L].PcBins[E.first];
      Dst.CriticalArcs += E.second.CriticalArcs;
      Dst.AccumulatedLength += E.second.AccumulatedLength;
    }
    PcBinAcc[L].clear();
  }
}

void TraceEngine::finalizeThread(std::uint32_t LoopId, std::size_t Idx) {
  StlStats &S = Stats[LoopId];
  const std::uint64_t MinPrev = Traced.MinArcPrev[Idx];
  const std::uint64_t MinEarlier = Traced.MinArcEarlier[Idx];
  const std::uint64_t NewLoad = Traced.NewLoadLines[Idx];
  const std::uint64_t NewStore = Traced.NewStoreLines[Idx];
  if (MinPrev != NoArc) {
    ++S.CritArcsPrev;
    S.CritLenPrev += MinPrev;
    if (ExtendedPcBinning) {
      PcBinStats &Bin = pcBin(LoopId, Traced.MinArcPrevPc[Idx]);
      ++Bin.CriticalArcs;
      Bin.AccumulatedLength += MinPrev;
    }
  }
  if (MinEarlier != NoArc) {
    ++S.CritArcsEarlier;
    S.CritLenEarlier += MinEarlier;
    if (ExtendedPcBinning) {
      PcBinStats &Bin = pcBin(LoopId, Traced.MinArcEarlierPc[Idx]);
      ++Bin.CriticalArcs;
      Bin.AccumulatedLength += MinEarlier;
    }
  }
  ++S.Threads;
  S.MaxLoadLines = std::max(S.MaxLoadLines, NewLoad);
  S.MaxStoreLines = std::max(S.MaxStoreLines, NewStore);
  // A thread overflowed iff its tallies ever exceeded the speculative
  // buffer capacities; the tallies only grow within a thread, so the final
  // values decide it and the hot sweeps carry no sticky flag.
  if (NewLoad > Cfg.SpecLoadLines || NewStore > Cfg.SpecStoreLines)
    ++S.OverflowThreads;
  Traced.resetThread(Idx);
}

std::uint32_t TraceEngine::onLoopIter(std::uint32_t LoopId,
                                      std::uint64_t Cycle) {
  ++Events.LoopIters;
  LastEventTime = Cycle;
  BankFrame *Bank = findTraced(LoopId);
  if (!Bank)
    return isDisabled(LoopId) ? 0 : extraCost(Cfg.EoiCost);
  // Thread boundary: record the finished thread and start the next one.
  const std::size_t Idx = static_cast<std::size_t>(Bank->TracedIdx);
  ThreadSizeCycles.record(Cycle - Traced.CurStart[Idx]);
  finalizeThread(LoopId, Idx);
  Traced.PrevStart[Idx] = Traced.CurStart[Idx];
  Traced.CurStart[Idx] = Cycle;
  recomputeWindow();
  return extraCost(Cfg.EoiCost);
}

void TraceEngine::closeBank(BankFrame &Bank, std::uint64_t Cycle) {
  if (Bank.Traced) {
    // Traced banks close strictly LIFO, so this bank's comparator state is
    // the top of the SoA stack.
    std::size_t Idx = static_cast<std::size_t>(Bank.TracedIdx);
    assert(Idx + 1 == Traced.size() && "non-LIFO traced bank close");
    if (Cycle >= Traced.CurStart[Idx])
      ThreadSizeCycles.record(Cycle - Traced.CurStart[Idx]);
    finalizeThread(Bank.LoopId, Idx);
    Stats[Bank.LoopId].Cycles += Cycle - Traced.EntryTime[Idx];
    Traced.pop();
    recomputeWindow();
    if (TL)
      TL->end(Track, Cycle);
  }
  if (Bank.SlotBase >= 0) {
    if (LocalTs.release(static_cast<std::uint32_t>(Bank.SlotBase),
                        Bank.SlotCount) == SlotReleaseResult::Ok) {
      const std::uint32_t Base = static_cast<std::uint32_t>(Bank.SlotBase);
      for (std::uint32_t K = 0; K < Bank.SlotCount; ++K)
        SlotIndex.erase({Bank.Activation, RegStack[Base + K]});
      RegStack.resize(static_cast<std::size_t>(Bank.SlotBase));
    } else {
      ++SlotReleaseErrors; // slot file and index untouched, RegStack too
    }
  }
}

std::uint32_t TraceEngine::onLoopEnd(std::uint32_t LoopId,
                                     std::uint64_t Cycle) {
  ++Events.LoopEnds;
  LastEventTime = Cycle;
  // A matching sloop may never have fired (e.g. the loop was entered before
  // tracing was switched on); in that case the eloop is ignored rather than
  // tearing down enclosing banks.
  bool OnStack = false;
  for (const BankFrame &B : Active)
    OnStack |= B.LoopId == LoopId;
  if (!OnStack)
    return isDisabled(LoopId) ? 0 : extraCost(Cfg.ELoopCost);
  // Pop until this loop's entry is closed; any entries above it were left
  // open by non-structured exits and are closed as well.
  while (!Active.empty()) {
    BankFrame Bank = std::move(Active.back());
    Active.pop_back();
    closeBank(Bank, Cycle);
    if (Bank.LoopId == LoopId)
      break;
  }
  return isDisabled(LoopId) ? 0 : extraCost(Cfg.ELoopCost);
}

void TraceEngine::onReturn(std::uint64_t Activation) {
  ++Events.Returns;
  while (!Active.empty() && Active.back().Activation == Activation) {
    BankFrame Bank = std::move(Active.back());
    Active.pop_back();
    closeBank(Bank, LastEventTime);
  }
}

std::uint32_t TraceEngine::onReadStats(std::uint32_t LoopId,
                                       std::uint64_t Cycle) {
  ++Events.ReadStats;
  LastEventTime = Cycle;
  return isDisabled(LoopId) ? 0 : extraCost(Cfg.ReadStatsCost);
}

std::vector<int> TraceEngine::dynamicParents() const {
  std::vector<int> Parents(Stats.size(), -1);
  for (std::uint32_t L = 0; L < ParentVotes.size(); ++L) {
    const std::vector<std::uint64_t> &Votes = ParentVotes[L];
    if (Votes.empty())
      continue; // never entered
    // Ascending parent order with a strict max keeps the tie-break of the
    // ordered-map implementation: the smallest parent id wins.
    int Best = -1;
    std::uint64_t BestVotes = 0;
    for (std::size_t P = 0; P < Votes.size(); ++P) {
      if (Votes[P] > BestVotes) {
        Best = static_cast<int>(P) - 1;
        BestVotes = Votes[P];
      }
    }
    Parents[L] = Best;
  }
  // Discard any edges that would form a cycle (possible when a loop is
  // observed in several contexts): walk up from each node, cutting the edge
  // that closes a loop.
  for (std::uint32_t L = 0; L < Parents.size(); ++L) {
    std::vector<bool> Seen(Parents.size(), false);
    std::uint32_t Cur = L;
    Seen[L] = true;
    while (Parents[Cur] >= 0) {
      std::uint32_t P = static_cast<std::uint32_t>(Parents[Cur]);
      if (Seen[P]) {
        Parents[Cur] = -1;
        break;
      }
      Seen[P] = true;
      Cur = P;
    }
  }
  return Parents;
}
