//===- bench/bench_tracer_throughput.cpp - SoA tracer vs seed engine -------==//
//
// Bit-exactness check for the structure-of-arrays tracer core (src/tracer)
// against the seed per-event engine, with an informational events/sec
// comparison. Tracer throughput is tracked by perfbench's tracer-sweep
// workload; this bench carries no throughput gate.
//
// The seed engine no longer exists in the tree, so this bench embeds a
// faithful copy of it (namespace `legacy` below: an unordered_map + deque
// store-timestamp FIFO, a valid-bit associative line table, a std::map
// parent-vote structure, and one virtual TraceSink call per memory event).
// Both engines analyze the same work: per registry workload and annotation
// level, one annotated profiling run is captured as an in-memory event
// stream (untimed), and the timed legs re-drive each engine from that
// identical stream through trace::dispatchEvent.
//
// Every stream is verified on the spot:
//   - per-loop StlStats (arc histograms, overflow counts, PC bins),
//     dynamicParents, and peak gauges bit-identical between the legacy
//     and the new engine
//   - the new engine's selection digest and exported tracer.* metrics
//     bit-identical between the live profiled run and the replayed stream
//
// Exit 0 when every stream is bit-identical, 1 on any divergence.
// --quick runs a workload subset (the CI perf smoke).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/Candidates.h"
#include "interp/ExecContext.h"
#include "interp/Heap.h"
#include "jit/Annotator.h"
#include "metrics/Metrics.h"
#include "trace/Reader.h"
#include "tracer/Selector.h"
#include "tracer/TraceEngine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

using namespace jrpm;
using namespace jrpm::benchutil;

namespace legacy {

// --------------------------------------------------------------------------
// Verbatim port of the seed tracer (per-event, pointer-chasing layout).
// Do not "improve" it — it is the measurement baseline.
// --------------------------------------------------------------------------

using tracer::LoopTraceInfo;
using tracer::NoTimestamp;
using tracer::PcBinStats;
using tracer::StlStats;

class HeapStoreTimestamps {
public:
  HeapStoreTimestamps(std::uint32_t CapacityLines, std::uint32_t WordsPerLine)
      : Capacity(CapacityLines), WordsPerLine(WordsPerLine) {}

  void recordStore(std::uint32_t Addr, std::uint64_t Cycle) {
    std::uint32_t Line = Addr / WordsPerLine;
    auto It = Lines.find(Line);
    if (It == Lines.end()) {
      if (Fifo.size() == Capacity) {
        Lines.erase(Fifo.front());
        Fifo.pop_front();
      }
      Fifo.push_back(Line);
      It = Lines.emplace(Line, LineEntry{}).first;
    }
    It->second.WordTs[Addr % WordsPerLine] = Cycle;
  }

  std::uint64_t lookup(std::uint32_t Addr) const {
    auto It = Lines.find(Addr / WordsPerLine);
    if (It == Lines.end())
      return NoTimestamp;
    return It->second.WordTs[Addr % WordsPerLine];
  }

private:
  struct LineEntry {
    std::array<std::uint64_t, 8> WordTs = {};
  };
  std::uint32_t Capacity;
  std::uint32_t WordsPerLine;
  std::unordered_map<std::uint32_t, LineEntry> Lines;
  std::deque<std::uint32_t> Fifo;
};

class CacheLineTimestampTable {
public:
  explicit CacheLineTimestampTable(std::uint32_t NumEntries,
                                   std::uint32_t WordsPerLine,
                                   std::uint32_t Associativity = 1)
      : WordsPerLine(WordsPerLine), Assoc(Associativity),
        Sets(NumEntries / Associativity), Table(NumEntries) {}

  std::uint64_t exchange(std::uint32_t Addr, std::uint64_t Cycle) {
    std::uint32_t Line = Addr / WordsPerLine;
    std::uint32_t Set = Line % Sets;
    std::uint32_t Tag = Line / Sets;
    std::uint32_t Base = Set * Assoc;
    for (std::uint32_t W = 0; W < Assoc; ++W) {
      Entry &E = Table[Base + W];
      if (E.Valid && E.Tag == Tag) {
        std::uint64_t Old = E.Ts;
        E.Ts = Cycle;
        return Old;
      }
    }
    std::uint32_t Victim = 0;
    for (std::uint32_t W = 1; W < Assoc; ++W)
      if (!Table[Base + W].Valid ||
          Table[Base + W].Ts < Table[Base + Victim].Ts)
        Victim = W;
    Entry &E = Table[Base + Victim];
    E.Valid = true;
    E.Tag = Tag;
    E.Ts = Cycle;
    return NoTimestamp;
  }

private:
  struct Entry {
    bool Valid = false;
    std::uint32_t Tag = 0;
    std::uint64_t Ts = 0;
  };
  std::uint32_t WordsPerLine;
  std::uint32_t Assoc;
  std::uint32_t Sets;
  std::vector<Entry> Table;
};

class LocalVarTimestampFile {
public:
  explicit LocalVarTimestampFile(std::uint32_t NumSlots)
      : Slots(NumSlots, NoTimestamp) {}

  int reserve(std::uint32_t Count) {
    if (Top + Count > Slots.size())
      return -1;
    int Base = static_cast<int>(Top);
    for (std::uint32_t S = 0; S < Count; ++S)
      Slots[Top + S] = NoTimestamp;
    Top += Count;
    return Base;
  }

  void release(std::uint32_t Base, std::uint32_t Count) {
    assert(Base + Count == Top && "non-stack release");
    (void)Count;
    Top = Base;
  }

  std::uint64_t read(std::uint32_t Slot) const { return Slots[Slot]; }
  void write(std::uint32_t Slot, std::uint64_t Cycle) { Slots[Slot] = Cycle; }
  std::uint32_t used() const { return Top; }

private:
  std::vector<std::uint64_t> Slots;
  std::uint32_t Top = 0;
};

struct ComparatorBank {
  std::uint32_t LoopId = 0;
  std::uint64_t Activation = 0;
  bool Traced = false;

  std::uint64_t EntryTime = 0;
  std::uint64_t CurThreadStart = 0;
  std::uint64_t PrevThreadStart = 0;

  static constexpr std::uint64_t NoArc = ~std::uint64_t(0);
  std::uint64_t MinArcPrev = NoArc;
  std::uint64_t MinArcEarlier = NoArc;
  std::int32_t MinArcPrevPc = -1;
  std::int32_t MinArcEarlierPc = -1;

  std::uint64_t NewLoadLines = 0;
  std::uint64_t NewStoreLines = 0;
  bool Overflowed = false;

  int SlotBase = -1;
  std::uint32_t SlotCount = 0;
  std::vector<std::pair<std::uint16_t, std::uint32_t>> RegSlots;
};

class TraceEngine : public interp::TraceSink {
public:
  TraceEngine(const sim::HydraConfig &Cfg, std::vector<LoopTraceInfo> LoopInfos,
              bool ExtendedPcBinning)
      : Cfg(Cfg), Loops(std::move(LoopInfos)),
        ExtendedPcBinning(ExtendedPcBinning),
        HeapTs(Cfg.HeapTimestampFifoLines, Cfg.WordsPerLine),
        LoadLineTs(Cfg.LoadTimestampEntries, Cfg.WordsPerLine,
                   Cfg.OverflowTableAssoc),
        StoreLineTs(Cfg.StoreTimestampEntries, Cfg.WordsPerLine,
                    Cfg.OverflowTableAssoc),
        LocalTs(Cfg.LocalVarSlots), Stats(Loops.size()) {}

  std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                           std::int32_t Pc) override {
    ++Events.HeapLoads;
    LastEventTime = Cycle;
    if (Active.empty())
      return 0;
    checkLoadArc(HeapTs.lookup(Addr), Cycle, Pc);
    std::uint64_t OldLineTs = LoadLineTs.exchange(Addr, Cycle);
    for (ComparatorBank &Bank : Active) {
      if (!Bank.Traced)
        continue;
      if (OldLineTs == NoTimestamp || OldLineTs < Bank.CurThreadStart) {
        ++Bank.NewLoadLines;
        if (Bank.NewLoadLines > Cfg.SpecLoadLines)
          Bank.Overflowed = true;
      }
    }
    return 0;
  }

  std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                            std::int32_t Pc) override {
    (void)Pc;
    ++Events.HeapStores;
    LastEventTime = Cycle;
    HeapTs.recordStore(Addr, Cycle);
    if (Active.empty())
      return 0;
    std::uint64_t OldLineTs = StoreLineTs.exchange(Addr, Cycle);
    for (ComparatorBank &Bank : Active) {
      if (!Bank.Traced)
        continue;
      if (OldLineTs == NoTimestamp || OldLineTs < Bank.CurThreadStart) {
        ++Bank.NewStoreLines;
        if (Bank.NewStoreLines > Cfg.SpecStoreLines)
          Bank.Overflowed = true;
      }
    }
    return 0;
  }

  std::uint32_t onLocalLoad(std::uint64_t Activation, std::uint16_t Reg,
                            std::uint64_t Cycle, std::int32_t Pc) override {
    ++Events.LocalLoads;
    LastEventTime = Cycle;
    for (auto It = Active.rbegin(); It != Active.rend(); ++It) {
      if (It->Activation != Activation)
        continue;
      for (const auto &[R, Slot] : It->RegSlots) {
        if (R == Reg) {
          checkLoadArc(LocalTs.read(Slot), Cycle, Pc);
          return 0;
        }
      }
    }
    return 0;
  }

  std::uint32_t onLocalStore(std::uint64_t Activation, std::uint16_t Reg,
                             std::uint64_t Cycle, std::int32_t Pc) override {
    (void)Pc;
    ++Events.LocalStores;
    LastEventTime = Cycle;
    for (auto It = Active.rbegin(); It != Active.rend(); ++It) {
      if (It->Activation != Activation)
        continue;
      for (const auto &[R, Slot] : It->RegSlots) {
        if (R == Reg) {
          LocalTs.write(Slot, Cycle);
          return 0;
        }
      }
    }
    return 0;
  }

  std::uint32_t onLoopStart(std::uint32_t LoopId, std::uint64_t Activation,
                            std::uint64_t Cycle) override {
    ++Events.LoopStarts;
    LastEventTime = Cycle;
    int Parent = Active.empty() ? -1 : static_cast<int>(Active.back().LoopId);
    ++ParentVotes[LoopId][Parent];

    ComparatorBank Bank;
    Bank.LoopId = LoopId;
    Bank.Activation = Activation;

    bool WantTrace = tracedCount() < Cfg.ComparatorBanks;
    if (WantTrace) {
      std::vector<std::uint16_t> NewLocals;
      for (std::uint16_t Reg : Loops[LoopId].AnnotatedLocals) {
        bool Covered = false;
        for (const ComparatorBank &B : Active) {
          if (B.Activation != Activation)
            continue;
          for (const auto &[R, Slot] : B.RegSlots)
            Covered |= R == Reg;
        }
        if (!Covered)
          NewLocals.push_back(Reg);
      }
      int Base = LocalTs.reserve(static_cast<std::uint32_t>(NewLocals.size()));
      if (Base < 0) {
        WantTrace = false;
      } else {
        Bank.SlotBase = Base;
        Bank.SlotCount = static_cast<std::uint32_t>(NewLocals.size());
        for (std::uint32_t S = 0; S < NewLocals.size(); ++S)
          Bank.RegSlots.emplace_back(NewLocals[S],
                                     static_cast<std::uint32_t>(Base) + S);
        PeakSlots = std::max(PeakSlots, LocalTs.used());
      }
    }

    Bank.Traced = WantTrace;
    if (WantTrace) {
      Bank.EntryTime = Bank.CurThreadStart = Bank.PrevThreadStart = Cycle;
      ++Stats[LoopId].Entries;
    } else {
      ++Stats[LoopId].UntracedEntries;
    }
    Active.push_back(std::move(Bank));
    PeakBanks = std::max(PeakBanks, tracedCount());
    PeakNest = std::max(PeakNest, static_cast<std::uint32_t>(Active.size()));
    return 0;
  }

  std::uint32_t onLoopIter(std::uint32_t LoopId, std::uint64_t Cycle) override {
    ++Events.LoopIters;
    LastEventTime = Cycle;
    ComparatorBank *Bank = findTraced(LoopId);
    if (!Bank)
      return 0;
    ThreadSizeCycles.record(Cycle - Bank->CurThreadStart);
    finalizeThread(*Bank);
    Bank->PrevThreadStart = Bank->CurThreadStart;
    Bank->CurThreadStart = Cycle;
    return 0;
  }

  std::uint32_t onLoopEnd(std::uint32_t LoopId, std::uint64_t Cycle) override {
    ++Events.LoopEnds;
    LastEventTime = Cycle;
    bool OnStack = false;
    for (const ComparatorBank &B : Active)
      OnStack |= B.LoopId == LoopId;
    if (!OnStack)
      return 0;
    while (!Active.empty()) {
      ComparatorBank Bank = std::move(Active.back());
      Active.pop_back();
      closeBank(Bank, Cycle);
      if (Bank.LoopId == LoopId)
        break;
    }
    return 0;
  }

  void onReturn(std::uint64_t Activation) override {
    ++Events.Returns;
    while (!Active.empty() && Active.back().Activation == Activation) {
      ComparatorBank Bank = std::move(Active.back());
      Active.pop_back();
      closeBank(Bank, LastEventTime);
    }
  }

  std::uint32_t onReadStats(std::uint32_t LoopId,
                            std::uint64_t Cycle) override {
    (void)LoopId;
    ++Events.ReadStats;
    LastEventTime = Cycle;
    return 0;
  }

  const StlStats &stats(std::uint32_t LoopId) const { return Stats[LoopId]; }
  std::uint32_t numLoops() const {
    return static_cast<std::uint32_t>(Stats.size());
  }
  std::uint32_t peakBanksInUse() const { return PeakBanks; }
  std::uint32_t peakLocalSlots() const { return PeakSlots; }
  std::uint32_t peakDynamicNest() const { return PeakNest; }

  std::vector<int> dynamicParents() const {
    std::vector<int> Parents(Stats.size(), -1);
    for (const auto &[LoopId, Votes] : ParentVotes) {
      int Best = -1;
      std::uint64_t BestVotes = 0;
      for (const auto &[Parent, Count] : Votes) {
        if (Count > BestVotes) {
          Best = Parent;
          BestVotes = Count;
        }
      }
      Parents[LoopId] = Best;
    }
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

private:
  std::uint32_t tracedCount() const {
    std::uint32_t N = 0;
    for (const ComparatorBank &B : Active)
      N += B.Traced;
    return N;
  }

  ComparatorBank *findTraced(std::uint32_t LoopId) {
    for (auto It = Active.rbegin(); It != Active.rend(); ++It)
      if (It->LoopId == LoopId)
        return It->Traced ? &*It : nullptr;
    return nullptr;
  }

  void checkLoadArc(std::uint64_t StoreTs, std::uint64_t Cycle,
                    std::int32_t Pc) {
    if (StoreTs == NoTimestamp)
      return;
    for (ComparatorBank &Bank : Active) {
      if (!Bank.Traced)
        continue;
      if (StoreTs >= Bank.CurThreadStart)
        continue;
      if (StoreTs < Bank.EntryTime)
        continue;
      std::uint64_t Len = Cycle - StoreTs;
      if (StoreTs >= Bank.PrevThreadStart) {
        if (Len < Bank.MinArcPrev) {
          Bank.MinArcPrev = Len;
          Bank.MinArcPrevPc = Pc;
        }
      } else if (Len < Bank.MinArcEarlier) {
        Bank.MinArcEarlier = Len;
        Bank.MinArcEarlierPc = Pc;
      }
    }
  }

  void finalizeThread(ComparatorBank &Bank) {
    StlStats &S = Stats[Bank.LoopId];
    if (Bank.MinArcPrev != ComparatorBank::NoArc) {
      ++S.CritArcsPrev;
      S.CritLenPrev += Bank.MinArcPrev;
      if (ExtendedPcBinning) {
        PcBinStats &Bin = S.PcBins[Bank.MinArcPrevPc];
        ++Bin.CriticalArcs;
        Bin.AccumulatedLength += Bank.MinArcPrev;
      }
    }
    if (Bank.MinArcEarlier != ComparatorBank::NoArc) {
      ++S.CritArcsEarlier;
      S.CritLenEarlier += Bank.MinArcEarlier;
      if (ExtendedPcBinning) {
        PcBinStats &Bin = S.PcBins[Bank.MinArcEarlierPc];
        ++Bin.CriticalArcs;
        Bin.AccumulatedLength += Bank.MinArcEarlier;
      }
    }
    ++S.Threads;
    S.MaxLoadLines = std::max(S.MaxLoadLines, Bank.NewLoadLines);
    S.MaxStoreLines = std::max(S.MaxStoreLines, Bank.NewStoreLines);
    if (Bank.Overflowed)
      ++S.OverflowThreads;

    Bank.MinArcPrev = Bank.MinArcEarlier = ComparatorBank::NoArc;
    Bank.MinArcPrevPc = Bank.MinArcEarlierPc = -1;
    Bank.NewLoadLines = Bank.NewStoreLines = 0;
    Bank.Overflowed = false;
  }

  void closeBank(ComparatorBank &Bank, std::uint64_t Cycle) {
    if (Bank.Traced) {
      if (Cycle >= Bank.CurThreadStart)
        ThreadSizeCycles.record(Cycle - Bank.CurThreadStart);
      finalizeThread(Bank);
      Stats[Bank.LoopId].Cycles += Cycle - Bank.EntryTime;
    }
    if (Bank.SlotBase >= 0)
      LocalTs.release(static_cast<std::uint32_t>(Bank.SlotBase),
                      Bank.SlotCount);
  }

  sim::HydraConfig Cfg;
  std::vector<LoopTraceInfo> Loops;
  bool ExtendedPcBinning;

  HeapStoreTimestamps HeapTs;
  CacheLineTimestampTable LoadLineTs;
  CacheLineTimestampTable StoreLineTs;
  LocalVarTimestampFile LocalTs;

  // The seed engine's per-event bookkeeping (event counters folded into the
  // metrics export, and the thread-size histogram). Part of the measured
  // baseline: every event ticks a counter and every thread boundary records
  // a histogram sample, exactly as the production engine does.
  struct EventCounts {
    std::uint64_t HeapLoads = 0;
    std::uint64_t HeapStores = 0;
    std::uint64_t LocalLoads = 0;
    std::uint64_t LocalStores = 0;
    std::uint64_t LoopStarts = 0;
    std::uint64_t LoopIters = 0;
    std::uint64_t LoopEnds = 0;
    std::uint64_t Returns = 0;
    std::uint64_t ReadStats = 0;
  };

  std::vector<ComparatorBank> Active;
  std::vector<StlStats> Stats;
  std::map<std::uint32_t, std::map<int, std::uint64_t>> ParentVotes;
  std::uint32_t PeakBanks = 0;
  std::uint32_t PeakSlots = 0;
  std::uint32_t PeakNest = 0;
  std::uint64_t LastEventTime = 0;
  EventCounts Events;
  metrics::Histogram ThreadSizeCycles;
};

} // namespace legacy

namespace {

// --------------------------------------------------------------------------
// Capture: one annotated profiling run per workload x level, teed into an
// in-memory event vector while a live TraceEngine supplies the cycle
// charges (so the captured stream is exactly what the product pipeline's
// tracer consumes).
// --------------------------------------------------------------------------

class CaptureSink : public interp::TraceSink {
public:
  CaptureSink(interp::TraceSink &Down, std::vector<trace::Event> &Out)
      : Down(Down), Out(Out) {}

  std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                           std::int32_t Pc) override {
    trace::Event E;
    E.Kind = trace::EventKind::HeapLoad;
    E.Addr = Addr;
    E.Cycle = Cycle;
    E.Pc = Pc;
    Out.push_back(E);
    return Down.onHeapLoad(Addr, Cycle, Pc);
  }
  std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                            std::int32_t Pc) override {
    trace::Event E;
    E.Kind = trace::EventKind::HeapStore;
    E.Addr = Addr;
    E.Cycle = Cycle;
    E.Pc = Pc;
    Out.push_back(E);
    return Down.onHeapStore(Addr, Cycle, Pc);
  }
  std::uint32_t onLocalLoad(std::uint64_t Activation, std::uint16_t Reg,
                            std::uint64_t Cycle, std::int32_t Pc) override {
    trace::Event E;
    E.Kind = trace::EventKind::LocalLoad;
    E.Activation = Activation;
    E.Reg = Reg;
    E.Cycle = Cycle;
    E.Pc = Pc;
    Out.push_back(E);
    return Down.onLocalLoad(Activation, Reg, Cycle, Pc);
  }
  std::uint32_t onLocalStore(std::uint64_t Activation, std::uint16_t Reg,
                             std::uint64_t Cycle, std::int32_t Pc) override {
    trace::Event E;
    E.Kind = trace::EventKind::LocalStore;
    E.Activation = Activation;
    E.Reg = Reg;
    E.Cycle = Cycle;
    E.Pc = Pc;
    Out.push_back(E);
    return Down.onLocalStore(Activation, Reg, Cycle, Pc);
  }
  std::uint32_t onLoopStart(std::uint32_t LoopId, std::uint64_t Activation,
                            std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::LoopStart;
    E.LoopId = LoopId;
    E.Activation = Activation;
    E.Cycle = Cycle;
    Out.push_back(E);
    return Down.onLoopStart(LoopId, Activation, Cycle);
  }
  std::uint32_t onLoopIter(std::uint32_t LoopId, std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::LoopIter;
    E.LoopId = LoopId;
    E.Cycle = Cycle;
    Out.push_back(E);
    return Down.onLoopIter(LoopId, Cycle);
  }
  std::uint32_t onLoopEnd(std::uint32_t LoopId, std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::LoopEnd;
    E.LoopId = LoopId;
    E.Cycle = Cycle;
    Out.push_back(E);
    return Down.onLoopEnd(LoopId, Cycle);
  }
  void onReturn(std::uint64_t Activation) override {
    trace::Event E;
    E.Kind = trace::EventKind::Return;
    E.Activation = Activation;
    Out.push_back(E);
    Down.onReturn(Activation);
  }
  void onCallSite(std::int32_t Pc, std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::CallSite;
    E.Pc = Pc;
    E.Cycle = Cycle;
    Out.push_back(E);
    Down.onCallSite(Pc, Cycle);
  }
  void onCallReturn(std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::CallReturn;
    E.Cycle = Cycle;
    Out.push_back(E);
    Down.onCallReturn(Cycle);
  }
  std::uint32_t onReadStats(std::uint32_t LoopId,
                            std::uint64_t Cycle) override {
    trace::Event E;
    E.Kind = trace::EventKind::ReadStats;
    E.LoopId = LoopId;
    E.Cycle = Cycle;
    Out.push_back(E);
    return Down.onReadStats(LoopId, Cycle);
  }

private:
  interp::TraceSink &Down;
  std::vector<trace::Event> &Out;
};

/// The new engine's observable results for one stream, as the acceptance
/// criteria freeze them: selection digest + exported tracer.* metrics.
struct EngineResults {
  std::uint64_t Digest = 0;
  std::string MetricsJson;
};

EngineResults readResults(const tracer::TraceEngine &Engine,
                          std::uint64_t ProgramCycles,
                          const sim::HydraConfig &Cfg) {
  EngineResults R;
  R.Digest =
      tracer::selectionDigest(tracer::selectStls(Engine, ProgramCycles, Cfg));
  metrics::Registry Reg;
  Engine.exportMetrics(Reg);
  R.MetricsJson = Reg.toJson().dump();
  return R;
}

struct CapturedStream {
  std::string Name; ///< "workload/level"
  std::vector<tracer::LoopTraceInfo> Loops;
  std::vector<trace::Event> Events;
  std::uint64_t RunCycles = 0;
  EngineResults Live; ///< from the capture run's own engine
};

/// One annotated run through the interpreter with \p Sink attached.
/// Returns the simulated cycle count.
std::uint64_t runAnnotated(const ir::Module &M, const sim::HydraConfig &Cfg,
                           interp::TraceSink &Sink) {
  interp::Heap H;
  interp::DirectMemoryPort Port(H, Cfg);
  interp::ExecContext Ctx(M, Cfg);
  Ctx.start(M.EntryFunction, {});
  return Ctx.run(Port, &Sink, 0, ~0ull);
}

// --------------------------------------------------------------------------
// Timed passes
// --------------------------------------------------------------------------

/// Everything the legacy and the new engine must agree on, bit for bit.
struct AnalysisFacts {
  std::vector<legacy::StlStats> Stats;
  std::vector<int> Parents;
  std::uint32_t PeakBanks = 0;
  std::uint32_t PeakSlots = 0;
  std::uint32_t PeakNest = 0;

  bool operator==(const AnalysisFacts &O) const = default;
};

struct PassResult {
  double Ms = 0;
  std::uint64_t Events = 0;
  std::vector<AnalysisFacts> Facts;       // one per stream
  std::vector<EngineResults> NewResults;  // new-engine passes only
};

// Only engine construction + event consumption are timed; result
// extraction (selectStls, metrics export, stats copies) happens outside
// the window in both passes so the comparison isolates the event path.

PassResult runLegacyPass(const std::vector<CapturedStream> &Streams) {
  PassResult P;
  for (const CapturedStream &C : Streams) {
    Stopwatch S;
    legacy::TraceEngine Engine(sim::HydraConfig{}, C.Loops,
                               /*ExtendedPcBinning=*/true);
    for (const trace::Event &E : C.Events)
      trace::dispatchEvent(E, Engine);
    P.Ms += S.ms();
    P.Events += C.Events.size();
    AnalysisFacts F;
    for (std::uint32_t L = 0; L < Engine.numLoops(); ++L)
      F.Stats.push_back(Engine.stats(L));
    F.Parents = Engine.dynamicParents();
    F.PeakBanks = Engine.peakBanksInUse();
    F.PeakSlots = Engine.peakLocalSlots();
    F.PeakNest = Engine.peakDynamicNest();
    P.Facts.push_back(std::move(F));
  }
  return P;
}

PassResult runNewPass(const std::vector<CapturedStream> &Streams) {
  PassResult P;
  sim::HydraConfig Cfg;
  for (const CapturedStream &C : Streams) {
    Stopwatch S;
    tracer::TraceEngine Engine(Cfg, C.Loops, /*ExtendedPcBinning=*/true);
    for (const trace::Event &E : C.Events)
      trace::dispatchEvent(E, Engine);
    P.Ms += S.ms();
    P.Events += C.Events.size();
    AnalysisFacts F;
    for (std::uint32_t L = 0; L < Engine.numLoops(); ++L)
      F.Stats.push_back(Engine.stats(L));
    F.Parents = Engine.dynamicParents();
    F.PeakBanks = Engine.peakBanksInUse();
    F.PeakSlots = Engine.peakLocalSlots();
    F.PeakNest = Engine.peakDynamicNest();
    P.Facts.push_back(std::move(F));
    P.NewResults.push_back(readResults(Engine, C.RunCycles, Cfg));
  }
  return P;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  for (int A = 1; A < argc; ++A)
    if (std::strcmp(argv[A], "--quick") == 0)
      Quick = true;

  printBanner("Tracer throughput - SoA core vs seed engine",
              "the TEST analysis underneath Tables 3-6");

  sim::HydraConfig Cfg;
  const std::vector<workloads::Workload> &All = workloads::allWorkloads();
  std::size_t Count = Quick ? std::min<std::size_t>(8, All.size())
                            : All.size();

  // Capture (untimed): per workload x level, one profiled run teed into
  // memory.
  std::vector<CapturedStream> Streams;
  for (std::size_t I = 0; I < Count; ++I) {
    ir::Module Plain = All[I].Build();
    analysis::ModuleAnalysis MA(Plain);
    for (jit::AnnotationLevel Level :
         {jit::AnnotationLevel::Base, jit::AnnotationLevel::Optimized}) {
      jit::AnnotatedModule Ann = jit::annotateModule(Plain, MA, Level);
      CapturedStream C;
      C.Name = All[I].Name +
               (Level == jit::AnnotationLevel::Base ? "/base" : "/opt");
      C.Loops = Ann.LoopInfos;

      tracer::TraceEngine LiveEngine(Cfg, C.Loops, /*ExtendedPcBinning=*/true);
      CaptureSink Capture(LiveEngine, C.Events);
      C.RunCycles = runAnnotated(Ann.Module, Cfg, Capture);
      C.Live = readResults(LiveEngine, C.RunCycles, Cfg);
      Streams.push_back(std::move(C));
    }
  }
  std::uint64_t TotalEvents = 0;
  for (const CapturedStream &C : Streams)
    TotalEvents += C.Events.size();
  std::printf("registry: %zu streams (%zu workloads x 2 levels), "
              "%llu events%s\n\n",
              Streams.size(), Count, (unsigned long long)TotalEvents,
              Quick ? "  [--quick]" : "");

  // Warm-up primes code and the captured streams' pages.
  runNewPass(Streams);

  PassResult Legacy = runLegacyPass(Streams);
  PassResult New = runNewPass(Streams);

  // Bit-exactness: the SoA core is a pure representation change.
  for (std::size_t I = 0; I < Streams.size(); ++I) {
    if (!(Legacy.Facts[I] == New.Facts[I])) {
      std::printf("FAIL: %s: new engine diverged from the seed engine "
                  "(StlStats/parents/peaks)\n",
                  Streams[I].Name.c_str());
      return 1;
    }
    if (New.NewResults[I].Digest != Streams[I].Live.Digest ||
        New.NewResults[I].MetricsJson != Streams[I].Live.MetricsJson) {
      std::printf("FAIL: %s: replayed results diverged from the live "
                  "profiled run (digest/metrics)\n",
                  Streams[I].Name.c_str());
      return 1;
    }
  }

  auto Eps = [](std::uint64_t Events, double Ms) {
    return static_cast<double>(Events) / (Ms / 1000.0) / 1e6;
  };
  double LegacyEps = Eps(Legacy.Events, Legacy.Ms);
  double NewEps = Eps(New.Events, New.Ms);

  TextTable T;
  T.setHeader({"engine", "wall ms", "Mevents/s", "speedup"});
  T.addRow({"per-event pointer chasing (seed)", fmt(Legacy.Ms, 1),
            fmt(LegacyEps, 1), "1.00x"});
  T.addRow({"per-event SoA core", fmt(New.Ms, 1), fmt(NewEps, 1),
            fmt(NewEps / LegacyEps, 2) + "x"});
  T.print();

  std::printf("\nPASS: all %zu streams bit-identical: StlStats + PC bins + "
              "dynamic parents + peaks vs the seed engine,\nselection "
              "digests + tracer.* metrics vs the live profiled run\n",
              Streams.size());
  return 0;
}
