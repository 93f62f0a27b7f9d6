//===- tracer/TraceEngine.h - The TEST hardware model ----------------------==//
//
// Consumes the annotated sequential execution's event stream and performs
// the two trace analyses of Section 4.2 — load dependency analysis and
// speculative state overflow analysis — exactly as the comparator-bank
// hardware of Section 5 would: a bounded array of banks allocated
// stack-style by `sloop`/`eloop`, shared timestamp storage in the idle
// speculation store buffers, and per-thread critical-arc folding at each
// `eoi`.
//
// Every event arrives through its own TraceSink method, in stream order.
// Per-bank comparator state is kept as structure-of-arrays over the traced
// banks only, making the load-arc comparison and the overflow tally
// branch-light sweeps over contiguous timestamp arrays.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACER_TRACEENGINE_H
#define JRPM_TRACER_TRACEENGINE_H

#include "interp/TraceSink.h"
#include "ir/AnnotationVerifier.h"
#include "metrics/Metrics.h"
#include "metrics/Timeline.h"
#include "sim/Config.h"
#include "tracer/StlStats.h"
#include "tracer/TimestampStores.h"

#include <cstdint>
#include <vector>

namespace jrpm {
namespace interp {
class EventBlock;
} // namespace interp

namespace tracer {

/// Final, so code that holds a TraceEngine by its own type (a cached
/// trace's replay) calls the handlers directly, not through the vtable.
class TraceEngine final : public interp::TraceSink {
public:
  /// Arc length meaning "no arc observed for this thread yet".
  static constexpr std::uint64_t NoArc = ~std::uint64_t(0);

  /// \p Loops is indexed by module-global loop id; a loop's annotated
  /// locals are the ones that receive timestamp slots.
  TraceEngine(const sim::HydraConfig &Cfg,
              std::vector<ir::LoopAnnotationInfo> Loops,
              bool ExtendedPcBinning = false);

  /// Dynamically stop tracing a loop once this many threads have been
  /// observed for it, freeing its bank for deeper loops (Section 5.2's
  /// annotation-disabling mechanism). 0 disables the feature.
  void setDisableLoopAfterThreads(std::uint64_t Threshold) {
    DisableAfterThreads = Threshold;
  }

  // --- TraceSink interface -------------------------------------------------
  std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                           std::int32_t Pc) override;
  std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                            std::int32_t Pc) override;
  std::uint32_t onLocalLoad(std::uint64_t Activation, std::uint16_t Reg,
                            std::uint64_t Cycle, std::int32_t Pc) override;
  std::uint32_t onLocalStore(std::uint64_t Activation, std::uint16_t Reg,
                             std::uint64_t Cycle, std::int32_t Pc) override;
  std::uint32_t onLoopStart(std::uint32_t LoopId, std::uint64_t Activation,
                            std::uint64_t Cycle) override;
  std::uint32_t onLoopIter(std::uint32_t LoopId, std::uint64_t Cycle) override;
  std::uint32_t onLoopEnd(std::uint32_t LoopId, std::uint64_t Cycle) override;
  void onReturn(std::uint64_t Activation) override;
  std::uint32_t onReadStats(std::uint32_t LoopId,
                            std::uint64_t Cycle) override;

  /// perfbench shim, see interp/EventBlock.h.
  interp::EventBlock *eventBlock() const { return nullptr; }

  // --- Results -------------------------------------------------------------
  const StlStats &stats(std::uint32_t LoopId) const {
    flushPcBins();
    return Stats[LoopId];
  }
  std::uint32_t numLoops() const {
    return static_cast<std::uint32_t>(Stats.size());
  }

  /// Dynamic nesting: majority-vote parent loop id per loop (-1 for
  /// top-level). Cycle-free by construction (votes creating a cycle are
  /// discarded).
  std::vector<int> dynamicParents() const;

  /// Peak number of simultaneously traced STLs (hardware needs this many
  /// comparator banks).
  std::uint32_t peakBanksInUse() const { return PeakBanks; }

  /// Peak number of local-variable timestamp slots in use.
  std::uint32_t peakLocalSlots() const { return PeakSlots; }

  /// Maximum dynamic loop-nest depth observed (Table 6 column d), counting
  /// loops that could not get a bank.
  std::uint32_t peakDynamicNest() const { return PeakNest; }

  /// Attaches the span recorder: traced bank activations become nested
  /// spans on \p T (the comparator-bank array is a stack, so spans nest by
  /// construction).
  void setObservability(metrics::Timeline *Timeline, metrics::TrackId T) {
    TL = Timeline;
    Track = T;
  }

  /// Exports accumulated totals as "tracer.*" metrics. Every value is a
  /// pure function of the consumed event stream, so a live run and a
  /// replayed capture of the same run export identical bytes.
  void exportMetrics(metrics::Registry &R) const;

private:
  /// One entry of the sloop/eloop stack. Hot comparator state for traced
  /// entries lives in the Traced SoA arrays (indexed by TracedIdx); the
  /// frame keeps only identity and slot ownership. Entries with
  /// Traced == false are placeholders for loops that could not get a bank
  /// (array exhausted, no local slots, or tracing dynamically disabled)
  /// and only keep the stack balanced.
  struct BankFrame {
    std::uint32_t LoopId = 0;
    std::uint64_t Activation = 0;
    bool Traced = false;
    int TracedIdx = -1;
    /// This bank's slice of RegStack/LocalTs: slots
    /// [SlotBase, SlotBase + SlotCount) hold the timestamps of the
    /// registers RegStack[SlotBase .. SlotBase + SlotCount). -1 when the
    /// bank owns no reservation. No per-frame heap state — pushing a frame
    /// is a plain store.
    int SlotBase = -1;
    std::uint32_t SlotCount = 0;
  };

  /// Structure-of-arrays comparator state of the traced banks, a stack
  /// parallel to the traced subsequence of Active. The per-event analyses
  /// sweep these contiguous arrays directly (Figure 7's parallel
  /// comparator banks).
  struct TracedBanks {
    std::vector<std::uint64_t> EntryTime;
    std::vector<std::uint64_t> CurStart;
    std::vector<std::uint64_t> PrevStart;
    std::vector<std::uint64_t> MinArcPrev;
    std::vector<std::uint64_t> MinArcEarlier;
    std::vector<std::int32_t> MinArcPrevPc;
    std::vector<std::int32_t> MinArcEarlierPc;
    std::vector<std::uint64_t> NewLoadLines;
    std::vector<std::uint64_t> NewStoreLines;
    /// Live bank count. The arrays are sized once to the comparator-bank
    /// capacity (init), so push/pop on the sloop/eloop path are plain
    /// stores and a counter bump — no allocator, no capacity checks.
    std::size_t Size = 0;

    void init(std::size_t Capacity);
    std::size_t size() const { return Size; }
    void push(std::uint64_t Cycle);
    void pop() { --Size; }
    /// Resets the per-thread accumulators of bank \p Idx.
    void resetThread(std::size_t Idx);
  };

  /// True once the runtime has dynamically disabled this loop's
  /// annotations (they cost nothing from then on — the paper overwrites
  /// them with nops).
  bool isDisabled(std::uint32_t LoopId) const {
    return DisableAfterThreads &&
           Stats[LoopId].Threads >= DisableAfterThreads;
  }
  /// Coprocessor interaction cost beyond the annotation instruction's own
  /// cycle.
  std::uint32_t extraCost(std::uint32_t Total) const {
    return Total > 0 ? Total - 1 : 0;
  }

  BankFrame *findTraced(std::uint32_t LoopId);
  /// Flat PC-bin accumulator lookup for \p LoopId (grows on first touch).
  PcBinStats &pcBin(std::uint32_t LoopId, std::int32_t Pc);
  /// Folds the flat per-loop PC-bin accumulators into the observable
  /// ordered StlStats::PcBins maps. Lazy: called on every result read,
  /// cheap no-op when nothing accumulated since the last flush.
  void flushPcBins() const;
  /// Folds traced bank \p Idx's finished thread into \p LoopId's StlStats
  /// and resets its per-thread accumulators.
  void finalizeThread(std::uint32_t LoopId, std::size_t Idx);
  void closeBank(BankFrame &Bank, std::uint64_t Cycle);
  /// Load dependency check: the inline front gate decides via the cached
  /// window aggregates (one compare each) whether the store can matter to
  /// any comparator at all; only survivors take the outlined bank sweep.
  void checkLoadArc(std::uint64_t StoreTs, std::uint64_t Cycle,
                    std::int32_t Pc) {
    if (StoreTs == NoTimestamp || StoreTs >= MaxCurStart ||
        StoreTs < MinEntryTime)
      return;
    checkLoadArcSweep(StoreTs, Cycle, Pc);
  }
  void checkLoadArcSweep(std::uint64_t StoreTs, std::uint64_t Cycle,
                         std::int32_t Pc);
  /// Refreshes the cached comparison-window aggregates after any traced
  /// bank's EntryTime/CurStart changes (loop start, iteration, close).
  void recomputeWindow() {
    std::uint64_t MaxCur = 0;
    std::uint64_t MinEntry = ~std::uint64_t(0);
    for (std::size_t I = 0; I < Traced.Size; ++I) {
      MaxCur = std::max(MaxCur, Traced.CurStart[I]);
      MinEntry = std::min(MinEntry, Traced.EntryTime[I]);
    }
    MaxCurStart = MaxCur;
    MinEntryTime = MinEntry;
  }

  /// Held by value (reentrancy audit): sweep jobs construct engines from
  /// per-job configs on their own stacks, and a reference member would
  /// dangle the moment a job outlives the temporary it was built from.
  sim::HydraConfig Cfg;
  std::vector<ir::LoopAnnotationInfo> Loops;
  bool ExtendedPcBinning;
  std::uint64_t DisableAfterThreads = 0;

  HeapStoreTimestamps HeapTs;
  CacheLineTimestampTable LoadLineTs;
  CacheLineTimestampTable StoreLineTs;
  LocalVarTimestampFile LocalTs;
  /// O(1) resolution of (activation, register) to its LocalTs slot —
  /// mirrors the live reservations in RegStack exactly (insert on
  /// reservation, erase on release), so local-variable events skip the
  /// bank-stack walk entirely.
  FlatTable<LocalSlot> SlotIndex;

  std::vector<BankFrame> Active; // stack, bottom = outermost
  TracedBanks Traced;            // SoA state of the traced subsequence
  /// Register number per reserved local slot, exactly parallel to the
  /// LocalTs slot file (RegStack.size() == LocalTs.used() always): slot S
  /// times the variable held in register RegStack[S]. Reservations are
  /// stack-style, so a bank's registers are the contiguous slice named by
  /// its SlotBase/SlotCount and release is a truncation.
  std::vector<std::uint16_t> RegStack;
  /// onLoopStart scratch for the not-yet-covered annotated locals; a
  /// member so the hot path reuses its capacity instead of allocating.
  std::vector<std::uint16_t> ScratchLocals;
  /// Cached aggregates over the traced banks' comparison windows. A store
  /// timestamp at or past every bank's current thread start (the
  /// overwhelmingly common same-thread case) or before every bank's entry
  /// cannot affect any comparator, so the per-event sweeps are skipped
  /// with a single compare — the hardware analogue of the bank array's
  /// shared window register.
  std::uint64_t MaxCurStart = 0;
  std::uint64_t MinEntryTime = ~std::uint64_t(0);
  /// Indexed by loop id. Mutable with PcBinAcc/PcBinsDirty: the flat PC-bin
  /// accumulators are folded into the observable ordered maps lazily on
  /// the first result read (stats() is const, as results reads should be).
  mutable std::vector<StlStats> Stats;
  /// Flat per-loop (pc, bin) accumulators for the extended PC binning. A
  /// thread contributes at most two critical arcs and a loop's arcs
  /// concentrate on a handful of PCs, so an unsorted vector scan beats the
  /// ordered map on the thread-boundary path by an order of magnitude.
  mutable std::vector<std::vector<std::pair<std::int32_t, PcBinStats>>>
      PcBinAcc;
  mutable bool PcBinsDirty = false;
  /// Flat parent-vote matrix: row = loop id, column = parent loop id + 1
  /// (column 0 counts top-level entries). Rows are allocated on the first
  /// vote so nests touch only the loops they actually contain.
  std::vector<std::vector<std::uint64_t>> ParentVotes;
  std::uint32_t PeakBanks = 0;
  std::uint32_t PeakSlots = 0;
  std::uint32_t PeakNest = 0;
  std::uint64_t LastEventTime = 0;
  std::uint64_t SlotReleaseErrors = 0;

  /// Event-stream counters: one plain increment per event, folded into a
  /// registry only by exportMetrics().
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
  EventCounts Events;
  metrics::Histogram ThreadSizeCycles;
  metrics::Timeline *TL = nullptr;
  metrics::TrackId Track = 0;
};

} // namespace tracer
} // namespace jrpm

#endif // JRPM_TRACER_TRACEENGINE_H
