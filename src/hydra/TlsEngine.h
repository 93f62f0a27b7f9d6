//===- hydra/TlsEngine.h - Speculative execution of selected STLs ----------==//
//
// Cycle-level model of Hydra's four-core thread-level speculation. When
// sequential execution reaches the header of a selected STL, the engine
// takes over: loop iterations are assigned to cores in sequential order,
// stores are buffered per thread (Table 1 limits), loads forward from the
// nearest earlier uncommitted thread, a store by an earlier thread to data
// a later thread already read violates and restarts the later thread (and
// everything more speculative), buffer overflows stall a thread until it
// becomes the head, and the head thread committing the loop-exit path ends
// the STL. Fixed overheads follow Table 2.
//
// The simulation is event-driven (DESIGN.md §4): each core runs ahead on
// its own clock through instructions that touch only its registers, and
// only shared events (loads, stores, loop boundaries, traps) are executed
// in global (cycle, core) order, with the head-commit/refill transitions
// run one cycle after any event that changed state they read: a boundary,
// a stall, a sync wait, a parked trap, or a store that squashed, stalled
// or wrote a synchronized spill address. The engine executes a core's
// loads and stores itself, against the store buffers and tag bits; a
// synchronized load whose value is not produced yet leaves the core parked
// on it until the producer stores. A spawn refills the core's register
// file in place, and address-to-line splits use precomputed reciprocals.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_HYDRA_TLSENGINE_H
#define JRPM_HYDRA_TLSENGINE_H

#include "exec/CodeImage.h"
#include "hydra/SpecTags.h"
#include "interp/ExecContext.h"
#include "interp/Machine.h"
#include "jit/TlsPlan.h"
#include "metrics/Metrics.h"
#include "metrics/Timeline.h"
#include "sim/CacheModel.h"
#include "sim/Config.h"
#include "support/FastDivMod.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

namespace jrpm {
namespace hydra {

/// Per-loop speculative execution statistics.
///
/// Thread identity: every spawned thread lifetime resolves exactly once, so
///   ThreadsStarted == CommittedThreads + Restarts + ThreadsDiscarded
///                     + ThreadsExited.
///
/// Cycle identity: the six *Cycles buckets partition every core-cycle the
/// loop occupied, so
///   UsefulCycles + ForkCommitCycles + ViolationDiscardCycles
///     + BufferStallCycles + SyncStallCycles + IdleCycles
///   == NumCores * SpecCycles.
struct TlsLoopRunStats {
  std::uint64_t Invocations = 0;
  std::uint64_t CommittedThreads = 0;
  std::uint64_t Violations = 0;
  std::uint64_t Restarts = 0;
  std::uint64_t OverflowStalls = 0;
  std::uint64_t SyncStalls = 0;
  std::uint64_t SpecCycles = 0;
  std::uint64_t ThreadsStarted = 0;
  /// Threads whose loop-exit path was adopted by the sequential context.
  std::uint64_t ThreadsExited = 0;
  /// Live threads thrown away when another thread's exit ended the loop.
  std::uint64_t ThreadsDiscarded = 0;
  // Table-2 style overhead buckets, in core-cycles.
  std::uint64_t UsefulCycles = 0;
  std::uint64_t ForkCommitCycles = 0;
  std::uint64_t ViolationDiscardCycles = 0;
  std::uint64_t BufferStallCycles = 0;
  std::uint64_t SyncStallCycles = 0;
  std::uint64_t IdleCycles = 0;
};

class TlsEngine : public interp::LoopDispatcher {
public:
  /// \p M is the plain (unannotated) module the sequential machine runs;
  /// it must outlive the engine. \p Plans describe the selected STLs.
  TlsEngine(const ir::Module &M, const sim::HydraConfig &Cfg,
            std::vector<jit::TlsLoopPlan> Plans);
  TlsEngine(ir::Module &&, const sim::HydraConfig &,
            std::vector<jit::TlsLoopPlan>) = delete;

  /// Binds the engine to \p M, which must run the engine's module (throws
  /// std::invalid_argument otherwise): the cores run on \p M's image, into
  /// which each loop's clone is installed when the loop first runs. Binding
  /// again starts over: loops are prepared anew and the cores' L1s are cold.
  const std::vector<std::uint32_t> &stopMap(interp::Machine &M) override;
  bool onBlockStart(interp::ExecContext &Ctx, interp::Machine &M) override;

  const std::map<std::uint32_t, TlsLoopRunStats> &loopStats() const {
    return Stats;
  }

  /// Aggregate statistics over all loops.
  TlsLoopRunStats totals() const;

  /// Attaches the span recorder: one track per core for thread lifetimes,
  /// stall sub-spans and violation markers, plus \p EngineTrack for loop
  /// invocation spans. \p Cores must hold one track per configured core.
  void setObservability(metrics::Timeline *Timeline, metrics::TrackId Engine,
                        std::vector<metrics::TrackId> Cores) {
    TL = Timeline;
    EngineTrack = Engine;
    CoreTracks = std::move(Cores);
  }

  /// Exports the aggregate stats as "spec.*" counters and histograms.
  void exportMetrics(metrics::Registry &R) const;

private:
  struct PreparedLoop {
    jit::TlsLoopPlan Plan;
    /// Flat PC of the clone's header block in the bound machine's image:
    /// spec threads
    /// spawn here and an iteration is done when control returns here.
    exec::FlatPc HeaderPcTls = 0;
    /// The clone's header and every block outside the loop: a thread's
    /// run-ahead ends after a depth-1 transfer onto one of them.
    interp::ExecContext::BoundaryMap Boundaries;
    std::vector<std::uint32_t> SpillAddrs; // sorted for membership checks
    bool Ready = false;

    bool isSpillAddr(std::uint32_t Addr) const {
      return std::binary_search(SpillAddrs.begin(), SpillAddrs.end(), Addr);
    }
  };

  static constexpr std::uint32_t NoLine = ~std::uint32_t(0);
  /// IterOf entry of a core with no thread.
  static constexpr std::uint64_t NoIter = ~std::uint64_t(0);

  /// One core's speculative thread state.
  struct SpecThread {
    /// WaitHead covers both an overflow stall and a parked trap: a non-head
    /// thread about to divide by zero waits, unexecuted, until it is the
    /// head (and then traps for real) or is squashed.
    enum class St { Idle, Running, WaitHead, WaitSync, IterDone, Exited };
    enum class Stall { None, Buffer, Sync };
    St State = St::Idle;
    std::uint64_t ReadyAt = 0;
    std::uint32_t ExitBlock = 0;
    /// Spill address a WaitSync thread spins on.
    std::uint32_t SyncAddr = 0;
    // Cycle-attribution state for the current lifetime (spawn..resolve).
    std::uint64_t StartAt = 0;
    /// Cycle up to which this lifetime is charged as fork/commit overhead
    /// (restart penalty, end-of-iteration handling); == ReadyAt at spawn.
    std::uint64_t SpawnOverheadUntil = 0;
    std::uint64_t StallStart = 0;
    Stall StallKind = Stall::None;
    std::uint64_t BufStallAcc = 0;
    std::uint64_t SyncStallAcc = 0;
    /// While Running: what the next shared event is (Shared: the
    /// instruction the context is parked on; Boundary: the depth-1 branch
    /// it just executed; Horizon: resume the run-ahead). Its cycle is in
    /// TlsEngine::NextEvent.
    interp::ExecContext::RunStop Pending =
        interp::ExecContext::RunStop::Shared;
    /// The line this core's last load tagged, while the tag lasts: repeated
    /// loads from one line skip the line-table lookup.
    std::uint32_t LastReadLine = NoLine;
    std::unique_ptr<interp::ExecContext> Ctx;
    std::unique_ptr<sim::L1CacheModel> L1;
    /// Keys this core holds tag bits on, in first-tag order: the store
    /// buffer's words and lines, the words it read (word-grain violation
    /// detection only), and the lines it read (the SpecLoadLines state, and
    /// the violation keys under line grain).
    std::vector<std::uint32_t> StoredWords;
    std::vector<std::uint32_t> StoredLines;
    std::vector<std::uint32_t> ReadWords;
    std::vector<std::uint32_t> ReadLines;
  };

  void prepareLoop(PreparedLoop &PL, interp::Machine &M);
  void runLoop(PreparedLoop &PL, interp::ExecContext &Ctx,
               interp::Machine &M);

  /// How a thread lifetime ended; decides which bucket its active cycles
  /// land in (Commit/Exit -> useful, Squash/Discard -> violation discard).
  enum class Outcome { Commit, Exit, Squash, Discard };
  void openStall(std::uint32_t Core, SpecThread::Stall Kind);
  void closeStall(std::uint32_t Core);
  /// Closes the current lifetime of \p Core's thread at the current Cycle:
  /// decomposes [StartAt, Cycle) into fork/commit + stall + active time,
  /// charges the buckets, and accounts the core occupancy.
  void resolveLifetime(std::uint32_t Core, Outcome O);

  /// Loads \p Addr for \p Core into \p Value, adding forwarding or L1
  /// miss latency to \p Cost. Returns false, loading nothing, when a
  /// synchronized load must wait for its producer (the thread is then
  /// WaitSync).
  bool specLoad(std::uint32_t Core, std::uint32_t Addr, std::uint64_t &Value,
                std::uint32_t &Cost);
  /// Buffers \p Core's store of \p Value to \p Addr. Returns whether it
  /// changed state the transition phase reads: it squashed a thread, it
  /// stalled \p Core on a buffer overflow, or it wrote a spill address
  /// under SyncCarriedLocals (which may release a sync waiter). After any
  /// other store a transition phase finds nothing to do.
  bool specStore(std::uint32_t Core, std::uint32_t Addr, std::uint64_t Value);

  // --- runLoop helpers (valid only during runLoop) -------------------------
  /// Fills \p Regs (a core's reused register file) with the spawn register
  /// file for iteration \p Iter.
  void fillSpawnRegs(std::vector<std::uint64_t> &Regs,
                     std::uint64_t Iter) const;
  /// Starts iteration \p Iter on \p Core; its first instruction issues
  /// \p Penalty cycles from now (restart or end-of-iteration overhead).
  void spawnThread(std::uint32_t Core, std::uint64_t Iter,
                   std::uint64_t Penalty);
  void squashThread(std::uint32_t Core);
  /// Makes a stalled thread Running again at max(ReadyAt, Cycle).
  void resumeThread(std::uint32_t Core);
  /// Resumes WaitSync threads whose producer has delivered (or finished).
  void resumeSyncWaiters();
  void commitThread(std::uint32_t Core);
  /// Runs \p Core ahead from its first instruction's issue cycle \p From
  /// to its next shared event.
  void runAhead(std::uint32_t Core, std::uint64_t From);
  /// Executes \p Core's pending event at Cycle; returns whether it changed
  /// state the transition phase reads.
  bool runEvent(std::uint32_t Core);
  /// Head commit/resume/exit, sync resumption and refill at Cycle; returns
  /// the thread whose loop exit ends the invocation, or null.
  SpecThread *runTransitions();
  /// Drains \p Core's store buffer to the heap and drops its written bits.
  void flushStores(std::uint32_t Core);
  /// Drops \p Core's read bits (and, with \p Stores, its buffered stores
  /// unflushed).
  void dropTags(std::uint32_t Core, bool Stores);
  void accumulateReductions(SpecThread &T);
  void recomputeExitCap();
  /// Cores running iterations before / after \p Iter.
  std::uint32_t coresBefore(std::uint64_t Iter) const;
  std::uint32_t coresAfter(std::uint64_t Iter) const;

  /// Held by value (reentrancy audit): sweep jobs build engines from
  /// per-job configs in temporaries; a reference member would dangle.
  sim::HydraConfig Cfg;
  /// The caller's plain module: the only module a bound machine may run,
  /// and the source of each loop's clone.
  const ir::Module &Plain;
  /// The bound machine's image. An install moves no existing flat PC, so
  /// PCs cached in LoopAtPc and in already-prepared loops stay valid.
  const exec::CodeImage *Image = nullptr;
  std::vector<PreparedLoop> Loops;
  /// Per flat PC of the bound machine's image at binding: 1 + the index of
  /// the selected loop whose header block starts there, or 0. This is the
  /// machine's stop map, and onBlockStart dispatches on one load.
  std::vector<std::uint32_t> LoopAtPc;
  std::map<std::uint32_t, TlsLoopRunStats> Stats;

  // Live state of the current runLoop invocation.
  interp::Heap *CurHeap = nullptr;
  const PreparedLoop *Cur = nullptr;
  TlsLoopRunStats *CurStats = nullptr;
  std::vector<SpecThread> Threads; // one per core
  /// Per core: the iteration its thread runs, or NoIter when the core is
  /// idle. Kept apart from Threads so the per-access core masks scan a
  /// small contiguous array, not one SpecThread per core.
  std::vector<std::uint64_t> IterOf;
  /// Speculative tag bits of every core: per word (read bits under word
  /// grain, written bits and buffered values) and per line (read and
  /// written bits). Empty between invocations.
  SpecTagTable WordTags;
  SpecTagTable LineTags;
  /// Per core: the cycle of its Running thread's next shared event, or
  /// ~0 when the core has none (not Running, or the event is executing).
  std::vector<std::uint64_t> NextEvent;
  std::uint64_t Cycle = 0;
  /// Cores below this index have had their turn at Cycle's shared events
  /// (0 during the transition phase).
  std::uint32_t CoresDoneAtCycle = 0;
  std::uint64_t HeadIter = 0;
  std::uint64_t NextIter = 0;
  std::optional<std::uint64_t> ExitCap;
  std::vector<std::uint64_t> EntryRegs;
  std::vector<std::uint64_t> ReductionAcc;
  /// Splits a word address into its line without a divide.
  FastDivMod LineSplit;

  // Observability state. CoreBusy accumulates resolved lifetime lengths per
  // core within the current invocation; what remains of the invocation's
  // span is idle time by definition.
  metrics::Timeline *TL = nullptr;
  metrics::TrackId EngineTrack = 0;
  std::vector<metrics::TrackId> CoreTracks;
  std::vector<std::uint64_t> CoreBusy;
  /// Machine clock at runLoop entry; global ts = ClockBase + local Cycle.
  std::uint64_t ClockBase = 0;
  metrics::Histogram ThreadActiveCycles;
  metrics::Histogram InvocationCycles;
};

} // namespace hydra
} // namespace jrpm

#endif // JRPM_HYDRA_TLSENGINE_H
