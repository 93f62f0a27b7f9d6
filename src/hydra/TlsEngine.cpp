//===- hydra/TlsEngine.cpp ------------------------------------------------==//

#include "hydra/TlsEngine.h"

#include "hydra/TlsCodegen.h"
#include "support/Bits.h"
#include "support/Compiler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

using namespace jrpm;
using namespace jrpm::hydra;

using RunStop = interp::ExecContext::RunStop;

namespace {

/// Longest private run-ahead, in cycles, before a core yields to the global
/// event order. It bounds the host work a misspeculated thread spinning in
/// registers burns before its squash arrives; simulated results do not
/// depend on it.
constexpr std::uint64_t RunAheadBound = 1024;

/// Sentinel "no cycle" for the event loop.
constexpr std::uint64_t Never = ~std::uint64_t(0);

std::uint32_t coreBit(std::uint32_t Core) { return 1u << Core; }

} // namespace

TlsEngine::TlsEngine(const ir::Module &M, const sim::HydraConfig &Cfg,
                     std::vector<jit::TlsLoopPlan> Plans)
    : Cfg(Cfg), Plain(M), WordTags(Cfg.NumCores),
      LineSplit(Cfg.WordsPerLine) {
  if (Cfg.NumCores == 0 || Cfg.NumCores > SpecTagTable::MaxCores)
    throw std::invalid_argument("TlsEngine models 1 to 32 cores");
  assert(sim::hasValidCacheGeometry(Cfg) && "invalid cache geometry");
  Loops.resize(Plans.size());
  for (std::size_t L = 0; L < Plans.size(); ++L)
    Loops[L].Plan = std::move(Plans[L]);
  Threads.resize(Cfg.NumCores);
  IterOf.assign(Cfg.NumCores, NoIter);
}

const std::vector<std::uint32_t> &TlsEngine::stopMap(interp::Machine &M) {
  if (&M.module() != &Plain)
    throw std::invalid_argument("the machine runs another module");
  Image = &M.image();
  LoopAtPc.assign(Image->numInsts(), 0);
  for (std::uint32_t L = 0; L < Loops.size(); ++L) {
    const jit::TlsLoopPlan &Plan = Loops[L].Plan;
    LoopAtPc[Image->blockStart(Plan.Func, Plan.Header)] = L + 1;
    Loops[L].Ready = false;
  }
  for (SpecThread &T : Threads) {
    T.Ctx = std::make_unique<interp::ExecContext>(*Image, Cfg);
    T.L1 = std::make_unique<sim::L1CacheModel>(Cfg);
  }
  return LoopAtPc;
}

TlsLoopRunStats TlsEngine::totals() const {
  TlsLoopRunStats T;
  for (const auto &[LoopId, S] : Stats) {
    T.Invocations += S.Invocations;
    T.CommittedThreads += S.CommittedThreads;
    T.Violations += S.Violations;
    T.Restarts += S.Restarts;
    T.OverflowStalls += S.OverflowStalls;
    T.SyncStalls += S.SyncStalls;
    T.SpecCycles += S.SpecCycles;
    T.ThreadsStarted += S.ThreadsStarted;
    T.ThreadsExited += S.ThreadsExited;
    T.ThreadsDiscarded += S.ThreadsDiscarded;
    T.UsefulCycles += S.UsefulCycles;
    T.ForkCommitCycles += S.ForkCommitCycles;
    T.ViolationDiscardCycles += S.ViolationDiscardCycles;
    T.BufferStallCycles += S.BufferStallCycles;
    T.SyncStallCycles += S.SyncStallCycles;
    T.IdleCycles += S.IdleCycles;
  }
  return T;
}

void TlsEngine::exportMetrics(metrics::Registry &R) const {
  TlsLoopRunStats T = totals();
  R.counter("spec.invocations").inc(T.Invocations);
  R.counter("spec.threads_started").inc(T.ThreadsStarted);
  // "Committed" work is work the sequential context kept: iteration commits
  // plus the adopted loop-exit threads. With threads_violated == Restarts,
  // started == committed + violated + discarded holds exactly.
  R.counter("spec.threads_committed").inc(T.CommittedThreads + T.ThreadsExited);
  R.counter("spec.threads_violated").inc(T.Restarts);
  R.counter("spec.threads_discarded").inc(T.ThreadsDiscarded);
  R.counter("spec.violations").inc(T.Violations);
  R.counter("spec.overflow_stalls").inc(T.OverflowStalls);
  R.counter("spec.sync_stalls").inc(T.SyncStalls);
  R.counter("spec.cycles.useful").inc(T.UsefulCycles);
  R.counter("spec.cycles.fork_commit").inc(T.ForkCommitCycles);
  R.counter("spec.cycles.violation_discard").inc(T.ViolationDiscardCycles);
  R.counter("spec.cycles.buffer_stall").inc(T.BufferStallCycles);
  R.counter("spec.cycles.sync_stall").inc(T.SyncStallCycles);
  R.counter("spec.cycles.idle").inc(T.IdleCycles);
  R.counter("spec.cycles.total")
      .inc(std::uint64_t(Cfg.NumCores) * T.SpecCycles);
  R.histogram("spec.thread_active_cycles").merge(ThreadActiveCycles);
  R.histogram("spec.invocation_cycles").merge(InvocationCycles);
}

void TlsEngine::openStall(std::uint32_t Core, SpecThread::Stall Kind) {
  SpecThread &T = Threads[Core];
  if (T.StallKind != SpecThread::Stall::None)
    return;
  T.StallKind = Kind;
  T.StallStart = Cycle;
  if (TL && Core < CoreTracks.size())
    TL->begin(CoreTracks[Core],
              Kind == SpecThread::Stall::Buffer ? "stall.buffer"
                                                : "stall.sync",
              ClockBase + Cycle);
}

void TlsEngine::closeStall(std::uint32_t Core) {
  SpecThread &T = Threads[Core];
  if (T.StallKind == SpecThread::Stall::None)
    return;
  std::uint64_t Len = Cycle - T.StallStart;
  if (T.StallKind == SpecThread::Stall::Buffer)
    T.BufStallAcc += Len;
  else
    T.SyncStallAcc += Len;
  T.StallKind = SpecThread::Stall::None;
  if (TL && Core < CoreTracks.size())
    TL->end(CoreTracks[Core], ClockBase + Cycle);
}

void TlsEngine::resolveLifetime(std::uint32_t Core, Outcome O) {
  SpecThread &T = Threads[Core];
  closeStall(Core);
  // Decompose the lifetime into fork/commit overhead, stalls, and active
  // time. Each component is clamped to what remains, so the four parts
  // always sum to exactly Cycle - StartAt whatever interleaving produced
  // them — the bucket-sum identity depends on this, not on the stall
  // intervals being disjoint from the spawn penalty.
  std::uint64_t Lifetime = Cycle - T.StartAt;
  std::uint64_t Fc = std::min(T.SpawnOverheadUntil - T.StartAt, Lifetime);
  std::uint64_t Buf = std::min(T.BufStallAcc, Lifetime - Fc);
  std::uint64_t Sync = std::min(T.SyncStallAcc, Lifetime - Fc - Buf);
  std::uint64_t Active = Lifetime - Fc - Buf - Sync;
  CurStats->ForkCommitCycles += Fc;
  CurStats->BufferStallCycles += Buf;
  CurStats->SyncStallCycles += Sync;
  if (O == Outcome::Commit || O == Outcome::Exit) {
    CurStats->UsefulCycles += Active;
    ThreadActiveCycles.record(Active);
  } else {
    CurStats->ViolationDiscardCycles += Active;
  }
  if (O == Outcome::Exit)
    ++CurStats->ThreadsExited;
  else if (O == Outcome::Discard)
    ++CurStats->ThreadsDiscarded;
  CoreBusy[Core] += Lifetime;
  T.BufStallAcc = 0;
  T.SyncStallAcc = 0;
  if (TL && Core < CoreTracks.size())
    TL->end(CoreTracks[Core], ClockBase + Cycle);
}

void TlsEngine::prepareLoop(PreparedLoop &PL, interp::Machine &M) {
  if (PL.Ready)
    return;
  PL.SpillAddrs.clear();
  for (std::size_t K = 0; K < PL.Plan.CarriedLocals.size(); ++K)
    PL.SpillAddrs.push_back(M.heap().allocWords(1));
  std::sort(PL.SpillAddrs.begin(), PL.SpillAddrs.end());
  ir::Function Clone =
      globalizeLoopBody(Plain.Functions[PL.Plan.Func], PL.Plan, PL.SpillAddrs);
  // Number the clone's tracer PCs after the image's last instruction, as
  // Module::finalize() would if the clone were pushed onto the module.
  std::int32_t NextPc = static_cast<std::int32_t>(Image->numInsts());
  for (ir::BasicBlock &BB : Clone.Blocks)
    for (ir::Instruction &I : BB.Instructions)
      I.Pc = NextPc++;
  // Installing leaves every existing flat PC where it was, so LoopAtPc and
  // previously prepared loops stay valid. The machine's context and the
  // spec contexts re-read the instruction array on every run and
  // run-ahead, so its reallocation is invisible.
  std::uint32_t Func = M.install(Clone);
  PL.HeaderPcTls = Image->blockStart(Func, PL.Plan.Header);
  // The clone is the last function, laid out from its entry to the end.
  const exec::FlatPc Lo = Image->entry(Func);
  PL.Boundaries.Base = Lo;
  PL.Boundaries.Flags.assign(Image->numInsts() - Lo, 0);
  for (std::uint32_t B = 0; B < Clone.numBlocks(); ++B)
    if (B == PL.Plan.Header || !PL.Plan.containsBlock(B))
      PL.Boundaries.Flags[Image->blockStart(Func, B) - Lo] = 1;
  PL.Ready = true;
}

bool TlsEngine::onBlockStart(interp::ExecContext &Ctx, interp::Machine &M) {
  assert(&M.image() == Image && "onBlockStart from a machine not bound");
  std::uint32_t Loop = LoopAtPc[Ctx.pc()];
  if (!Loop)
    return false;
  PreparedLoop &PL = Loops[Loop - 1];
  prepareLoop(PL, M);
  runLoop(PL, Ctx, M);
  return true;
}

std::uint32_t TlsEngine::coresBefore(std::uint64_t Iter) const {
  std::uint32_t Mask = 0;
  for (std::uint32_t C = 0; C < IterOf.size(); ++C)
    if (IterOf[C] < Iter) // an idle core's NoIter never is
      Mask |= coreBit(C);
  return Mask;
}

std::uint32_t TlsEngine::coresAfter(std::uint64_t Iter) const {
  std::uint32_t Mask = 0;
  for (std::uint32_t C = 0; C < IterOf.size(); ++C)
    if (IterOf[C] > Iter && IterOf[C] != NoIter)
      Mask |= coreBit(C);
  return Mask;
}

void TlsEngine::fillSpawnRegs(std::vector<std::uint64_t> &Regs,
                              std::uint64_t Iter) const {
  Regs = EntryRegs; // copy-assign reuses the buffer's capacity
  for (const auto &[Reg, Step] : Cur->Plan.Inductors)
    Regs[Reg] = EntryRegs[Reg] +
                Iter * static_cast<std::uint64_t>(Step);
  for (const auto &[Reg, Kind] : Cur->Plan.Reductions) {
    (void)Kind; // both integer 0 and +0.0 are the zero bit pattern
    Regs[Reg] = 0;
  }
}

void TlsEngine::spawnThread(std::uint32_t Core, std::uint64_t Iter,
                            std::uint64_t Penalty) {
  SpecThread &T = Threads[Core];
  dropTags(Core, /*Stores=*/true);
  T.State = SpecThread::St::Running;
  IterOf[Core] = Iter;
  ++CurStats->ThreadsStarted;
  T.StartAt = Cycle;
  T.ReadyAt = Cycle + Penalty;
  T.SpawnOverheadUntil = T.ReadyAt;
  T.StallKind = SpecThread::Stall::None;
  T.BufStallAcc = 0;
  T.SyncStallAcc = 0;
  if (TL && Core < CoreTracks.size())
    TL->begin(CoreTracks[Core], "thread", ClockBase + Cycle);
  fillSpawnRegs(T.Ctx->resetAtPc(Cur->HeaderPcTls), Iter);
  // A core whose turn at this cycle's shared events has already passed
  // issues its first instruction next cycle at the earliest.
  std::uint64_t From = T.ReadyAt;
  if (From == Cycle && Core < CoresDoneAtCycle)
    ++From;
  runAhead(Core, From);
}

void TlsEngine::squashThread(std::uint32_t Core) {
  ++CurStats->Restarts;
  if (TL && Core < CoreTracks.size())
    TL->instant(CoreTracks[Core], "violation", ClockBase + Cycle);
  resolveLifetime(Core, Outcome::Squash);
  spawnThread(Core, IterOf[Core],
              Cfg.ViolationRestartCycles + Cur->Plan.NumInvariants);
}

void TlsEngine::resumeThread(std::uint32_t Core) {
  SpecThread &T = Threads[Core];
  closeStall(Core);
  T.State = SpecThread::St::Running;
  T.ReadyAt = std::max(T.ReadyAt, Cycle);
  runAhead(Core, T.ReadyAt);
}

void TlsEngine::flushStores(std::uint32_t Core) {
  SpecThread &T = Threads[Core];
  for (std::uint32_t Addr : T.StoredWords) {
    SpecTagTable::Entry &E = *WordTags.find(Addr);
    CurHeap->store(Addr, WordTags.value(E, Core));
    WordTags.clear(E, 0, coreBit(Core));
  }
  for (std::uint32_t Line : T.StoredLines)
    LineTags.clear(Line, 0, coreBit(Core));
  T.StoredWords.clear();
  T.StoredLines.clear();
}

void TlsEngine::dropTags(std::uint32_t Core, bool Stores) {
  SpecThread &T = Threads[Core];
  std::uint32_t Me = coreBit(Core);
  for (std::uint32_t Addr : T.ReadWords)
    WordTags.clear(Addr, Me, 0);
  for (std::uint32_t Line : T.ReadLines)
    LineTags.clear(Line, Me, 0);
  T.ReadWords.clear();
  T.ReadLines.clear();
  T.LastReadLine = NoLine;
  if (!Stores)
    return;
  for (std::uint32_t Addr : T.StoredWords)
    WordTags.clear(Addr, 0, Me);
  for (std::uint32_t Line : T.StoredLines)
    LineTags.clear(Line, 0, Me);
  T.StoredWords.clear();
  T.StoredLines.clear();
}

void TlsEngine::accumulateReductions(SpecThread &T) {
  const std::vector<std::uint64_t> &Regs = T.Ctx->topRegs();
  for (std::size_t K = 0; K < Cur->Plan.Reductions.size(); ++K) {
    auto [Reg, Kind] = Cur->Plan.Reductions[K];
    if (Kind == analysis::ReductionKind::SumFloat) {
      double Sum = bits::asF(ReductionAcc[K]) + bits::asF(Regs[Reg]);
      ReductionAcc[K] = bits::asU(Sum);
    } else {
      ReductionAcc[K] += Regs[Reg];
    }
  }
}

void TlsEngine::resumeSyncWaiters() {
  if (!Cfg.SyncCarriedLocals)
    return; // nothing ever waits
  for (std::uint32_t C = 0; C < Threads.size(); ++C) {
    SpecThread &T = Threads[C];
    if (IterOf[C] == NoIter || T.State != SpecThread::St::WaitSync)
      continue;
    bool Ready = true;
    for (std::uint32_t P = 0; P < Threads.size(); ++P) {
      const SpecThread &Pred = Threads[P];
      if (IterOf[P] == NoIter || IterOf[P] + 1 != IterOf[C])
        continue;
      const SpecTagTable::Entry *Word = WordTags.find(T.SyncAddr);
      Ready = Pred.State == SpecThread::St::IterDone ||
              Pred.State == SpecThread::St::Exited ||
              (Word && (Word->Written & coreBit(P)));
      break;
    }
    if (Ready)
      resumeThread(C);
  }
}

void TlsEngine::recomputeExitCap() {
  ExitCap.reset();
  for (std::uint32_t C = 0; C < Threads.size(); ++C)
    if (IterOf[C] != NoIter && Threads[C].State == SpecThread::St::Exited)
      ExitCap = ExitCap ? std::min(*ExitCap, IterOf[C]) : IterOf[C];
}

void TlsEngine::commitThread(std::uint32_t Core) {
  SpecThread &T = Threads[Core];
  flushStores(Core);
  accumulateReductions(T);
  dropTags(Core, /*Stores=*/false);
  ++CurStats->CommittedThreads;
  resolveLifetime(Core, Outcome::Commit);
  ++HeadIter;
  // The core picks up the next iteration after the end-of-iteration
  // handling overhead.
  if (!ExitCap || NextIter < *ExitCap) {
    spawnThread(Core, NextIter++, Cfg.EndOfIterationCycles);
  } else {
    IterOf[Core] = NoIter;
    T.State = SpecThread::St::Idle;
  }
}

bool TlsEngine::specLoad(std::uint32_t Core, std::uint32_t Addr,
                         std::uint64_t &Value, std::uint32_t &Cost) {
  SpecThread &T = Threads[Core];
  std::uint32_t Me = coreBit(Core);
  std::uint64_t Iter = IterOf[Core];
  SpecTagTable::Entry *Word = WordTags.find(Addr);
  std::uint32_t Writers = Word ? Word->Written : 0;
  // Own speculative store buffer first.
  if (Writers & Me) {
    Value = WordTags.value(*Word, Core);
    return true;
  }

  // Synchronized carried locals (Section 3.2): spin until the predecessor
  // thread has produced the value instead of speculating through it.
  if (Cfg.SyncCarriedLocals && Iter != HeadIter && Cur->isSpillAddr(Addr)) {
    for (std::uint32_t P = 0; P < Threads.size(); ++P) {
      if (IterOf[P] == NoIter || IterOf[P] + 1 != Iter)
        continue;
      const SpecThread &Pred = Threads[P];
      bool Produced = Pred.State == SpecThread::St::IterDone ||
                      Pred.State == SpecThread::St::Exited ||
                      (Writers & coreBit(P));
      if (!Produced) {
        T.State = SpecThread::St::WaitSync;
        T.SyncAddr = Addr;
        ++CurStats->SyncStalls;
        openStall(Core, SpecThread::Stall::Sync);
        return false; // the load re-issues after the producer stores
      }
      break;
    }
  }

  // Forward from the nearest earlier uncommitted thread holding the word.
  std::uint32_t Sources = Writers ? Writers & coresBefore(Iter) : 0;
  if (Sources) {
    std::uint32_t Nearest = std::countr_zero(Sources);
    for (; Sources; Sources &= Sources - 1) {
      std::uint32_t C = std::countr_zero(Sources);
      if (IterOf[C] > IterOf[Nearest])
        Nearest = C;
    }
    Cost += Cfg.StoreLoadCommCycles;
    Value = WordTags.value(*Word, Nearest);
  } else {
    if (!T.L1->access(Addr))
      Cost += Cfg.L2HitExtraCycles;
    // A speculative thread that used a stale value can compute an address
    // outside the heap. That stale value came from a word an earlier
    // thread will still store, so the thread is certain to be squashed:
    // it reads 0 instead. The head keeps the sequential semantics.
    Value = Iter == HeadIter || CurHeap->contains(Addr) ? CurHeap->load(Addr)
                                                        : 0;
  }

  // Set the read bits: the word's under word-grain violation detection,
  // the line's always (the SpecLoadLines budget, and the violation key
  // under line grain).
  if (Cfg.ViolationGrain == sim::ViolationGranularity::Word) {
    SpecTagTable::Entry &E = Word ? *Word : WordTags.insertAbsent(Addr);
    if (!(E.Read & Me)) {
      E.Read |= Me;
      T.ReadWords.push_back(Addr);
    }
  }
  std::uint32_t Line = LineSplit.div(Addr);
  if (Line != T.LastReadLine) {
    SpecTagTable::Entry &L = LineTags.insert(Line);
    if (!(L.Read & Me)) {
      L.Read |= Me;
      T.ReadLines.push_back(Line);
    }
    T.LastReadLine = Line;
  }
  if (T.ReadLines.size() > Cfg.SpecLoadLines && Iter != HeadIter) {
    T.State = SpecThread::St::WaitHead;
    ++CurStats->OverflowStalls;
    openStall(Core, SpecThread::Stall::Buffer);
  }
  return true;
}

bool TlsEngine::specStore(std::uint32_t Core, std::uint32_t Addr,
                          std::uint64_t Value) {
  SpecThread &T = Threads[Core];
  std::uint32_t Me = coreBit(Core);
  std::uint64_t Iter = IterOf[Core];
  // A store to a spill address may release a sync waiter spinning on it.
  bool Changed = Cfg.SyncCarriedLocals && Cur->isSpillAddr(Addr);
  SpecTagTable::Entry &Word = WordTags.insert(Addr);
  if (!(Word.Written & Me))
    T.StoredWords.push_back(Addr);
  WordTags.write(Word, Core) = Value;
  std::uint32_t Readers = Word.Read;
  std::uint32_t Line = LineSplit.div(Addr);
  SpecTagTable::Entry &L = LineTags.insert(Line);
  if (!(L.Written & Me)) {
    L.Written |= Me;
    T.StoredLines.push_back(Line);
  }
  if (Cfg.ViolationGrain == sim::ViolationGranularity::Line)
    Readers = L.Read;
  if (T.StoredLines.size() > Cfg.SpecStoreLines) {
    if (Iter == HeadIter) {
      // The head thread can always drain its buffer safely.
      flushStores(Core);
    } else {
      T.State = SpecThread::St::WaitHead;
      ++CurStats->OverflowStalls;
      openStall(Core, SpecThread::Stall::Buffer);
      Changed = true;
    }
  }

  // RAW violation detection: any later thread that already consumed this
  // word (line) restarts, together with everything more speculative.
  Readers &= ~Me;
  if (Readers)
    Readers &= coresAfter(Iter);
  if (!Readers)
    return Changed;
  std::uint64_t MinViolated = Never;
  for (; Readers; Readers &= Readers - 1)
    MinViolated = std::min(MinViolated, IterOf[std::countr_zero(Readers)]);
  ++CurStats->Violations;
  bool HadExit = ExitCap.has_value();
  for (std::uint32_t C = 0; C < Threads.size(); ++C)
    if (IterOf[C] != NoIter && IterOf[C] >= MinViolated)
      squashThread(C);
  if (HadExit)
    recomputeExitCap();
  return true;
}

void TlsEngine::runAhead(std::uint32_t Core, std::uint64_t From) {
  SpecThread &T = Threads[Core];
  NextEvent[Core] =
      From + T.Ctx->runAhead(RunAheadBound, Cur->Boundaries, T.Pending);
}

bool TlsEngine::runEvent(std::uint32_t Core) {
  SpecThread &T = Threads[Core];
  NextEvent[Core] = Never; // re-armed by runAhead while the thread runs
  switch (T.Pending) {
  case RunStop::Horizon:
    runAhead(Core, Cycle);
    return false;
  case RunStop::Boundary: {
    // The depth-1 branch issued this cycle and landed on the header (the
    // iteration is done) or outside the loop (a speculative exit).
    exec::FlatPc Pc = T.Ctx->pc();
    if (Pc == Cur->HeaderPcTls) {
      T.State = SpecThread::St::IterDone;
    } else {
      T.State = SpecThread::St::Exited;
      T.ExitBlock = Image->blockOf(Pc);
      recomputeExitCap();
    }
    return true;
  }
  case RunStop::Shared:
    break;
  }
  const exec::DecodedInst &I = Image->inst(T.Ctx->pc());
  switch (I.Op) {
  case ir::Opcode::Load:
  case ir::Opcode::Store:
    break;
  case ir::Opcode::Div:
  case ir::Opcode::Rem:
    // The run-ahead stopped here because the divisor is zero. The head
    // traps for real. A speculative thread may have computed the divisor
    // from stale data, so the instruction waits unexecuted until the
    // thread is the head or is squashed. No stall is charged.
    if (IterOf[Core] == HeadIter)
      T.Ctx->trap();
    T.State = SpecThread::St::WaitHead;
    T.ReadyAt = Cycle;
    return true;
  case ir::Opcode::Alloc:
    JRPM_FATAL("heap allocation inside a speculative thread (the candidate "
               "screen should have rejected this loop)");
  default: // a Ret from the outermost frame
    JRPM_FATAL("speculative thread returned out of the STL's function");
  }
  std::uint64_t *Regs = T.Ctx->topRegs().data();
  std::uint32_t Addr = exec::effectiveAddress(I, Regs);
  std::uint32_t Cost = Cfg.Costs.Basic;
  // A load that leaves its thread running changes nothing the transition
  // phase reads; a store does only when specStore says so.
  bool Changed = false;
  if (I.Op == ir::Opcode::Load) {
    // A synchronized load that must wait stays parked, unexecuted, and
    // re-issues when resumeSyncWaiters() releases the thread; it still
    // occupies the core for this cycle.
    if (specLoad(Core, Addr, Regs[I.Dst], Cost))
      T.Ctx->retire();
  } else {
    Changed = specStore(Core, Addr, Regs[I.Dst]);
    T.Ctx->retire();
  }
  T.ReadyAt = Cycle + std::max<std::uint32_t>(Cost, 1);
  // specLoad/specStore may have stalled the thread.
  bool Running = T.State == SpecThread::St::Running;
  if (Running)
    runAhead(Core, T.ReadyAt);
  return Changed || !Running;
}

TlsEngine::SpecThread *TlsEngine::runTransitions() {
  CoresDoneAtCycle = 0;
  // Head-state transitions first: resume, commit, or finish.
  for (bool Committed = true; Committed;) {
    Committed = false;
    for (std::uint32_t C = 0; C < Threads.size(); ++C) {
      if (IterOf[C] != HeadIter)
        continue;
      SpecThread &T = Threads[C];
      if (T.State == SpecThread::St::WaitHead) {
        resumeThread(C);
      } else if (T.State == SpecThread::St::IterDone) {
        commitThread(C);
        Committed = true;
      } else if (T.State == SpecThread::St::Exited) {
        return &T;
      }
      break; // exactly one head thread exists
    }
  }

  resumeSyncWaiters();

  // Refill idle cores when iterations are available (iterations past a
  // speculatively-exited thread would only be squashed).
  for (std::uint32_t C = 0; C < Threads.size(); ++C) {
    if (IterOf[C] != NoIter)
      continue;
    if (ExitCap && NextIter >= *ExitCap)
      continue;
    spawnThread(C, NextIter++, 0);
  }
  return nullptr;
}

void TlsEngine::runLoop(PreparedLoop &PL, interp::ExecContext &Ctx,
                        interp::Machine &M) {
  Cur = &PL;
  CurHeap = &M.heap();
  CurStats = &Stats[PL.Plan.LoopId];
  ++CurStats->Invocations;
  ClockBase = M.clock();
  CoreBusy.assign(Cfg.NumCores, 0);
  if (TL)
    TL->begin(EngineTrack, "loop#" + std::to_string(PL.Plan.LoopId),
              ClockBase);

  EntryRegs = Ctx.topRegs();
  assert(EntryRegs.size() >= Image->func(PL.Plan.Func).NumRegs &&
         "entry registers too small");

  // Loop startup (Table 2): initialize loop locals in the spill area and
  // snapshot reduction accumulators.
  for (std::size_t K = 0; K < PL.Plan.CarriedLocals.size(); ++K)
    CurHeap->store(PL.SpillAddrs[K], EntryRegs[PL.Plan.CarriedLocals[K]]);
  ReductionAcc.clear();
  for (const auto &[Reg, Kind] : PL.Plan.Reductions) {
    (void)Kind;
    ReductionAcc.push_back(EntryRegs[Reg]);
  }

  Cycle = Cfg.LoopStartupCycles;
  CoresDoneAtCycle = 0;
  NextEvent.assign(Cfg.NumCores, Never);
  HeadIter = 0;
  NextIter = 0;
  ExitCap.reset();
  for (std::uint32_t C = 0; C < Cfg.NumCores; ++C)
    spawnThread(C, NextIter++, 0);

  // Event loop. Shared events run in (cycle, core) order; the transition
  // phase runs one cycle after any event that changed state, before that
  // cycle's events. Cycles in between only advance private run-aheads.
  SpecThread *ExitThread = nullptr;
  std::uint64_t TransitionAt = Never;
  // Guards against engine bugs; generous for the largest loops.
  constexpr std::uint64_t MaxLoopCycles = 20ull * 1000 * 1000 * 1000;
  while (true) {
    std::uint32_t Next = 0; // earliest event, lowest core on ties
    for (std::uint32_t C = 1; C < Cfg.NumCores; ++C)
      if (NextEvent[C] < NextEvent[Next])
        Next = C;
    std::uint64_t EventAt = NextEvent[Next];
    if (TransitionAt != Never && TransitionAt <= EventAt) {
      Cycle = TransitionAt;
      TransitionAt = Never;
      if ((ExitThread = runTransitions()))
        break;
      continue;
    }
    if (EventAt == Never)
      JRPM_FATAL("TLS loop has no runnable thread (engine invariant)");
    Cycle = EventAt;
    if (Cycle > MaxLoopCycles)
      JRPM_FATAL("TLS loop exceeded the cycle watchdog (engine livelock?)");
    CoresDoneAtCycle = Next + 1;
    if (runEvent(Next))
      TransitionAt = Cycle + 1;
  }

  // Close every live lifetime at the loop's end cycle, then charge the
  // invocation-level overheads. Per core, resolved lifetimes tile
  // [LoopStartupCycles, Cycle] without overlap, so the remainder is idle
  // time and the six buckets sum to exactly NumCores * final SpecCycles.
  std::uint32_t ExitCore =
      static_cast<std::uint32_t>(ExitThread - Threads.data());
  for (std::uint32_t C = 0; C < Threads.size(); ++C) {
    if (IterOf[C] == NoIter)
      continue;
    resolveLifetime(C, C == ExitCore ? Outcome::Exit : Outcome::Discard);
  }
  CurStats->ForkCommitCycles +=
      std::uint64_t(Cfg.NumCores) *
      (Cfg.LoopStartupCycles + Cfg.LoopShutdownCycles);
  for (std::uint32_t C = 0; C < Cfg.NumCores; ++C)
    CurStats->IdleCycles += (Cycle - Cfg.LoopStartupCycles) - CoreBusy[C];

  // Loop shutdown: adopt the exiting thread's state into the sequential
  // context, complete reductions, and reload carried locals from memory.
  SpecThread &T = *ExitThread;
  flushStores(ExitCore);
  accumulateReductions(T);
  std::vector<std::uint64_t> FinalRegs = T.Ctx->topRegs();
  for (std::size_t K = 0; K < PL.Plan.CarriedLocals.size(); ++K)
    FinalRegs[PL.Plan.CarriedLocals[K]] = CurHeap->load(PL.SpillAddrs[K]);
  for (std::size_t K = 0; K < PL.Plan.Reductions.size(); ++K)
    FinalRegs[PL.Plan.Reductions[K].first] = ReductionAcc[K];

  std::uint32_t ExitBlock = T.ExitBlock;
  for (std::uint32_t C = 0; C < Threads.size(); ++C) {
    IterOf[C] = NoIter;
    Threads[C].State = SpecThread::St::Idle;
    dropTags(C, /*Stores=*/true);
  }

  Cycle += Cfg.LoopShutdownCycles;
  CurStats->SpecCycles += Cycle;
  InvocationCycles.record(Cycle);
  if (TL)
    TL->end(EngineTrack, ClockBase + Cycle);
  M.addCycles(Cycle);
  Ctx.repositionTop(ExitBlock, std::move(FinalRegs));
  Cur = nullptr;
  CurHeap = nullptr;
  CurStats = nullptr;
}
