//===- interp/ExecContext.h - IR instruction stepping ----------------------==//
//
// A call stack plus the dispatch loop that executes instructions of a
// pre-decoded exec::CodeImage, optionally emitting profiling events to a
// TraceSink. The sequential machine and every speculative thread of the
// Hydra TLS engine are instances of this class.
//
// Frames hold a single flat program counter into the image instead of the
// historical (function, block, instruction) triple; block and function
// identity are recovered from the image's side tables only at control-flow
// boundaries. Two ways of executing share one dispatch loop:
//   - run() executes against a DirectMemoryPort until the program
//     finishes, the cycle budget runs out, or control reaches a block
//     start flagged in the caller's stop map (the sequential machine's
//     dispatcher checks);
//   - runAhead() runs a speculative core through instructions that touch
//     only its own frames, up to the next shared-state instruction, loop
//     boundary or cycle budget, advancing the core's private clock. The
//     TLS engine executes the Load or Store it parks on itself and then
//     calls retire().
// Every block ends in a terminator, so control enters a block start only
// through a Br, a CondBr or a Call. The budget, stop-map and Horizon tests
// run in those three handlers alone; every other instruction pays just
// its dispatch and its cost.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_INTERP_EXECCONTEXT_H
#define JRPM_INTERP_EXECCONTEXT_H

#include "exec/CodeImage.h"
#include "interp/MemoryPort.h"
#include "interp/TraceSink.h"
#include "ir/IR.h"
#include "sim/Config.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace jrpm {
namespace interp {

/// One function activation.
struct Frame {
  exec::FlatPc Pc = 0;
  std::uint64_t Activation = 0;
  std::uint16_t RetDst = ir::NoReg;
  std::vector<std::uint64_t> Regs;
  std::vector<std::uint64_t> StagedArgs;
};

class ExecContext {
public:
  /// Runs on \p Image, which its owner keeps alive: the interp::Machine
  /// whose context and bound TLS cores share it (and append clones to it).
  ExecContext(const exec::CodeImage &Image, const sim::HydraConfig &Cfg)
      : Image(Image), Cfg(Cfg) {}

  const exec::CodeImage &image() const { return Image; }

  /// Begins execution at the entry of function \p Func.
  void start(std::uint32_t Func, const std::vector<std::uint64_t> &Args);

  /// Positions the context, as its only frame, at block start \p Pc and
  /// returns that frame's register file for the caller to fill (the TLS
  /// engine spawning an iteration thread). The file still holds the
  /// previous activation's values, or is empty on a fresh context; the
  /// caller must size it to at least the function's register count, and
  /// may make it larger. Reusing the buffer keeps the spawn-per-commit path
  /// free of allocations.
  std::vector<std::uint64_t> &resetAtPc(exec::FlatPc Pc);

  bool finished() const { return Frames.empty(); }
  std::uint64_t returnValue() const { return RetVal; }
  std::uint64_t instructionsExecuted() const { return Executed; }

  std::size_t callDepth() const { return Frames.size(); }
  exec::FlatPc pc() const { return Frames.back().Pc; }
  std::uint32_t currentBlock() const { return Image.blockOf(pc()); }
  bool atBlockStart() const {
    return !Frames.empty() && Image.isBlockStart(Frames.back().Pc);
  }

  /// Register file of the innermost (current) frame.
  std::vector<std::uint64_t> &topRegs() { return Frames.back().Regs; }
  const std::vector<std::uint64_t> &topRegs() const {
    return Frames.back().Regs;
  }

  /// Repositions the innermost frame at the start of \p Block of its
  /// current function with register file \p Regs (used to resume
  /// sequential execution at a loop exit after speculative execution of
  /// the loop).
  void repositionTop(std::uint32_t Block, std::vector<std::uint64_t> Regs) {
    Frame &F = Frames.back();
    F.Pc = Image.blockStart(Image.funcOf(F.Pc), Block);
    F.Regs = std::move(Regs);
  }

  /// Executes until the program finishes, the running clock (starting at
  /// \p Now, advanced per instruction) exceeds \p MaxCycles, or control
  /// reaches a block start whose entry in \p StopAt (indexed by flat PC,
  /// covering every PC the run can reach; null = none) is nonzero. Both
  /// tests run when a Br, CondBr or Call lands on a block start, so a run
  /// resumed where it stopped makes progress, and the context is at a
  /// block start (or finished) on return. Returns the cycles consumed; resuming after a stop changes no
  /// total. Must not be called when finished(). Throws TrapError when the
  /// program divides by zero.
  std::uint64_t run(DirectMemoryPort &Mem, TraceSink *Sink,
                    std::uint64_t Now, std::uint64_t MaxCycles,
                    const std::uint32_t *StopAt = nullptr);

  /// Why runAhead() returned.
  enum class RunStop : std::uint8_t {
    /// Parked before a Load, Store, Alloc, a Div/Rem whose divisor is zero,
    /// or a Ret from the outermost frame; the instruction has not executed.
    /// The caller executes a Load or Store itself and then retire()s it, or
    /// raises trap() for the Div/Rem.
    Shared,
    /// A Br/CondBr in the outermost frame landed on a flagged block start;
    /// the branch has executed and the context sits on the target.
    Boundary,
    /// The cycle budget ran out; the context sits at the block start the
    /// last Br, CondBr or Call landed on.
    Horizon,
  };

  /// Block starts that end a run-ahead when a transfer in the outermost
  /// frame lands on them: one flag per flat PC of the outermost frame's
  /// function, starting at Base.
  struct BoundaryMap {
    exec::FlatPc Base = 0;
    std::vector<std::uint8_t> Flags;
    bool stopsAt(exec::FlatPc Pc) const { return Flags[Pc - Base] != 0; }
  };

  /// Runs ahead through instructions that touch only this context's own
  /// registers and frames (arithmetic, moves, calls, returns below the
  /// outermost frame, branches). Every instruction occupies the core for
  /// max(cost, 1) cycles. Stops as \p Why reports; returns the cycles from
  /// the first instruction's issue to the issue of the instruction the
  /// context stopped before (Shared, Horizon) or of the boundary branch
  /// (Boundary). The Horizon stop fires at the first Br, CondBr or Call
  /// that lands on a block start once that count has reached \p Budget
  /// (> 0), so the count may pass the budget before the run yields, and
  /// the context then sits at a block start. Any run that does not stop
  /// otherwise must branch or call, so the budget still bounds the host
  /// work; where the run yields changes no simulated result. Never touches
  /// memory; it never traps, since a zero divisor stops the run first.
  std::uint64_t runAhead(std::uint64_t Budget, const BoundaryMap &Stops,
                         RunStop &Why) {
    // Inline, so the TLS engine's one run-ahead per event is one call.
    assert(Budget > 0 && "a run-ahead executes at least one instruction");
    return stepImpl<StepMode::RunAhead>(nullptr, nullptr, 0, Budget, nullptr,
                                        &Stops, &Why);
  }

  /// Completes the Load or Store a Shared stop parked on, after the caller
  /// has executed it: advances past it and counts it as retired.
  void retire() {
    ++Frames.back().Pc;
    ++Executed;
  }

  /// Throws the TrapError of the Div or Rem the context is parked on, whose
  /// divisor is zero.
  [[noreturn]] void trap() const;

private:
  /// Execution mode of stepImpl: a sequential run or a private run-ahead.
  enum class StepMode : std::uint8_t { Run, RunAhead };

  /// Run uses \p Mem, \p Sink, \p Now, \p StopAt and \p MaxCycles as
  /// run() documents. RunAhead uses \p Stops and \p Why, with \p MaxCycles
  /// the budget on the returned cycle count.
  template <StepMode Mode>
  std::uint64_t stepImpl(DirectMemoryPort *Mem, TraceSink *Sink,
                         std::uint64_t Now, std::uint64_t MaxCycles,
                         const std::uint32_t *StopAt,
                         const BoundaryMap *Stops, RunStop *Why);

  const exec::CodeImage &Image;
  const sim::HydraConfig &Cfg;
  std::vector<Frame> Frames;
  std::uint64_t RetVal = 0;
  std::uint64_t Executed = 0;
  std::uint64_t NextActivation = 1;
};

} // namespace interp
} // namespace jrpm

#endif // JRPM_INTERP_EXECCONTEXT_H
