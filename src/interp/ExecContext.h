//===- interp/ExecContext.h - IR instruction stepping ----------------------==//
//
// A call stack plus step functions that execute instructions of a
// pre-decoded exec::CodeImage through a MemoryPort, optionally emitting
// profiling events to a TraceSink. The sequential machine and every
// speculative thread of the Hydra TLS engine are instances of this class.
//
// Frames hold a single flat program counter into the image instead of the
// historical (function, block, instruction) triple; block and function
// identity are recovered from the image's side tables only at control-flow
// boundaries. Four granularities share one dispatch loop:
//   - step() executes exactly one instruction (the TLS engine uses it for
//     the loads, stores and other shared-state instructions it orders
//     across cores);
//   - runAhead() runs a speculative core through instructions that touch
//     only its own frames, up to the next shared-state instruction, loop
//     boundary or cycle budget, advancing the core's private clock;
//   - stepBlock() runs to the next block start, which is what the
//     sequential machine wants between dispatcher checks;
//   - run() executes to completion (or a cycle budget) without ever
//     leaving the dispatch loop, for sequential runs with no dispatcher
//     attached.
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
#include <memory>
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
  /// Runs on an externally owned image (the Hydra engine shares one image
  /// across its cores and appends loop clones to it between runs).
  ExecContext(const exec::CodeImage &Image, const sim::HydraConfig &Cfg)
      : Image(Image), Cfg(Cfg) {}

  /// Convenience: compiles a private image of \p M.
  ExecContext(const ir::Module &M, const sim::HydraConfig &Cfg)
      : OwnedImage(std::make_shared<const exec::CodeImage>(M)),
        Image(*OwnedImage), Cfg(Cfg) {}

  const exec::CodeImage &image() const { return Image; }

  /// Begins execution at the entry of function \p Func.
  void start(std::uint32_t Func, const std::vector<std::uint64_t> &Args);

  /// Positions the context at the start of \p Block in \p Func with the
  /// given register file (used by the TLS engine to spawn iteration
  /// threads). The file may be larger than the function needs.
  void startAt(std::uint32_t Func, std::uint32_t Block,
               std::vector<std::uint64_t> Regs);

  /// startAt by flat PC, recycling the previous activation's register file:
  /// the old top-frame file is returned so spawn-heavy callers (the TLS
  /// engine respawning an iteration thread per commit) can reuse its
  /// buffer instead of allocating a fresh vector per spawn.
  std::vector<std::uint64_t> resetAtPc(exec::FlatPc Pc,
                                       std::vector<std::uint64_t> Regs);

  bool finished() const { return Frames.empty(); }
  std::uint64_t returnValue() const { return RetVal; }
  std::uint64_t instructionsExecuted() const { return Executed; }

  std::size_t callDepth() const { return Frames.size(); }
  exec::FlatPc pc() const { return Frames.back().Pc; }
  std::uint32_t currentFunc() const { return Image.funcOf(pc()); }
  std::uint32_t currentBlock() const { return Image.blockOf(pc()); }
  std::uint32_t currentInstr() const {
    return pc() - Image.blockAt(pc()).StartPc;
  }
  bool atBlockStart() const {
    return !Frames.empty() && Image.isBlockStart(Frames.back().Pc);
  }

  /// Register file of the outermost frame (frame 0).
  std::vector<std::uint64_t> &baseRegs() { return Frames.front().Regs; }
  const std::vector<std::uint64_t> &baseRegs() const {
    return Frames.front().Regs;
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

  /// Executes one instruction; returns the cycles it consumed. Must not be
  /// called when finished(). Throws TrapError when the program executes an
  /// undefined operation (divide/remainder by zero).
  std::uint32_t step(MemoryPort &Mem, TraceSink *Sink, std::uint64_t Now);

  /// Executes instructions until the next block start (or until the
  /// program finishes), accumulating \p Now per instruction exactly as a
  /// sequence of step() calls would; returns the total cycles consumed.
  /// The context is at a block start (or finished) on return, so callers
  /// need to consult dispatchers only once per block.
  std::uint32_t stepBlock(MemoryPort &Mem, TraceSink *Sink,
                          std::uint64_t Now);

  /// Executes until the program finishes or the running clock (starting at
  /// \p Now, advanced per instruction) exceeds \p MaxCycles — the budget is
  /// tested at block starts, matching a stepBlock() loop that checks after
  /// every block. Returns the total cycles consumed. Equivalent to a
  /// step() loop cycle for cycle, but never leaves the dispatch loop, so
  /// sequential runs pay no per-block call boundary.
  std::uint64_t run(MemoryPort &Mem, TraceSink *Sink, std::uint64_t Now,
                    std::uint64_t MaxCycles);

  /// Why runAhead() returned.
  enum class RunStop : std::uint8_t {
    /// Parked before a Load, Store, Alloc, a Div/Rem whose divisor is zero,
    /// or a Ret from the outermost frame; the instruction has not executed.
    Shared,
    /// A Br/CondBr in the outermost frame landed on a flagged block start;
    /// the branch has executed and the context sits on the target.
    Boundary,
    /// The cycle budget ran out; the context sits on the next instruction.
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
  /// max(cost, 1) cycles, exactly as a step() per cycle would. Stops as
  /// \p Why reports; returns the cycles from the first instruction's issue
  /// to the issue of the instruction the context stopped before (Shared,
  /// Horizon) or of the boundary branch (Boundary). The Horizon stop fires
  /// once that count reaches \p Budget (> 0). Never touches memory, so
  /// it takes no MemoryPort; it never traps, since a zero divisor stops
  /// the run first.
  std::uint64_t runAhead(std::uint64_t Budget, const BoundaryMap &Stops,
                         RunStop &Why);

  /// Rewinds the innermost frame by one instruction, undoing the program
  /// counter advance of the last step(). Only valid when that step did not
  /// transfer control (loads/stores/arithmetic) — the TLS engine uses this
  /// to re-issue a load whose value is not yet available under
  /// synchronized local communication.
  void rewindTop() {
    Frame &F = Frames.back();
    assert(!Image.isBlockStart(F.Pc) && "cannot rewind across a block boundary");
    --F.Pc;
  }

  /// Execution granularity of stepImpl: one instruction, one basic block,
  /// a whole run bounded by a cycle budget, or a private run-ahead.
  enum class StepMode : std::uint8_t { Single, Block, Run, RunAhead };

private:
  /// \p Stops and \p Why are used by RunAhead only, where \p MaxCycles is
  /// the budget on the returned cycle count and \p Mem is null.
  template <StepMode Mode>
  std::uint64_t stepImpl(MemoryPort *Mem, TraceSink *Sink, std::uint64_t Now,
                         std::uint64_t MaxCycles, const BoundaryMap *Stops,
                         RunStop *Why);

  std::shared_ptr<const exec::CodeImage> OwnedImage; ///< null when external
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
