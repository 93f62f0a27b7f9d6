//===- interp/ExecContext.cpp ---------------------------------------------==//

#include "interp/ExecContext.h"

#include "interp/Trap.h"
#include "support/Bits.h"
#include "support/Compiler.h"

#include <cassert>
#include <cmath>

using namespace jrpm;
using namespace jrpm::interp;
using jrpm::bits::asF;
using jrpm::bits::asI;
using jrpm::bits::asU;

void ExecContext::start(std::uint32_t Func,
                        const std::vector<std::uint64_t> &Args) {
  const exec::FuncDesc &F = Image.func(Func);
  assert(Args.size() == F.NumParams && "wrong argument count");
  Frame Fr;
  Fr.Pc = F.EntryPc;
  Fr.Activation = NextActivation++;
  Fr.Regs.assign(F.NumRegs, 0);
  for (std::uint32_t I = 0; I < Args.size(); ++I)
    Fr.Regs[I] = Args[I];
  Frames.clear();
  Frames.push_back(std::move(Fr));
  Executed = 0;
}

std::vector<std::uint64_t> &ExecContext::resetAtPc(exec::FlatPc Pc) {
  assert(Image.isBlockStart(Pc) && "resetAtPc targets a block start");
  // Keep the outermost frame and its register buffer: the TLS engine
  // resets a core on every spawn.
  Frames.resize(1);
  Frame &F = Frames.front();
  F.Pc = Pc;
  F.Activation = NextActivation++;
  F.RetDst = ir::NoReg;
  F.StagedArgs.clear();
  return F.Regs;
}

void ExecContext::trap() const {
  const exec::DecodedInst &I = Image.inst(pc());
  assert((I.Op == ir::Opcode::Div || I.Op == ir::Opcode::Rem) &&
         "only a zero divisor traps");
  throw TrapError(I.Op == ir::Opcode::Div ? TrapKind::DivideByZero
                                          : TrapKind::RemainderByZero,
                  I.Pc);
}

template <ExecContext::StepMode Mode>
std::uint64_t ExecContext::stepImpl(DirectMemoryPort *Mem, TraceSink *Sink,
                                    std::uint64_t Now,
                                    std::uint64_t MaxCycles,
                                    const std::uint32_t *StopAt,
                                    const BoundaryMap *Stops, RunStop *Why) {
  assert(!Frames.empty() && "stepping a finished context");
  const exec::DecodedInst *Insts = Image.insts();
  const sim::CostModel &Costs = Cfg.Costs;
  // Cycles an instruction of cost C occupies its core: a zero-cost
  // instruction still takes one cycle in a run-ahead.
  auto Occupancy = [](std::uint32_t C) -> std::uint64_t {
    return Mode == StepMode::RunAhead && C == 0 ? 1 : C;
  };
  const std::uint64_t Basic = Occupancy(Costs.Basic);
  const std::uint64_t Start = Now;
  // The instruction pointer, register-file pointer, clock and retired-
  // instruction counter are carried in locals; Frame::Pc and Executed are
  // written back only at frame changes, returns, and traps, so the
  // per-instruction path never touches memory the compiler cannot keep in
  // registers across the opaque Sink calls.
  Frame *F = &Frames.back();
  const exec::DecodedInst *I = Insts + F->Pc;
  exec::FlatPc Pc = 0; // target of the control transfer being taken
  std::uint64_t *Regs = F->Regs.data();
  std::uint64_t Exec = Executed;

  // Token-threaded dispatch: the pre-decoded opcode indexes a label table
  // and every handler ends in its own indirect jump, so the branch
  // predictor sees one jump site per handler instead of a single shared
  // dispatch point that mispredicts on almost every opcode change.
  static const void *const JumpTable[] = {
      &&Op_Add,     &&Op_Sub,     &&Op_Mul,     &&Op_Div,     &&Op_Rem,
      &&Op_And,     &&Op_Or,      &&Op_Xor,     &&Op_Shl,     &&Op_Shr,
      &&Op_AddImm,  &&Op_FAdd,    &&Op_FSub,    &&Op_FMul,    &&Op_FDiv,
      &&Op_FNeg,    &&Op_FSqrt,   &&Op_IToF,    &&Op_FToI,    &&Op_CmpEQ,
      &&Op_CmpNE,   &&Op_CmpLT,   &&Op_CmpLE,   &&Op_CmpGT,   &&Op_CmpGE,
      &&Op_FCmpEQ,  &&Op_FCmpLT,  &&Op_FCmpLE,  &&Op_ConstI,  &&Op_ConstF,
      &&Op_Mov,     &&Op_Load,    &&Op_Store,   &&Op_Alloc,   &&Op_Br,
      &&Op_CondBr,  &&Op_Call,    &&Op_Arg,     &&Op_Ret,     &&Op_SLoop,
      &&Op_Eoi,     &&Op_ELoop,   &&Op_LwlAnno, &&Op_SwlAnno,
      &&Op_ReadStats, &&Op_Nop,
  };
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) ==
                    static_cast<std::size_t>(ir::Opcode::Nop) + 1,
                "jump table must cover every opcode in enum order");

// Flat PC of the current instruction (frame changes, stops and traps only).
#define JRPM_PC() static_cast<exec::FlatPc>(I - Insts)

// Returns the cycles consumed since entry.
#define JRPM_RETURN()                                                        \
  do {                                                                       \
    Executed = Exec;                                                         \
    return Now - Start;                                                      \
  } while (0)

// Run-ahead only: leave the context parked on the instruction just
// fetched, without executing it.
#define JRPM_STOP_BEFORE()                                                   \
  do {                                                                       \
    --Exec;                                                                  \
    F->Pc = JRPM_PC();                                                       \
    *Why = RunStop::Shared;                                                  \
    JRPM_RETURN();                                                           \
  } while (0)

#define JRPM_FETCH()                                                         \
  do {                                                                       \
    ++Exec;                                                                  \
    goto *JumpTable[static_cast<std::uint8_t>(I->Op)];                       \
  } while (0)

// Every instruction but a control transfer continues in its own block,
// after occupying its core for \p Cycles.
#define JRPM_NEXT_AFTER(Cycles)                                              \
  do {                                                                       \
    Now += (Cycles);                                                         \
    ++I;                                                                     \
    JRPM_FETCH();                                                            \
  } while (0)
#define JRPM_NEXT() JRPM_NEXT_AFTER(Basic)

// A Br, CondBr or Call that took \p Cycles lands on block start Pc. These
// are the only ways into a block start (every block ends in a terminator),
// so run()'s budget and stop-map tests and runAhead()'s Horizon test run
// here and nowhere else.
#define JRPM_ENTER_BLOCK(Cycles)                                             \
  do {                                                                       \
    Now += (Cycles);                                                         \
    I = Insts + Pc;                                                          \
    if constexpr (Mode == StepMode::RunAhead) {                              \
      if (Now - Start >= MaxCycles) {                                        \
        F->Pc = Pc;                                                          \
        *Why = RunStop::Horizon;                                             \
        JRPM_RETURN();                                                       \
      }                                                                      \
    } else if (Now > MaxCycles || (StopAt && StopAt[Pc])) {                  \
      F->Pc = Pc;                                                            \
      JRPM_RETURN();                                                         \
    }                                                                        \
    JRPM_FETCH();                                                            \
  } while (0)

  JRPM_FETCH();

Op_Add:
  Regs[I->Dst] = Regs[I->A] + Regs[I->B];
  JRPM_NEXT();
Op_Sub:
  Regs[I->Dst] = Regs[I->A] - Regs[I->B];
  JRPM_NEXT();
Op_Mul:
  Regs[I->Dst] = Regs[I->A] * Regs[I->B];
  JRPM_NEXT();
Op_Div: {
  std::int64_t D = asI(Regs[I->B]);
  if (D == 0) {
    if constexpr (Mode == StepMode::RunAhead)
      JRPM_STOP_BEFORE();
    F->Pc = JRPM_PC(); // park the context on the faulting instruction
    Executed = Exec;
    trap();
  }
  Regs[I->Dst] = static_cast<std::uint64_t>(asI(Regs[I->A]) / D);
  JRPM_NEXT_AFTER(Occupancy(Costs.IntDiv));
}
Op_Rem: {
  std::int64_t D = asI(Regs[I->B]);
  if (D == 0) {
    if constexpr (Mode == StepMode::RunAhead)
      JRPM_STOP_BEFORE();
    F->Pc = JRPM_PC();
    Executed = Exec;
    trap();
  }
  Regs[I->Dst] = static_cast<std::uint64_t>(asI(Regs[I->A]) % D);
  JRPM_NEXT_AFTER(Occupancy(Costs.IntDiv));
}
Op_And:
  Regs[I->Dst] = Regs[I->A] & Regs[I->B];
  JRPM_NEXT();
Op_Or:
  Regs[I->Dst] = Regs[I->A] | Regs[I->B];
  JRPM_NEXT();
Op_Xor:
  Regs[I->Dst] = Regs[I->A] ^ Regs[I->B];
  JRPM_NEXT();
Op_Shl:
  Regs[I->Dst] = Regs[I->A] << (Regs[I->B] & 63);
  JRPM_NEXT();
Op_Shr:
  Regs[I->Dst] =
      static_cast<std::uint64_t>(asI(Regs[I->A]) >> (Regs[I->B] & 63));
  JRPM_NEXT();
Op_AddImm:
  Regs[I->Dst] = Regs[I->A] + static_cast<std::uint64_t>(I->Imm);
  JRPM_NEXT();
Op_FAdd:
  Regs[I->Dst] = asU(asF(Regs[I->A]) + asF(Regs[I->B]));
  JRPM_NEXT();
Op_FSub:
  Regs[I->Dst] = asU(asF(Regs[I->A]) - asF(Regs[I->B]));
  JRPM_NEXT();
Op_FMul:
  Regs[I->Dst] = asU(asF(Regs[I->A]) * asF(Regs[I->B]));
  JRPM_NEXT();
Op_FDiv:
  Regs[I->Dst] = asU(asF(Regs[I->A]) / asF(Regs[I->B]));
  JRPM_NEXT_AFTER(Occupancy(Costs.FloatDiv));
Op_FNeg:
  Regs[I->Dst] = asU(-asF(Regs[I->A]));
  JRPM_NEXT();
Op_FSqrt:
  Regs[I->Dst] = asU(std::sqrt(asF(Regs[I->A])));
  JRPM_NEXT_AFTER(Occupancy(Costs.FloatSqrt));
Op_IToF:
  Regs[I->Dst] = asU(static_cast<double>(asI(Regs[I->A])));
  JRPM_NEXT();
Op_FToI:
  Regs[I->Dst] =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(asF(Regs[I->A])));
  JRPM_NEXT();
Op_CmpEQ:
  Regs[I->Dst] = Regs[I->A] == Regs[I->B];
  JRPM_NEXT();
Op_CmpNE:
  Regs[I->Dst] = Regs[I->A] != Regs[I->B];
  JRPM_NEXT();
Op_CmpLT:
  Regs[I->Dst] = asI(Regs[I->A]) < asI(Regs[I->B]);
  JRPM_NEXT();
Op_CmpLE:
  Regs[I->Dst] = asI(Regs[I->A]) <= asI(Regs[I->B]);
  JRPM_NEXT();
Op_CmpGT:
  Regs[I->Dst] = asI(Regs[I->A]) > asI(Regs[I->B]);
  JRPM_NEXT();
Op_CmpGE:
  Regs[I->Dst] = asI(Regs[I->A]) >= asI(Regs[I->B]);
  JRPM_NEXT();
Op_FCmpEQ:
  Regs[I->Dst] = asF(Regs[I->A]) == asF(Regs[I->B]);
  JRPM_NEXT();
Op_FCmpLT:
  Regs[I->Dst] = asF(Regs[I->A]) < asF(Regs[I->B]);
  JRPM_NEXT();
Op_FCmpLE:
  Regs[I->Dst] = asF(Regs[I->A]) <= asF(Regs[I->B]);
  JRPM_NEXT();
Op_ConstI:
Op_ConstF:
  Regs[I->Dst] = static_cast<std::uint64_t>(I->Imm);
  JRPM_NEXT();
Op_Mov:
  Regs[I->Dst] = Regs[I->A];
  JRPM_NEXT();
Op_Load: {
  if constexpr (Mode == StepMode::RunAhead)
    JRPM_STOP_BEFORE();
  std::uint32_t Addr = exec::effectiveAddress(*I, Regs);
  std::uint32_t Cost = Costs.Basic;
  Regs[I->Dst] = Mem->load(Addr, Cost);
  if (Sink)
    Cost += Sink->onHeapLoad(Addr, Now, I->Pc);
  JRPM_NEXT_AFTER(Cost);
}
Op_Store: {
  if constexpr (Mode == StepMode::RunAhead)
    JRPM_STOP_BEFORE();
  std::uint32_t Addr = exec::effectiveAddress(*I, Regs);
  Mem->store(Addr, Regs[I->Dst]);
  std::uint32_t Cost = Costs.Basic;
  if (Sink)
    Cost += Sink->onHeapStore(Addr, Now, I->Pc);
  JRPM_NEXT_AFTER(Cost);
}
Op_Alloc: {
  if constexpr (Mode == StepMode::RunAhead)
    JRPM_STOP_BEFORE();
  std::uint32_t Count = I->A != ir::NoReg
                            ? static_cast<std::uint32_t>(Regs[I->A])
                            : static_cast<std::uint32_t>(I->Imm);
  Regs[I->Dst] = Mem->allocWords(Count);
  JRPM_NEXT();
}
// Run-ahead only: a transfer at the outermost frame that lands on a flagged
// block start ends the run after the branch; the cycles returned stop at
// the branch's issue.
#define JRPM_BOUNDARY_CHECK()                                                \
  do {                                                                       \
    if constexpr (Mode == StepMode::RunAhead) {                              \
      if (F == Frames.data() && Stops->stopsAt(Pc)) {                        \
        F->Pc = Pc;                                                          \
        *Why = RunStop::Boundary;                                            \
        JRPM_RETURN();                                                       \
      }                                                                      \
    }                                                                        \
  } while (0)

Op_Br:
  Pc = static_cast<exec::FlatPc>(I->Imm); // pre-resolved target
  JRPM_BOUNDARY_CHECK();
  JRPM_ENTER_BLOCK(Basic);
Op_CondBr:
  Pc = Regs[I->A] != 0 ? static_cast<exec::FlatPc>(I->Imm)
                       : static_cast<exec::FlatPc>(I->Imm2);
  JRPM_BOUNDARY_CHECK();
  JRPM_ENTER_BLOCK(Basic);
Op_Arg:
  F->StagedArgs.push_back(Regs[I->A]);
  JRPM_NEXT();
Op_Call: {
  std::uint32_t Callee = static_cast<std::uint32_t>(I->Imm);
  const exec::FuncDesc &CF = Image.func(Callee);
  assert(F->StagedArgs.size() == CF.NumParams && "bad call arity");
  Frame NewF;
  NewF.Pc = CF.EntryPc;
  NewF.Activation = NextActivation++;
  NewF.RetDst = I->Dst;
  NewF.Regs.assign(CF.NumRegs, 0);
  for (std::uint32_t A = 0; A < F->StagedArgs.size(); ++A)
    NewF.Regs[A] = F->StagedArgs[A];
  F->StagedArgs.clear();
  F->Pc = JRPM_PC() + 1; // resume point after the call
  if (Sink)
    Sink->onCallSite(I->Pc, Now);
  Frames.push_back(std::move(NewF)); // invalidates F
  F = &Frames.back();
  Pc = F->Pc;
  Regs = F->Regs.data();
  assert(Insts[Pc].Flags & exec::DecodedInst::BlockStartFlag);
  JRPM_ENTER_BLOCK(Occupancy(Costs.CallOverhead));
}
Op_Ret: {
  if constexpr (Mode == StepMode::RunAhead)
    if (F == Frames.data())
      JRPM_STOP_BEFORE(); // the caller decides what leaving it means
  std::uint64_t Value = I->A != ir::NoReg ? Regs[I->A] : 0;
  if (Sink) {
    Sink->onReturn(F->Activation);
    Sink->onCallReturn(Now);
  }
  std::uint16_t RetDst = F->RetDst;
  Frames.pop_back();
  Now += Occupancy(Costs.CallOverhead);
  if (Frames.empty()) {
    RetVal = Value;
    JRPM_RETURN();
  }
  F = &Frames.back();
  I = Insts + F->Pc; // the caller parked its resume PC before the call
  Regs = F->Regs.data();
  if (RetDst != ir::NoReg)
    Regs[RetDst] = Value;
  JRPM_FETCH();
}
// Annotation instructions cost one cycle by themselves (the nop they
// degrade to when the runtime disables a loop's tracing); the tracer
// charges the coprocessor interaction on top while it is listening.
#define JRPM_NEXT_WITH_SINK(Call)                                            \
  do {                                                                       \
    std::uint32_t Cost = Costs.Basic;                                        \
    if (Sink)                                                                \
      Cost += Sink->Call;                                                    \
    JRPM_NEXT_AFTER(Occupancy(Cost));                                        \
  } while (0)
Op_SLoop:
  JRPM_NEXT_WITH_SINK(onLoopStart(static_cast<std::uint32_t>(I->Imm),
                                  F->Activation, Now));
Op_Eoi:
  JRPM_NEXT_WITH_SINK(onLoopIter(static_cast<std::uint32_t>(I->Imm), Now));
Op_ELoop:
  JRPM_NEXT_WITH_SINK(onLoopEnd(static_cast<std::uint32_t>(I->Imm), Now));
Op_ReadStats:
  JRPM_NEXT_WITH_SINK(onReadStats(static_cast<std::uint32_t>(I->Imm), Now));
Op_LwlAnno: {
  std::uint32_t Cost = Cfg.LocalAnnoCost;
  if (Sink)
    Cost += Sink->onLocalLoad(F->Activation, I->A, Now, I->Pc);
  JRPM_NEXT_AFTER(Occupancy(Cost));
}
Op_SwlAnno: {
  std::uint32_t Cost = Cfg.LocalAnnoCost;
  if (Sink)
    Cost += Sink->onLocalStore(F->Activation, I->A, Now, I->Pc);
  JRPM_NEXT_AFTER(Occupancy(Cost));
}
Op_Nop:
  JRPM_NEXT();

#undef JRPM_NEXT_WITH_SINK
#undef JRPM_BOUNDARY_CHECK
#undef JRPM_ENTER_BLOCK
#undef JRPM_NEXT
#undef JRPM_NEXT_AFTER
#undef JRPM_FETCH
#undef JRPM_STOP_BEFORE
#undef JRPM_RETURN
#undef JRPM_PC
}

std::uint64_t ExecContext::run(DirectMemoryPort &Mem, TraceSink *Sink,
                               std::uint64_t Now, std::uint64_t MaxCycles,
                               const std::uint32_t *StopAt) {
  return stepImpl<StepMode::Run>(&Mem, Sink, Now, MaxCycles, StopAt,
                                 nullptr, nullptr);
}

// The inline runAhead() calls this instantiation.
template std::uint64_t
ExecContext::stepImpl<ExecContext::StepMode::RunAhead>(
    DirectMemoryPort *, TraceSink *, std::uint64_t, std::uint64_t,
    const std::uint32_t *, const BoundaryMap *, RunStop *);
