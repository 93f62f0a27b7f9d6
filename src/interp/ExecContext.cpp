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

void ExecContext::startAt(std::uint32_t Func, std::uint32_t Block,
                          std::vector<std::uint64_t> Regs) {
  assert(Regs.size() >= Image.func(Func).NumRegs &&
         "register file too small");
  Frame Fr;
  Fr.Pc = Image.blockStart(Func, Block);
  Fr.Activation = NextActivation++;
  Fr.Regs = std::move(Regs);
  Frames.clear();
  Frames.push_back(std::move(Fr));
}

std::vector<std::uint64_t>
ExecContext::resetAtPc(exec::FlatPc Pc, std::vector<std::uint64_t> Regs) {
  assert(Image.isBlockStart(Pc) && "resetAtPc targets a block start");
  assert(Regs.size() >= Image.func(Image.funcOf(Pc)).NumRegs &&
         "register file too small");
  std::vector<std::uint64_t> Recycled;
  if (Frames.size() == 1) {
    // Reuse the frame in place: no vector churn on the spawn-per-commit
    // path of the TLS engine.
    Frame &F = Frames.back();
    Recycled = std::move(F.Regs);
    F.Pc = Pc;
    F.Activation = NextActivation++;
    F.RetDst = ir::NoReg;
    F.Regs = std::move(Regs);
    F.StagedArgs.clear();
    return Recycled;
  }
  if (!Frames.empty())
    Recycled = std::move(Frames.front().Regs);
  Frame Fr;
  Fr.Pc = Pc;
  Fr.Activation = NextActivation++;
  Fr.Regs = std::move(Regs);
  Frames.clear();
  Frames.push_back(std::move(Fr));
  return Recycled;
}

template <ExecContext::StepMode Mode>
std::uint64_t ExecContext::stepImpl(MemoryPort &Mem, TraceSink *Sink,
                                    std::uint64_t Now,
                                    std::uint64_t MaxCycles) {
  assert(!Frames.empty() && "stepping a finished context");
  const exec::DecodedInst *Insts = Image.insts();
  const sim::CostModel &Costs = Cfg.Costs;
  std::uint64_t Total = 0;
  // The program counter, register-file pointer, and retired-instruction
  // counter are carried in locals; Frame::Pc and Executed are written back
  // only at frame changes, step boundaries, and traps, so the
  // per-instruction path never touches memory the compiler cannot keep in
  // registers across the opaque Mem/Sink calls.
  Frame *F = &Frames.back();
  exec::FlatPc Pc = F->Pc;
  std::uint64_t *Regs = F->Regs.data();
  std::uint64_t Exec = Executed;
  const exec::DecodedInst *I = nullptr;
  std::uint32_t Cost = 0;

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

#define JRPM_RETURN(Val)                                                     \
  do {                                                                       \
    Executed = Exec;                                                         \
    return (Val);                                                            \
  } while (0)

#define JRPM_FETCH()                                                         \
  do {                                                                       \
    I = &Insts[Pc];                                                          \
    ++Exec;                                                                  \
    Cost = Costs.Basic;                                                      \
    goto *JumpTable[static_cast<std::uint8_t>(I->Op)];                       \
  } while (0)

#define JRPM_NEXT()                                                          \
  do {                                                                       \
    Total += Cost;                                                           \
    if constexpr (Mode == StepMode::Single) {                                \
      F->Pc = Pc;                                                            \
      JRPM_RETURN(Total);                                                    \
    }                                                                        \
    Now += Cost;                                                             \
    if (Insts[Pc].Flags & exec::DecodedInst::BlockStartFlag) {               \
      if constexpr (Mode == StepMode::Block) {                               \
        F->Pc = Pc;                                                          \
        JRPM_RETURN(Total);                                                  \
      } else if (Now > MaxCycles) { /* budget test once per block */         \
        F->Pc = Pc;                                                          \
        JRPM_RETURN(Total);                                                  \
      }                                                                      \
    }                                                                        \
    JRPM_FETCH();                                                            \
  } while (0)

  JRPM_FETCH();

Op_Add:
  Regs[I->Dst] = Regs[I->A] + Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Sub:
  Regs[I->Dst] = Regs[I->A] - Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Mul:
  Regs[I->Dst] = Regs[I->A] * Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Div: {
  std::int64_t D = asI(Regs[I->B]);
  if (D == 0) {
    F->Pc = Pc; // park the context on the faulting instruction
    Executed = Exec;
    throw TrapError(TrapKind::DivideByZero, I->Pc);
  }
  Regs[I->Dst] = static_cast<std::uint64_t>(asI(Regs[I->A]) / D);
  Cost = Costs.IntDiv;
  ++Pc;
  JRPM_NEXT();
}
Op_Rem: {
  std::int64_t D = asI(Regs[I->B]);
  if (D == 0) {
    F->Pc = Pc;
    Executed = Exec;
    throw TrapError(TrapKind::RemainderByZero, I->Pc);
  }
  Regs[I->Dst] = static_cast<std::uint64_t>(asI(Regs[I->A]) % D);
  Cost = Costs.IntDiv;
  ++Pc;
  JRPM_NEXT();
}
Op_And:
  Regs[I->Dst] = Regs[I->A] & Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Or:
  Regs[I->Dst] = Regs[I->A] | Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Xor:
  Regs[I->Dst] = Regs[I->A] ^ Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Shl:
  Regs[I->Dst] = Regs[I->A] << (Regs[I->B] & 63);
  ++Pc;
  JRPM_NEXT();
Op_Shr:
  Regs[I->Dst] =
      static_cast<std::uint64_t>(asI(Regs[I->A]) >> (Regs[I->B] & 63));
  ++Pc;
  JRPM_NEXT();
Op_AddImm:
  Regs[I->Dst] = Regs[I->A] + static_cast<std::uint64_t>(I->Imm);
  ++Pc;
  JRPM_NEXT();
Op_FAdd:
  Regs[I->Dst] = asU(asF(Regs[I->A]) + asF(Regs[I->B]));
  ++Pc;
  JRPM_NEXT();
Op_FSub:
  Regs[I->Dst] = asU(asF(Regs[I->A]) - asF(Regs[I->B]));
  ++Pc;
  JRPM_NEXT();
Op_FMul:
  Regs[I->Dst] = asU(asF(Regs[I->A]) * asF(Regs[I->B]));
  ++Pc;
  JRPM_NEXT();
Op_FDiv:
  Regs[I->Dst] = asU(asF(Regs[I->A]) / asF(Regs[I->B]));
  Cost = Costs.FloatDiv;
  ++Pc;
  JRPM_NEXT();
Op_FNeg:
  Regs[I->Dst] = asU(-asF(Regs[I->A]));
  ++Pc;
  JRPM_NEXT();
Op_FSqrt:
  Regs[I->Dst] = asU(std::sqrt(asF(Regs[I->A])));
  Cost = Costs.FloatSqrt;
  ++Pc;
  JRPM_NEXT();
Op_IToF:
  Regs[I->Dst] = asU(static_cast<double>(asI(Regs[I->A])));
  ++Pc;
  JRPM_NEXT();
Op_FToI:
  Regs[I->Dst] =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(asF(Regs[I->A])));
  ++Pc;
  JRPM_NEXT();
Op_CmpEQ:
  Regs[I->Dst] = Regs[I->A] == Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_CmpNE:
  Regs[I->Dst] = Regs[I->A] != Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_CmpLT:
  Regs[I->Dst] = asI(Regs[I->A]) < asI(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_CmpLE:
  Regs[I->Dst] = asI(Regs[I->A]) <= asI(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_CmpGT:
  Regs[I->Dst] = asI(Regs[I->A]) > asI(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_CmpGE:
  Regs[I->Dst] = asI(Regs[I->A]) >= asI(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_FCmpEQ:
  Regs[I->Dst] = asF(Regs[I->A]) == asF(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_FCmpLT:
  Regs[I->Dst] = asF(Regs[I->A]) < asF(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_FCmpLE:
  Regs[I->Dst] = asF(Regs[I->A]) <= asF(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_ConstI:
Op_ConstF:
  Regs[I->Dst] = static_cast<std::uint64_t>(I->Imm);
  ++Pc;
  JRPM_NEXT();
Op_Mov:
  Regs[I->Dst] = Regs[I->A];
  ++Pc;
  JRPM_NEXT();
Op_Load: {
  std::uint64_t Ea = static_cast<std::uint64_t>(I->Imm);
  if (I->A != ir::NoReg)
    Ea += Regs[I->A];
  if (I->B != ir::NoReg)
    Ea += Regs[I->B];
  std::uint32_t Addr = static_cast<std::uint32_t>(Ea);
  std::uint32_t Extra = 0;
  Regs[I->Dst] = Mem.load(Addr, Extra);
  Cost += Extra;
  if (Sink)
    Cost += Sink->onHeapLoad(Addr, Now, I->Pc);
  ++Pc;
  JRPM_NEXT();
}
Op_Store: {
  std::uint64_t Ea = static_cast<std::uint64_t>(I->Imm);
  if (I->A != ir::NoReg)
    Ea += Regs[I->A];
  if (I->B != ir::NoReg)
    Ea += Regs[I->B];
  std::uint32_t Addr = static_cast<std::uint32_t>(Ea);
  std::uint32_t Extra = 0;
  Mem.store(Addr, Regs[I->Dst], Extra);
  Cost += Extra;
  if (Sink)
    Cost += Sink->onHeapStore(Addr, Now, I->Pc);
  ++Pc;
  JRPM_NEXT();
}
Op_Alloc: {
  std::uint32_t Count = I->A != ir::NoReg
                            ? static_cast<std::uint32_t>(Regs[I->A])
                            : static_cast<std::uint32_t>(I->Imm);
  Regs[I->Dst] = Mem.allocWords(Count);
  ++Pc;
  JRPM_NEXT();
}
Op_Br:
  Pc = static_cast<exec::FlatPc>(I->Imm); // pre-resolved target
  JRPM_NEXT();
Op_CondBr:
  Pc = Regs[I->A] != 0 ? static_cast<exec::FlatPc>(I->Imm)
                       : static_cast<exec::FlatPc>(I->Imm2);
  JRPM_NEXT();
Op_Arg:
  F->StagedArgs.push_back(Regs[I->A]);
  ++Pc;
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
  F->Pc = Pc + 1; // resume point after the call
  Cost = Costs.CallOverhead;
  if (Sink)
    Sink->onCallSite(I->Pc, Now);
  Frames.push_back(std::move(NewF)); // invalidates F
  F = &Frames.back();
  Pc = F->Pc;
  Total += Cost;
  // The callee entry is a function's first block start, so block-granular
  // stepping stops here just like single stepping does.
  assert(Insts[Pc].Flags & exec::DecodedInst::BlockStartFlag);
  if constexpr (Mode == StepMode::Run) {
    Regs = F->Regs.data();
    Now += Cost;
    if (Now > MaxCycles)
      JRPM_RETURN(Total); // F->Pc already holds the callee entry
    JRPM_FETCH();
  }
  JRPM_RETURN(Total);
}
Op_Ret: {
  std::uint64_t Value = I->A != ir::NoReg ? Regs[I->A] : 0;
  if (Sink) {
    Sink->onReturn(F->Activation);
    Sink->onCallReturn(Now);
  }
  std::uint16_t RetDst = F->RetDst;
  Frames.pop_back();
  Cost = Costs.CallOverhead;
  Total += Cost;
  if (Frames.empty()) {
    RetVal = Value;
    JRPM_RETURN(Total);
  }
  F = &Frames.back();
  Pc = F->Pc; // the caller parked its resume PC before the call
  Regs = F->Regs.data();
  if (RetDst != ir::NoReg)
    Regs[RetDst] = Value;
  if constexpr (Mode == StepMode::Single)
    JRPM_RETURN(Total);
  Now += Cost;
  if (Insts[Pc].Flags & exec::DecodedInst::BlockStartFlag) {
    if constexpr (Mode == StepMode::Block)
      JRPM_RETURN(Total);
    else if (Now > MaxCycles)
      JRPM_RETURN(Total);
  }
  JRPM_FETCH();
}
// Annotation instructions cost one cycle by themselves (the nop they
// degrade to when the runtime disables a loop's tracing); the tracer
// charges the coprocessor interaction on top while it is listening.
Op_SLoop:
  if (Sink)
    Cost += Sink->onLoopStart(static_cast<std::uint32_t>(I->Imm),
                              F->Activation, Now);
  ++Pc;
  JRPM_NEXT();
Op_Eoi:
  if (Sink)
    Cost += Sink->onLoopIter(static_cast<std::uint32_t>(I->Imm), Now);
  ++Pc;
  JRPM_NEXT();
Op_ELoop:
  if (Sink)
    Cost += Sink->onLoopEnd(static_cast<std::uint32_t>(I->Imm), Now);
  ++Pc;
  JRPM_NEXT();
Op_LwlAnno:
  Cost = Cfg.LocalAnnoCost;
  if (Sink)
    Cost += Sink->onLocalLoad(F->Activation, I->A, Now, I->Pc);
  ++Pc;
  JRPM_NEXT();
Op_SwlAnno:
  Cost = Cfg.LocalAnnoCost;
  if (Sink)
    Cost += Sink->onLocalStore(F->Activation, I->A, Now, I->Pc);
  ++Pc;
  JRPM_NEXT();
Op_ReadStats:
  if (Sink)
    Cost += Sink->onReadStats(static_cast<std::uint32_t>(I->Imm), Now);
  ++Pc;
  JRPM_NEXT();
Op_Nop:
  ++Pc;
  JRPM_NEXT();

#undef JRPM_NEXT
#undef JRPM_FETCH
#undef JRPM_RETURN
}

std::uint32_t ExecContext::step(MemoryPort &Mem, TraceSink *Sink,
                                std::uint64_t Now) {
  return static_cast<std::uint32_t>(
      stepImpl<StepMode::Single>(Mem, Sink, Now, 0));
}

std::uint32_t ExecContext::stepBlock(MemoryPort &Mem, TraceSink *Sink,
                                     std::uint64_t Now) {
  return static_cast<std::uint32_t>(
      stepImpl<StepMode::Block>(Mem, Sink, Now, 0));
}

std::uint64_t ExecContext::run(MemoryPort &Mem, TraceSink *Sink,
                               std::uint64_t Now, std::uint64_t MaxCycles) {
  return stepImpl<StepMode::Run>(Mem, Sink, Now, MaxCycles);
}
