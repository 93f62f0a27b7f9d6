//===- tests/exec_test.cpp - CodeImage / flat execution tests --------------==//
//
// Covers the pre-decoded execution image (layout, target resolution,
// appending a function), the flat-PC ExecContext surface the TLS engine
// depends on (resetAtPc with an oversized register file, retire() and
// trap() after a run-ahead parks, repositionTop at a loop exit),
// deterministic divide-by-zero traps, and run() stop-and-resume
// equivalence on random programs.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Candidates.h"
#include "corpus/Generator.h"
#include "exec/CodeImage.h"
#include "hydra/TlsCodegen.h"
#include "hydra/TlsEngine.h"
#include "interp/Trap.h"
#include "jit/TlsPlan.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace jrpm;
using namespace jrpm::front;
using jrpm::testutil::makeMain;
using jrpm::testutil::runModule;

namespace {

ir::Module makeCallProgram() {
  ProgramDef P;
  FuncDef Helper;
  Helper.Name = "mix";
  Helper.Params = {"a", "b"};
  Helper.Body = seq({
      iff(lt(v("a"), v("b")), ret(sub(v("b"), v("a")))),
      ret(add(mul(v("a"), c(3)), v("b"))),
  });
  FuncDef Main;
  Main.Body = seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(8)), 1,
              assign("s", add(v("s"), call("mix", {v("i"), c(5)})))),
      ret(v("s")),
  });
  Main.Name = "main";
  P.Functions.push_back(std::move(Helper));
  P.Functions.push_back(std::move(Main));
  return lowerProgram(P);
}

} // namespace

TEST(CodeImage, LayoutMatchesModule) {
  ir::Module M = makeCallProgram();
  M.finalize();
  exec::CodeImage Img(M);

  std::uint32_t TotalInsts = 0, TotalBlocks = 0;
  for (const ir::Function &F : M.Functions) {
    TotalBlocks += F.Blocks.size();
    for (const ir::BasicBlock &BB : F.Blocks)
      TotalInsts += BB.Instructions.size();
  }
  ASSERT_EQ(Img.numInsts(), TotalInsts);
  ASSERT_EQ(Img.numBlocks(), TotalBlocks);
  ASSERT_EQ(Img.numFuncs(), M.Functions.size());

  // For a finalized module the flat PC equals the tracer PC, every operand
  // field survives decoding, and exactly the first instruction of each
  // block carries the block-start flag.
  exec::FlatPc Pc = 0;
  for (std::uint32_t FI = 0; FI < M.Functions.size(); ++FI) {
    const ir::Function &F = M.Functions[FI];
    EXPECT_EQ(Img.entry(FI), Pc);
    EXPECT_EQ(Img.func(FI).NumRegs, F.NumRegs);
    EXPECT_EQ(Img.func(FI).NumParams, F.NumParams);
    for (std::uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
      EXPECT_EQ(Img.blockStart(FI, BI), Pc);
      for (std::uint32_t II = 0; II < F.Blocks[BI].Instructions.size();
           ++II, ++Pc) {
        const ir::Instruction &Src = F.Blocks[BI].Instructions[II];
        const exec::DecodedInst &D = Img.inst(Pc);
        EXPECT_EQ(static_cast<std::int32_t>(Pc), Src.Pc);
        EXPECT_EQ(D.Pc, Src.Pc);
        EXPECT_EQ(D.Op, Src.Op);
        EXPECT_EQ(D.isBlockStart(), II == 0);
        EXPECT_EQ(Img.funcOf(Pc), FI);
        EXPECT_EQ(Img.blockOf(Pc), BI);
        // Branch targets are pre-resolved to block-start flat PCs.
        if (Src.Op == ir::Opcode::Br) {
          EXPECT_EQ(static_cast<exec::FlatPc>(D.Imm),
                    Img.blockStart(FI, static_cast<std::uint32_t>(Src.Imm)));
        } else if (Src.Op == ir::Opcode::CondBr) {
          EXPECT_EQ(static_cast<exec::FlatPc>(D.Imm),
                    Img.blockStart(FI, static_cast<std::uint32_t>(Src.Imm)));
          EXPECT_EQ(static_cast<exec::FlatPc>(D.Imm2),
                    Img.blockStart(FI, static_cast<std::uint32_t>(Src.Imm2)));
        } else {
          EXPECT_EQ(D.Imm, Src.Imm);
        }
      }
    }
  }
}

TEST(CodeImage, TerminatorClassification) {
  ir::Module M = makeCallProgram();
  M.finalize();
  exec::CodeImage Img(M);
  std::uint32_t Returns = 0, CondJumps = 0, Jumps = 0;
  for (std::uint32_t B = 0; B < Img.numBlocks(); ++B) {
    const exec::BlockDesc &BD = Img.blockDesc(B);
    switch (Img.inst(BD.StartPc + BD.NumInsts - 1).Op) {
    case ir::Opcode::Ret:
      ++Returns;
      break;
    case ir::Opcode::CondBr:
      ++CondJumps;
      break;
    case ir::Opcode::Br:
      ++Jumps;
      break;
    default:
      ADD_FAILURE() << "block " << B << " ends in a non-terminator";
    }
  }
  EXPECT_GE(Returns, 3u); // two in mix, one in main
  EXPECT_GE(CondJumps, 2u); // the iff and the loop header
  EXPECT_GE(Jumps, 1u); // the loop latch
}

namespace {

/// Asserts that two images agree field by field, or with \p Prefix, that
/// \p X starts with all of \p Y.
void expectSameImage(const exec::CodeImage &X, const exec::CodeImage &Y,
                     const std::string &What, bool Prefix = false) {
  SCOPED_TRACE(What);
  if (Prefix) {
    ASSERT_GE(X.numInsts(), Y.numInsts());
    ASSERT_GE(X.numBlocks(), Y.numBlocks());
    ASSERT_GE(X.numFuncs(), Y.numFuncs());
  } else {
    ASSERT_EQ(X.numInsts(), Y.numInsts());
    ASSERT_EQ(X.numBlocks(), Y.numBlocks());
    ASSERT_EQ(X.numFuncs(), Y.numFuncs());
  }
  for (exec::FlatPc Pc = 0; Pc < Y.numInsts(); ++Pc) {
    const exec::DecodedInst &A = X.inst(Pc), &B = Y.inst(Pc);
    EXPECT_TRUE(A.Op == B.Op && A.Flags == B.Flags && A.Dst == B.Dst &&
                A.A == B.A && A.B == B.B && A.Imm == B.Imm &&
                A.Imm2 == B.Imm2 && A.Pc == B.Pc)
        << "inst " << Pc;
    EXPECT_EQ(X.blockOrdinalOf(Pc), Y.blockOrdinalOf(Pc)) << "inst " << Pc;
  }
  for (std::uint32_t I = 0; I < Y.numBlocks(); ++I) {
    const exec::BlockDesc &A = X.blockDesc(I), &B = Y.blockDesc(I);
    EXPECT_TRUE(A.StartPc == B.StartPc && A.NumInsts == B.NumInsts &&
                A.Func == B.Func && A.BlockInFunc == B.BlockInFunc &&
                X.inst(A.StartPc + A.NumInsts - 1).Op ==
                    Y.inst(B.StartPc + B.NumInsts - 1).Op)
        << "block " << I;
  }
  for (std::uint32_t I = 0; I < Y.numFuncs(); ++I) {
    const exec::FuncDesc &A = X.func(I), &B = Y.func(I);
    EXPECT_TRUE(A.EntryPc == B.EntryPc && A.NumRegs == B.NumRegs &&
                A.NumParams == B.NumParams && A.FirstBlock == B.FirstBlock &&
                A.NumBlocks == B.NumBlocks)
        << "func " << I;
  }
}

/// The function the TLS engine would append for \p M: the globalized clone
/// of its first speculable loop, or a copy of the entry function when it
/// has none.
ir::Function extraFunction(const ir::Module &M) {
  analysis::ModuleAnalysis MA(M);
  for (const analysis::CandidateStl &C : MA.candidates()) {
    if (C.Rejected)
      continue;
    jit::TlsLoopPlan Plan = jit::buildTlsPlan(MA, C);
    std::vector<std::uint32_t> Spills(Plan.CarriedLocals.size());
    for (std::uint32_t K = 0; K < Spills.size(); ++K)
      Spills[K] = 1000 + K;
    return hydra::globalizeLoopBody(M.Functions[Plan.Func], Plan, Spills);
  }
  return M.Functions[M.EntryFunction];
}

void expectAppendMatchesRebuild(ir::Module M, const std::string &What) {
  M.finalize();
  ir::Module Whole = M;
  Whole.Functions.push_back(extraFunction(M));
  Whole.finalize();
  exec::CodeImage Appended(M);
  EXPECT_EQ(Appended.appendFunction(Whole.Functions.back()),
            M.Functions.size());
  expectSameImage(Appended, exec::CodeImage(Whole), What);
}

/// Two loops that carry no local across iterations, so their clones need
/// no spill words and globalizeLoopBody(F, Plan, {}) rebuilds exactly what
/// the TLS engine installs.
ir::Module twoSpillFreeLoops() {
  return makeMain(seq({
      assign("a", allocWords(c(64))),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              store(v("a"), v("i"), mul(v("i"), c(7)))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
}

} // namespace

TEST(CodeImage, AppendFunctionMatchesWholeModuleBuild) {
  for (const workloads::Workload &W : workloads::allWorkloads())
    expectAppendMatchesRebuild(W.Build(), W.Name);
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed)
    expectAppendMatchesRebuild(corpus::ProgramGenerator(Seed).generate(),
                               "seed " + std::to_string(Seed));
  expectAppendMatchesRebuild(makeCallProgram(), "call program");

  // The same layout when the TLS engine installs its clones into the
  // machine's image during a run: the module's own functions first, then
  // each clone as a whole-module build with it appended would lay it out.
  ir::Module M = twoSpillFreeLoops();
  analysis::ModuleAnalysis MA(M);
  std::vector<jit::TlsLoopPlan> Plans;
  for (const analysis::CandidateStl &C : MA.candidates())
    if (!C.Rejected)
      Plans.push_back(jit::buildTlsPlan(MA, C));
  ASSERT_EQ(Plans.size(), 2u);
  sim::HydraConfig Cfg;
  interp::Machine Machine(M, Cfg);
  hydra::TlsEngine Engine(M, Cfg, Plans);
  Machine.setDispatcher(&Engine);
  EXPECT_EQ(Machine.run().ReturnValue, runModule(M, Cfg).ReturnValue);
  const exec::CodeImage &Installed = Machine.image();
  ASSERT_EQ(Installed.numFuncs(), M.Functions.size() + Plans.size());
  expectSameImage(Installed, exec::CodeImage(M), "machine base", true);
  ir::Module Whole = M;
  for (std::size_t K = 0; K < Plans.size(); ++K) {
    ASSERT_TRUE(Plans[K].CarriedLocals.empty());
    Whole.Functions.push_back(
        hydra::globalizeLoopBody(M.Functions[Plans[K].Func], Plans[K], {}));
    Whole.finalize();
    expectSameImage(Installed, exec::CodeImage(Whole),
                    "installed clone " + std::to_string(K),
                    K + 1 < Plans.size());
  }
}

namespace {

/// A run() stop map flagging every block start of \p Image, or only those
/// whose flat PC is a multiple of \p Every.
std::vector<std::uint32_t> blockStartMap(const exec::CodeImage &Image,
                                         exec::FlatPc Every = 1) {
  std::vector<std::uint32_t> Map(Image.numInsts(), 0);
  for (exec::FlatPc Pc = 0; Pc < Image.numInsts(); ++Pc)
    Map[Pc] = Image.isBlockStart(Pc) && Pc % Every == 0;
  return Map;
}

/// Where a run() stopped: the flat PC, the clock, and the retired count.
struct RunStopPoint {
  exec::FlatPc Pc;
  std::uint64_t Clock;
  std::uint64_t Instructions;
  bool operator==(const RunStopPoint &) const = default;
};

} // namespace

TEST(ExecContext, StepGranularitiesAgreeOnRandomPrograms) {
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    corpus::ProgramGenerator Gen(Seed);
    ir::Module M = Gen.generate();
    sim::HydraConfig Cfg;
    interp::RunResult Machine = runModule(M, Cfg); // one unstopped run()
    exec::CodeImage Image(M);

    // Whole run under a cycle budget: resuming after a budget return must
    // not change any totals.
    interp::Heap HB;
    interp::DirectMemoryPort PortB(HB, Cfg);
    interp::ExecContext Budgeted(Image, Cfg);
    Budgeted.start(M.EntryFunction, {});
    std::uint64_t ClockB = Budgeted.run(PortB, nullptr, 0, Machine.Cycles / 2);
    if (!Budgeted.finished()) {
      EXPECT_TRUE(Budgeted.atBlockStart());
      EXPECT_GT(ClockB, Machine.Cycles / 2);
      ClockB += Budgeted.run(PortB, nullptr, ClockB, ~0ull);
    }
    EXPECT_TRUE(Budgeted.finished());
    EXPECT_EQ(ClockB, Machine.Cycles);
    EXPECT_EQ(Budgeted.instructionsExecuted(), Machine.Instructions);
    EXPECT_EQ(Budgeted.returnValue(), Machine.ReturnValue);

    // Runs stopped by a stop map and resumed at once: one flagging every
    // block start, one flagging a subset. Each stop lands on a flagged
    // block start, and the subset run stops at exactly the points of the
    // every-block run whose PC it flags.
    auto RunStopped = [&](const std::vector<std::uint32_t> &StopAt) {
      interp::Heap H;
      interp::DirectMemoryPort Port(H, Cfg);
      interp::ExecContext Ctx(Image, Cfg);
      Ctx.start(M.EntryFunction, {});
      std::uint64_t Clock = 0;
      std::vector<RunStopPoint> Stops;
      while (true) {
        Clock += Ctx.run(Port, nullptr, Clock, ~0ull, StopAt.data());
        if (Ctx.finished())
          break;
        EXPECT_TRUE(Ctx.atBlockStart());
        EXPECT_NE(StopAt[Ctx.pc()], 0u);
        Stops.push_back({Ctx.pc(), Clock, Ctx.instructionsExecuted()});
      }
      EXPECT_EQ(Clock, Machine.Cycles);
      EXPECT_EQ(Ctx.instructionsExecuted(), Machine.Instructions);
      EXPECT_EQ(Ctx.returnValue(), Machine.ReturnValue);
      return Stops;
    };
    std::vector<std::uint32_t> Every = blockStartMap(Image);
    std::vector<std::uint32_t> Some = blockStartMap(Image, 3);
    std::vector<RunStopPoint> AtEvery = RunStopped(Every);
    std::vector<RunStopPoint> Expected;
    for (const RunStopPoint &P : AtEvery)
      if (Some[P.Pc])
        Expected.push_back(P);
    EXPECT_FALSE(Expected.empty());
    EXPECT_LT(Expected.size(), AtEvery.size());
    EXPECT_TRUE(RunStopped(Some) == Expected);
  }
}

TEST(ExecContext, RunAheadAgreesWithSteppingOnRandomPrograms) {
  // Drive each program as the TLS engine drives a core: run ahead through
  // private instructions, execute each parked Load or Store against the
  // memory and retire() it, continue after boundary and budget stops. The
  // engine never meets an Alloc or leaves the outermost frame; here run()
  // executes those to the next block start. The clock and instruction
  // totals must match the machine's exactly.
  using RunStop = interp::ExecContext::RunStop;
  std::uint64_t Horizons = 0;
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed) {
    corpus::ProgramGenerator Gen(Seed);
    ir::Module M = Gen.generate();
    sim::HydraConfig Cfg;
    interp::RunResult Machine = runModule(M, Cfg);

    interp::Heap H;
    interp::DirectMemoryPort Port(H, Cfg);
    exec::CodeImage Image(M);
    interp::ExecContext Ctx(Image, Cfg);
    Ctx.start(M.EntryFunction, {});
    // Every block start of the entry function is a boundary.
    const exec::FuncDesc &F = Image.func(M.EntryFunction);
    interp::ExecContext::BoundaryMap Stops;
    exec::FlatPc Lo = ~exec::FlatPc(0), Hi = 0;
    for (std::uint32_t B = 0; B < F.NumBlocks; ++B) {
      const exec::BlockDesc &D = Image.blockDesc(F.FirstBlock + B);
      Lo = std::min(Lo, D.StartPc);
      Hi = std::max(Hi, D.StartPc + D.NumInsts);
    }
    Stops.Base = Lo;
    Stops.Flags.assign(Hi - Lo, 0);
    for (std::uint32_t B = 0; B < F.NumBlocks; ++B)
      Stops.Flags[Image.blockStart(M.EntryFunction, B) - Lo] = 1;
    std::vector<std::uint32_t> BlockStarts = blockStartMap(Image);

    std::uint64_t Clock = 0;
    std::uint64_t Stopped[3] = {0, 0, 0};
    while (!Ctx.finished()) {
      RunStop Why;
      Clock += Ctx.runAhead(/*Budget=*/7, Stops, Why);
      ++Stopped[static_cast<int>(Why)];
      if (Why == RunStop::Boundary) {
        ASSERT_TRUE(Ctx.atBlockStart());
        Clock += Cfg.Costs.Basic; // the branch itself
      }
      // The budget is tested only where a Br, CondBr or Call lands.
      if (Why == RunStop::Horizon) {
        ASSERT_TRUE(Ctx.atBlockStart()) << "seed " << Seed;
      }
      if (Why != RunStop::Shared)
        continue;
      const exec::DecodedInst &I = Image.inst(Ctx.pc());
      std::uint64_t *Regs = Ctx.topRegs().data();
      std::uint32_t Cost = Cfg.Costs.Basic;
      if (I.Op == ir::Opcode::Load) {
        Regs[I.Dst] = Port.load(exec::effectiveAddress(I, Regs), Cost);
      } else if (I.Op == ir::Opcode::Store) {
        Port.store(exec::effectiveAddress(I, Regs), Regs[I.Dst]);
      } else {
        ASSERT_TRUE(I.Op == ir::Opcode::Alloc || I.Op == ir::Opcode::Ret)
            << "seed " << Seed;
        Clock += Ctx.run(Port, nullptr, Clock, ~0ull, BlockStarts.data());
        continue;
      }
      Ctx.retire();
      Clock += Cost;
    }
    EXPECT_GT(Stopped[static_cast<int>(RunStop::Boundary)], 0u);
    Horizons += Stopped[static_cast<int>(RunStop::Horizon)];
    EXPECT_EQ(Clock, Machine.Cycles) << "seed " << Seed;
    EXPECT_EQ(Ctx.instructionsExecuted(), Machine.Instructions)
        << "seed " << Seed;
    EXPECT_EQ(Ctx.returnValue(), Machine.ReturnValue) << "seed " << Seed;
  }
  // Only branches in callees can hit the budget (every block start of the
  // entry function is a boundary); some seeds have them.
  EXPECT_GT(Horizons, 0u);
}

TEST(ExecContext, RunAheadParksBeforeZeroDivisor) {
  ir::Module M = makeMain(seq({
      assign("x", c(0)),
      assign("y", sdiv(c(7), v("x"))),
      ret(v("y")),
  }));
  M.finalize();
  sim::HydraConfig Cfg;
  exec::CodeImage Image(M);
  interp::ExecContext Ctx(Image, Cfg);
  Ctx.start(M.EntryFunction, {});
  interp::ExecContext::BoundaryMap None;
  None.Base = 0;
  None.Flags.assign(Ctx.image().numInsts(), 0);
  interp::ExecContext::RunStop Why;
  std::uint64_t Cycles = Ctx.runAhead(1000, None, Why);
  EXPECT_EQ(Why, interp::ExecContext::RunStop::Shared);
  const exec::DecodedInst &Div = Ctx.image().inst(Ctx.pc());
  EXPECT_EQ(Div.Op, ir::Opcode::Div);
  EXPECT_EQ(Cycles, Ctx.instructionsExecuted()); // one cycle each so far
  // The head's trap, raised the way the TLS engine raises it: the same
  // kind and PC a sequential run reports.
  try {
    Ctx.trap();
    FAIL() << "expected TrapError";
  } catch (const interp::TrapError &E) {
    EXPECT_EQ(E.kind(), interp::TrapKind::DivideByZero);
    EXPECT_EQ(E.pc(), Div.Pc);
  }
  try {
    interp::Machine(M, Cfg).run();
    FAIL() << "expected TrapError";
  } catch (const interp::TrapError &E) {
    EXPECT_EQ(E.kind(), interp::TrapKind::DivideByZero);
    EXPECT_EQ(E.pc(), Div.Pc);
  }
}

TEST(ExecContext, ResetAtPcAcceptsOversizedRegisterFile) {
  ir::Module M = makeMain(seq({
      assign("x", c(11)),
      assign("y", mul(v("x"), c(3))),
      ret(v("y")),
  }));
  M.finalize();
  sim::HydraConfig Cfg;
  std::uint64_t Expected = runModule(M, Cfg).ReturnValue;

  interp::Heap H;
  interp::DirectMemoryPort Port(H, Cfg);
  exec::CodeImage Image(M);
  interp::ExecContext Ctx(Image, Cfg);
  // Spawn-style entry, filled in place: the register file is deliberately
  // larger than the function needs (the TLS engine reuses one buffer per
  // core across clones whose register counts differ).
  std::size_t Oversized = M.Functions[M.EntryFunction].NumRegs + 16;
  std::vector<std::uint64_t> &Regs =
      Ctx.resetAtPc(Ctx.image().entry(M.EntryFunction));
  EXPECT_TRUE(Regs.empty()); // a fresh context has no previous activation
  Regs.assign(Oversized, 7);
  // A second reset (a respawn) hands back the same buffer with the
  // previous activation's values; the caller refills it.
  std::vector<std::uint64_t> &Again =
      Ctx.resetAtPc(Ctx.image().entry(M.EntryFunction));
  EXPECT_EQ(&Again, &Regs);
  EXPECT_EQ(Again.size(), Oversized);
  EXPECT_EQ(Again.back(), 7u);
  std::fill(Again.begin(), Again.end(), 0);
  EXPECT_EQ(Ctx.callDepth(), 1u);
  EXPECT_TRUE(Ctx.atBlockStart());
  Ctx.run(Port, nullptr, 0, ~0ull);
  EXPECT_TRUE(Ctx.finished());
  EXPECT_EQ(Ctx.returnValue(), Expected);
}

TEST(ExecContext, RepositionTopAdoptsLoopExitState) {
  // Mirrors the TLS shutdown path: one context runs the loop to its exit
  // and a second context, parked at the loop header, adopts the exit block
  // and register file via repositionTop and must finish identically.
  ir::Module M = makeMain(seq({
      assign("x", c(1)),
      forLoop("i", c(0), lt(v("i"), c(37)), 1,
              assign("x", band(add(mul(v("x"), c(33)), v("i")), c(0xFFFF)))),
      ret(v("x")),
  }));
  analysis::ModuleAnalysis MA(M);
  ASSERT_FALSE(MA.candidates().empty());
  jit::TlsLoopPlan Plan = jit::buildTlsPlan(MA, MA.candidates()[0]);

  sim::HydraConfig Cfg;
  interp::Heap H1;
  interp::DirectMemoryPort P1(H1, Cfg);
  exec::CodeImage Image(M);
  interp::ExecContext A(Image, Cfg);
  std::vector<std::uint32_t> BlockStarts = blockStartMap(A.image());
  A.start(M.EntryFunction, {});
  std::uint64_t C1 = 0;
  bool SeenLoop = false;
  std::uint32_t ExitBlock = ~0u;
  std::vector<std::uint64_t> ExitRegs;
  while (!A.finished()) {
    if (A.callDepth() == 1 && A.atBlockStart()) {
      std::uint32_t B = A.currentBlock();
      if (B == Plan.Header || Plan.containsBlock(B))
        SeenLoop = true;
      else if (SeenLoop && ExitBlock == ~0u) {
        ExitBlock = B;
        ExitRegs = A.topRegs();
      }
    }
    C1 += A.run(P1, nullptr, C1, ~0ull, BlockStarts.data());
  }
  ASSERT_NE(ExitBlock, ~0u) << "loop exit never reached";

  interp::Heap H2;
  interp::DirectMemoryPort P2(H2, Cfg);
  interp::ExecContext B(Image, Cfg);
  B.start(M.EntryFunction, {});
  std::uint64_t C2 = 0;
  while (!(B.atBlockStart() && B.currentBlock() == Plan.Header))
    C2 += B.run(P2, nullptr, C2, ~0ull, BlockStarts.data());
  B.repositionTop(ExitBlock, ExitRegs);
  EXPECT_TRUE(B.atBlockStart());
  EXPECT_EQ(B.currentBlock(), ExitBlock);
  while (!B.finished())
    C2 += B.run(P2, nullptr, C2, ~0ull, BlockStarts.data());
  EXPECT_EQ(B.returnValue(), A.returnValue());
}

TEST(Trap, DivideByZeroThrowsInAllBuildModes) {
  ir::Module M = makeMain(seq({
      assign("z", c(0)),
      ret(sdiv(c(7), v("z"))),
  }));
  sim::HydraConfig Cfg;
  interp::Machine Machine(M, Cfg);
  try {
    Machine.run();
    FAIL() << "expected TrapError";
  } catch (const interp::TrapError &E) {
    EXPECT_EQ(E.kind(), interp::TrapKind::DivideByZero);
    EXPECT_GE(E.pc(), 0);
    EXPECT_NE(std::string(E.what()).find("division by zero"),
              std::string::npos);
  }
}

TEST(Trap, RemainderByZeroThrows) {
  ir::Module M = makeMain(seq({
      assign("z", c(0)),
      ret(srem(c(9), v("z"))),
  }));
  sim::HydraConfig Cfg;
  interp::Machine Machine(M, Cfg);
  EXPECT_THROW(Machine.run(), interp::TrapError);
}

TEST(Trap, NonZeroDivisorDoesNotTrap) {
  EXPECT_EQ(testutil::evalMain(seq({
                assign("z", c(3)),
                ret(sdiv(c(9), v("z"))),
            })),
            3u);
  EXPECT_EQ(testutil::evalMain(seq({
                assign("z", c(4)),
                ret(srem(c(9), v("z"))),
            })),
            1u);
}
