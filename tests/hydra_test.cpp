//===- tests/hydra_test.cpp - TLS engine behavioural tests -----------------==//
//
// Builds small loops, recompiles them with buildTlsPlan/TlsEngine, and
// checks speculative execution against sequential ground truth: results,
// violations, forwarding, overflow stalls, reductions, inductors, and
// loop-exit state. A table-driven test pins the exact cycle count and every
// per-loop statistic of each program, so a scheduling change inside the
// engine cannot drift its simulated output unnoticed.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Candidates.h"
#include "hydra/TlsCodegen.h"
#include "hydra/SpecTags.h"
#include "hydra/TlsEngine.h"
#include "interp/Trap.h"
#include "jit/TlsPlan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <stdexcept>

using namespace jrpm;
using namespace jrpm::front;
using jrpm::testutil::makeMain;
using jrpm::testutil::runModule;

namespace {

/// Runs \p M speculatively with every non-rejected loop selected.
struct TlsRun {
  interp::RunResult Result;
  hydra::TlsLoopRunStats Totals;
};

/// A TLS plan for every non-rejected loop of \p M.
std::vector<jit::TlsLoopPlan> allLoopPlans(const ir::Module &M) {
  analysis::ModuleAnalysis MA(M);
  std::vector<jit::TlsLoopPlan> Plans;
  for (const auto &C : MA.candidates())
    if (!C.Rejected)
      Plans.push_back(jit::buildTlsPlan(MA, C));
  return Plans;
}

TlsRun runAllLoopsTls(const ir::Module &M,
                      sim::HydraConfig Cfg = sim::HydraConfig()) {
  hydra::TlsEngine Engine(M, Cfg, allLoopPlans(M));
  interp::Machine Machine(M, Cfg);
  Machine.setDispatcher(&Engine);
  TlsRun R;
  R.Result = Machine.run();
  R.Totals = Engine.totals();
  return R;
}

// --- Programs ---------------------------------------------------------------

/// Independent iterations, each a 20-step register hash of i.
ir::Module parallelLoop() {
  return makeMain(seq({
      assign("a", allocWords(c(256))),
      forLoop("i", c(0), lt(v("i"), c(256)), 1,
              seq({
                  assign("acc", v("i")),
                  forLoop("k", c(0), lt(v("k"), c(20)), 1,
                          assign("acc",
                                 band(add(mul(v("acc"), c(33)), c(7)),
                                      c(0xFFFFF)))),
                  store(v("a"), v("i"), v("acc")),
              })),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(256)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
}

/// a[i] = a[i-1] * 3 + 1: every iteration depends on the previous one.
ir::Module serialChain() {
  return makeMain(seq({
      assign("a", allocWords(c(128))),
      store(v("a"), c(0), c(1)),
      forLoop("i", c(1), lt(v("i"), c(128)), 1,
              store(v("a"), v("i"),
                    add(mul(ld(v("a"), sub(v("i"), c(1))), c(3)), c(1)))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              assign("s", bxor(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
}

ir::Module intReduction() {
  return makeMain(seq({
      assign("a", allocWords(c(512))),
      forLoop("i", c(0), lt(v("i"), c(512)), 1,
              store(v("a"), v("i"), mul(v("i"), c(7)))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(512)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
}

ir::Module floatReduction() {
  return makeMain(seq({
      assign("a", allocWords(c(128))),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              store(v("a"), v("i"),
                    fdiv(cf(1.0), itof(add(v("i"), c(1)))))),
      assign("s", cf(0.0)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              assign("s", fadd(v("s"), ld(v("a"), v("i"))))),
      ret(ftoi(fmul(v("s"), cf(1e9)))),
  }));
}

/// The loop's return value depends on the inductor's final value.
ir::Module inductorFinalValue() {
  return makeMain(seq({
      assign("i", c(0)),
      assign("s", c(0)),
      whileLoop(lt(v("i"), c(77)),
                seq({
                    assign("s", add(v("s"), c(2))),
                    assign("i", add(v("i"), c(3))),
                })),
      ret(add(mul(v("i"), c(1000)), v("s"))),
  }));
}

ir::Module zeroIterationLoop() {
  return makeMain(seq({
      assign("n", c(0)),
      assign("s", c(5)),
      forLoop("i", c(0), lt(v("i"), v("n")), 1,
              assign("s", add(v("s"), c(100)))),
      ret(v("s")),
  }));
}

/// A search loop that breaks as soon as it finds its key.
ir::Module breakExit() {
  return makeMain(seq({
      assign("a", allocWords(c(128))),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              store(v("a"), v("i"), srem(mul(v("i"), c(29)), c(97)))),
      assign("found", c(-1)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              iff(eq(ld(v("a"), v("i")), c(42)),
                  seq({assign("found", v("i")), brk()}))),
      ret(v("found")),
  }));
}

/// Each iteration stores 64 words (16 lines).
ir::Module wideStores() {
  return makeMain(seq({
      assign("a", allocWords(c(64 * 40))),
      forLoop("i", c(0), lt(v("i"), c(40)), 1,
              forLoop("k", c(0), lt(v("k"), c(64)), 1,
                      store(v("a"), add(mul(v("i"), c(64)), v("k")),
                            add(v("i"), v("k"))))),
      ret(ld(v("a"), c(64 * 39 + 63))),
  }));
}

/// Each iteration loads 64 words (16 lines).
ir::Module wideLoads() {
  return makeMain(seq({
      assign("a", allocWords(c(64 * 24))),
      assign("b", allocWords(c(24))),
      forLoop("j", c(0), lt(v("j"), c(64 * 24)), 1,
              store(v("a"), v("j"), band(mul(v("j"), c(13)), c(255)))),
      forLoop("i", c(0), lt(v("i"), c(24)), 1,
              seq({
                  assign("t", c(0)),
                  forLoop("k", c(0), lt(v("k"), c(64)), 1,
                          assign("t", add(v("t"),
                                          ld(v("a"), add(mul(v("i"), c(64)),
                                                         v("k")))))),
                  store(v("b"), v("i"), v("t")),
              })),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(24)), 1,
              assign("s", add(mul(v("s"), c(3)), ld(v("b"), v("i"))))),
      ret(v("s")),
  }));
}

/// Iteration i reads the slot written by iteration i-1 *early* in the body
/// and writes its own slot immediately: short arcs, so forwarding (not
/// violation) should dominate.
ir::Module forwardingChain() {
  return makeMain(seq({
      assign("a", allocWords(c(300))),
      store(v("a"), c(0), c(7)),
      forLoop(
          "i", c(1), lt(v("i"), c(256)), 1,
          seq({
              assign("prev", ld(v("a"), sub(v("i"), c(1)))),
              store(v("a"), v("i"), add(v("prev"), c(1))),
              // Trailing independent work keeps the arc short relative to
              // the thread size.
              assign("w", v("i")),
              forLoop("k", c(0), lt(v("k"), c(12)), 1,
                      assign("w", band(add(mul(v("w"), c(33)), c(7)),
                                       c(0xFFFFF)))),
              store(v("a"), v("i"), 32, v("w")),
          })),
      ret(add(ld(v("a"), c(255)), ld(v("a"), c(100 + 32)))),
  }));
}

/// Neighbouring iterations touch different words of the same line.
ir::Module falseSharing() {
  return makeMain(seq({
      assign("a", allocWords(c(256))),
      store(v("a"), c(0), c(3)),
      forLoop("i", c(1), lt(v("i"), c(256)), 1,
              store(v("a"), v("i"), add(v("i"), ld(v("a"), c(0))))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(256)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
}

ir::Module nestedCall() {
  ProgramDef P;
  FuncDef Work;
  Work.Name = "work";
  Work.Params = {"x"};
  Work.Body = seq({
      assign("r", v("x")),
      forLoop("k", c(0), lt(v("k"), c(8)), 1,
              assign("r", band(add(mul(v("r"), c(31)), c(11)), c(0xFFFF)))),
      ret(v("r")),
  });
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({
      assign("a", allocWords(c(64))),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              store(v("a"), v("i"), call("work", {v("i")}))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  });
  P.Functions.push_back(std::move(Work));
  P.Functions.push_back(std::move(Main));
  return front::lowerProgram(P);
}

/// The loop body calls a helper with an if/else, an inner loop, and two
/// returns, so a thread crosses several callee blocks per iteration.
ir::Module multiBlockCallee() {
  ProgramDef P;
  FuncDef Mix;
  Mix.Name = "mix";
  Mix.Params = {"x"};
  Mix.Body = seq({
      assign("r", v("x")),
      iffElse(eq(srem(v("x"), c(3)), c(0)),
              assign("r", add(mul(v("r"), c(7)), c(1))),
              forLoop("k", c(0), lt(v("k"), c(4)), 1,
                      assign("r", band(add(mul(v("r"), c(31)), v("k")),
                                       c(0xFFFF))))),
      iff(gt(v("r"), c(5000)), ret(sub(v("r"), c(5000)))),
      ret(add(v("r"), c(1))),
  });
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({
      assign("a", allocWords(c(96))),
      forLoop("i", c(0), lt(v("i"), c(96)), 1,
              store(v("a"), v("i"), call("mix", {v("i")}))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(96)), 1,
              assign("s", bxor(mul(v("s"), c(5)), ld(v("a"), v("i"))))),
      ret(v("s")),
  });
  P.Functions.push_back(std::move(Mix));
  P.Functions.push_back(std::move(Main));
  return front::lowerProgram(P);
}

/// Breaks out between two stores of the same iteration, after the first.
ir::Module midIterationBreak() {
  return makeMain(seq({
      assign("a", allocWords(c(128))),
      assign("b", allocWords(c(128))),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              store(v("a"), v("i"), srem(mul(v("i"), c(29)), c(97)))),
      assign("found", c(-1)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              seq({
                  store(v("b"), v("i"), mul(ld(v("a"), v("i")), c(2))),
                  iff(band(eq(ld(v("a"), v("i")), c(42)), gt(v("i"), c(20))),
                      seq({assign("found", v("i")), brk()})),
                  assign("w", v("i")),
                  forLoop("k", c(0), lt(v("k"), c(6)), 1,
                          assign("w", band(add(mul(v("w"), c(17)), c(3)),
                                           c(0xFFFF)))),
                  store(v("b"), v("i"), add(ld(v("b"), v("i")), v("w"))),
              })),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              assign("s", add(v("s"), ld(v("b"), v("i"))))),
      ret(add(mul(v("found"), c(1000000)), v("s"))),
  }));
}

/// A thread that reads a stale a[i] spins in registers (k stays even, the
/// stale value is odd) until the previous iteration's store squashes it.
ir::Module registerSpin() {
  return makeMain(seq({
      assign("a", allocWords(c(16))),
      forLoop("j", c(0), lt(v("j"), c(16)), 1, store(v("a"), v("j"), c(1))),
      store(v("a"), c(0), c(2000)),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(12)), 1,
              seq({
                  assign("want", ld(v("a"), v("i"))),
                  assign("k", c(0)),
                  whileLoop(ne(v("k"), v("want")),
                            assign("k", add(v("k"), c(2)))),
                  store(v("a"), add(v("i"), c(1)),
                        add(mul(v("i"), c(2)), c(2002))),
                  assign("s", add(v("s"), v("k"))),
              })),
      ret(v("s")),
  }));
}

ir::Module repeatedInvocations() {
  return makeMain(seq({
      assign("a", allocWords(c(32))),
      assign("total", c(0)),
      forLoop("round", c(0), lt(v("round"), c(5)), 1,
              seq({
                  // Inner loop re-entered every round. The outer loop is
                  // rejected for selection here by nesting (both get
                  // selected in runAllLoopsTls, exercising nested-STL
                  // suppression inside the engine).
                  forLoop("i", c(0), lt(v("i"), c(32)), 1,
                          store(v("a"), v("i"),
                                add(v("round"), mul(v("i"), c(3))))),
                  assign("total", add(v("total"), ld(v("a"), c(31)))),
              })),
      ret(v("total")),
  }));
}

/// x = f(x) at the top of the body followed by heavy independent work.
ir::Module carriedChain() {
  return makeMain(seq({
      assign("a", allocWords(c(160))),
      assign("x", c(7)),
      forLoop("i", c(0), lt(v("i"), c(150)), 1,
              seq({
                  assign("x",
                         band(add(mul(v("x"), c(33)), c(11)), c(0xFFFF))),
                  assign("w", add(v("x"), v("i"))),
                  forLoop("k", c(0), lt(v("k"), c(15)), 1,
                          assign("w", band(add(mul(v("w"), c(17)), c(5)),
                                           c(0xFFFFF)))),
                  store(v("a"), v("i"), v("w")),
              })),
      assign("s", v("x")),
      forLoop("i", c(0), lt(v("i"), c(150)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
}

/// A carried local and no loop invariant, so a restart costs no invariant
/// reload either.
ir::Module carriedLocalOnly() {
  return makeMain(seq({
      assign("x", c(7)),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(120)), 1,
              seq({
                  assign("x",
                         band(add(mul(v("x"), c(33)), c(11)), c(0xFFFF))),
                  assign("w", add(v("x"), v("i"))),
                  forLoop("k", c(0), lt(v("k"), c(3)), 1,
                          assign("w", band(add(mul(v("w"), c(17)), c(5)),
                                           c(0xFFFFF)))),
                  assign("s", add(v("s"), v("w"))),
              })),
      ret(add(v("s"), v("x"))),
  }));
}

/// Break-exit plus a carried local.
ir::Module carriedBreak() {
  return makeMain(seq({
      assign("a", allocWords(c(128))),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              store(v("a"), v("i"), srem(mul(v("i"), c(41)), c(113)))),
      assign("x", c(0)),
      assign("found", c(-1)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              seq({
                  assign("x", add(v("x"), ld(v("a"), v("i")))),
                  iff(gt(v("x"), c(2500)),
                      seq({assign("found", v("i")), brk()})),
              })),
      ret(add(v("found"), mul(v("x"), c(1000)))),
  }));
}

/// A selected STL that lives in a helper function called twice.
ir::Module loopInCallee() {
  ProgramDef P;
  FuncDef Fill;
  Fill.Name = "fill";
  Fill.Params = {"a", "n", "bias"};
  Fill.Body = seq({
      forLoop("i", c(0), lt(v("i"), v("n")), 1,
              seq({
                  assign("w", add(v("i"), v("bias"))),
                  forLoop("k", c(0), lt(v("k"), c(10)), 1,
                          assign("w", band(add(mul(v("w"), c(29)), c(3)),
                                           c(0xFFFFF)))),
                  store(v("a"), v("i"), v("w")),
              })),
      ret(),
  });
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({
      assign("a", allocWords(c(128))),
      exprStmt(call("fill", {v("a"), c(128), c(7)})),
      exprStmt(call("fill", {v("a"), c(64), c(11)})),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  });
  P.Functions.push_back(std::move(Fill));
  P.Functions.push_back(std::move(Main));
  return front::lowerProgram(P);
}

/// s += 100 / a[i] where iteration i stores the divisor a[i+1] read by the
/// next iteration, and a[Zero] = 0 makes iteration Zero really divide by
/// zero (Zero < 0: never).
ir::Module divideByNextSlot(std::int64_t Zero) {
  return makeMain(seq({
      assign("a", allocWords(c(65))),
      store(v("a"), c(0), c(1)),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              seq({
                  assign("s", add(v("s"), sdiv(c(100), ld(v("a"), v("i"))))),
                  store(v("a"), add(v("i"), c(1)), ne(v("i"), c(Zero))),
              })),
      ret(v("s")),
  }));
}

/// s += a[p[i]]; p[i+1] = i over n = 64, with p[1..n] starting at 2^30:
/// iteration i+1 reads p[i+1] before iteration i stores it, so a
/// speculative thread indexes a far outside the heap.
ir::Module staleIndexGather() {
  return makeMain(seq({
      assign("p", allocWords(c(65))),
      assign("a", allocWords(c(64))),
      store(v("p"), c(0), c(0)),
      forLoop("i", c(1), lt(v("i"), c(65)), 1,
              store(v("p"), v("i"), c(1 << 30))),
      forLoop("k", c(0), lt(v("k"), c(64)), 1, store(v("a"), v("k"), v("k"))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              seq({
                  assign("s", add(v("s"), ld(v("a"), ld(v("p"), v("i"))))),
                  store(v("p"), add(v("i"), c(1)), v("i")),
              })),
      ret(v("s")),
  }));
}

/// Two selected loops in two helpers, run in the order A, B, A: the second
/// run of A starts after B's clone has been appended to the engine image.
/// B carries a local, so its spill word is allocated between A's runs.
ir::Module twoLoopsABA() {
  ProgramDef P;
  FuncDef Fill; // loop A
  Fill.Name = "fill";
  Fill.Params = {"a", "n", "bias"};
  Fill.Body = seq({
      forLoop("i", c(0), lt(v("i"), v("n")), 1,
              store(v("a"), v("i"),
                    band(add(mul(v("i"), v("bias")), c(3)), c(0xFFFF)))),
      ret(),
  });
  FuncDef Mix; // loop B
  Mix.Name = "mix";
  Mix.Params = {"a", "b", "n"};
  Mix.Body = seq({
      assign("x", c(5)),
      forLoop("i", c(0), lt(v("i"), v("n")), 1,
              seq({
                  assign("x", band(add(mul(v("x"), c(3)), c(1)), c(0xFF))),
                  store(v("b"), v("i"), add(ld(v("a"), v("i")), v("x"))),
              })),
      ret(v("x")),
  });
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({
      assign("a", allocWords(c(64))),
      assign("b", allocWords(c(64))),
      exprStmt(call("fill", {v("a"), c(64), c(7)})),
      assign("t", call("mix", {v("a"), v("b"), c(64)})),
      exprStmt(call("fill", {v("a"), c(48), c(11)})),
      ret(add(add(v("t"), ld(v("a"), c(47))),
              add(ld(v("a"), c(63)), ld(v("b"), c(63))))),
  });
  P.Functions.push_back(std::move(Fill));
  P.Functions.push_back(std::move(Mix));
  P.Functions.push_back(std::move(Main));
  return front::lowerProgram(P);
}

// --- Configurations ---------------------------------------------------------

sim::HydraConfig hydraDefault() { return sim::HydraConfig(); }

sim::HydraConfig tinyStoreBuffer() {
  sim::HydraConfig Cfg;
  Cfg.SpecStoreLines = 4; // 16 words
  return Cfg;
}

sim::HydraConfig tinyLoadBuffer() {
  sim::HydraConfig Cfg;
  Cfg.SpecLoadLines = 4;
  return Cfg;
}

sim::HydraConfig lineGrain() {
  sim::HydraConfig Cfg;
  Cfg.ViolationGrain = sim::ViolationGranularity::Line;
  return Cfg;
}

sim::HydraConfig syncLocals() {
  sim::HydraConfig Cfg;
  Cfg.SyncCarriedLocals = true;
  return Cfg;
}

/// A restarted thread may issue in the very cycle of its squash.
sim::HydraConfig instantRestart() {
  sim::HydraConfig Cfg;
  Cfg.ViolationRestartCycles = 0;
  Cfg.EndOfIterationCycles = 0;
  return Cfg;
}

/// Zero-cost plain instructions: each still occupies its core one cycle.
sim::HydraConfig zeroCostBasic() {
  sim::HydraConfig Cfg;
  Cfg.Costs.Basic = 0;
  return Cfg;
}

/// Every TlsLoopRunStats field, in declaration order.
std::array<std::uint64_t, 16> statFields(const hydra::TlsLoopRunStats &S) {
  return {S.Invocations,      S.CommittedThreads,
          S.Violations,       S.Restarts,
          S.OverflowStalls,   S.SyncStalls,
          S.SpecCycles,       S.ThreadsStarted,
          S.ThreadsExited,    S.ThreadsDiscarded,
          S.UsefulCycles,     S.ForkCommitCycles,
          S.ViolationDiscardCycles, S.BufferStallCycles,
          S.SyncStallCycles,  S.IdleCycles};
}

} // namespace

TEST(TlsCodegen, GlobalizesCarriedLocal) {
  ir::Module M = makeMain(seq({
      assign("x", c(1)),
      assign("n", c(10)),
      forLoop("i", c(0), lt(v("i"), v("n")), 1,
              assign("x", add(mul(v("x"), c(2)), v("i")))),
      ret(v("x")),
  }));
  analysis::ModuleAnalysis MA(M);
  ASSERT_EQ(MA.candidates().size(), 1u);
  jit::TlsLoopPlan Plan = jit::buildTlsPlan(MA, MA.candidates()[0]);
  ASSERT_EQ(Plan.CarriedLocals.size(), 1u);
  ASSERT_EQ(Plan.Inductors.size(), 1u);

  std::vector<std::uint32_t> Spill = {1000};
  ir::Function G =
      hydra::globalizeLoopBody(M.Functions[0], Plan, Spill);
  // Same block structure, extra load/store instructions at the spill
  // address inside loop blocks.
  EXPECT_EQ(G.Blocks.size(), M.Functions[0].Blocks.size());
  std::uint64_t SpillLoads = 0, SpillStores = 0;
  for (const auto &BB : G.Blocks)
    for (const auto &I : BB.Instructions) {
      if (I.Op == ir::Opcode::Load && I.Imm == 1000 && I.A == ir::NoReg)
        ++SpillLoads;
      if (I.Op == ir::Opcode::Store && I.Imm == 1000 && I.A == ir::NoReg)
        ++SpillStores;
    }
  EXPECT_GE(SpillLoads, 1u);
  EXPECT_GE(SpillStores, 1u);
}

TEST(SpecTagTable, MatchesReferenceMapUnderRandomTraffic) {
  // A narrow key range forces long probe runs, wraparound and
  // backward-shift deletions; the wide phase forces several rehashes.
  struct Ref {
    std::uint32_t Read = 0, Written = 0;
    std::uint64_t Values[4] = {0, 0, 0, 0};
  };
  hydra::SpecTagTable Table(4);
  std::map<std::uint32_t, Ref> Model;
  std::mt19937 Rng(42);
  for (int Step = 0; Step < 60000; ++Step) {
    std::uint32_t Range = Step < 30000 ? 64 : 5000;
    std::uint32_t Key = Rng() % Range * 4; // word addresses of one column
    std::uint32_t Core = Rng() % 4;
    std::uint32_t Bit = 1u << Core;
    switch (Rng() % 4) {
    case 0: { // read tag
      hydra::SpecTagTable::Entry &E = Table.insert(Key);
      E.Read |= Bit;
      Model[Key].Read |= Bit;
      break;
    }
    case 1: { // buffered store
      std::uint64_t V = Rng();
      Table.write(Table.insert(Key), Core) = V;
      Model[Key].Written |= Bit;
      Model[Key].Values[Core] = V;
      break;
    }
    default: { // drop some of one core's bits
      bool R = Rng() & 1, W = Rng() & 1;
      Table.clear(Key, R ? Bit : 0, W ? Bit : 0);
      auto It = Model.find(Key);
      if (It != Model.end()) {
        It->second.Read &= R ? ~Bit : ~0u;
        It->second.Written &= W ? ~Bit : ~0u;
        if (!(It->second.Read | It->second.Written))
          Model.erase(It);
      }
      break;
    }
    }
    ASSERT_EQ(Table.size(), Model.size()) << "step " << Step;
    if (Step % 97 != 0)
      continue;
    for (std::uint32_t K = 0; K < Range * 4; K += 4) {
      const hydra::SpecTagTable::Entry *E = Table.find(K);
      auto It = Model.find(K);
      ASSERT_EQ(E != nullptr, It != Model.end()) << "key " << K;
      if (!E)
        continue;
      ASSERT_EQ(E->Read, It->second.Read) << "key " << K;
      ASSERT_EQ(E->Written, It->second.Written) << "key " << K;
      for (std::uint32_t C = 0; C < 4; ++C) {
        if (E->Written >> C & 1) {
          ASSERT_EQ(Table.value(*E, C), It->second.Values[C]) << "key " << K;
        }
      }
    }
  }
}

TEST(TlsEngine, ParallelLoopSpeedsUpAndMatches) {
  ir::Module M = parallelLoop();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_LT(Tls.Result.Cycles, Seq.Cycles); // real speedup
  EXPECT_GT(Tls.Totals.CommittedThreads, 250u);
}

TEST(TlsEngine, SerialChainStaysCorrectDespiteViolations) {
  ir::Module M = serialChain();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_GT(Tls.Totals.Violations, 0u); // speculation kept failing
}

TEST(TlsEngine, IntReductionExact) {
  ir::Module M = intReduction();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, FloatReductionExactForSingleAddPerIteration) {
  ir::Module M = floatReduction();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  // Single-iteration threads commit in order, so even the float bits match.
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, InductorFinalValueCorrect) {
  ir::Module M = inductorFinalValue();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, ZeroIterationLoop) {
  ir::Module M = zeroIterationLoop();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_EQ(Tls.Result.ReturnValue, 5u);
}

TEST(TlsEngine, BreakExitAdoptsCorrectState) {
  ir::Module M = breakExit();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, StoreBufferOverflowStallsButStaysCorrect) {
  sim::HydraConfig Cfg = tinyStoreBuffer();
  ir::Module M = wideStores();
  auto Seq = runModule(M, Cfg);
  auto Tls = runAllLoopsTls(M, Cfg);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_GT(Tls.Totals.OverflowStalls, 0u);
}

TEST(TlsEngine, ForwardingDeliversEarlierThreadsStores) {
  ir::Module M = forwardingChain();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, WordVsLineGranularity) {
  // Word granularity sees no violations, line granularity sees many —
  // results stay identical either way (the ablation of Section 5.3's note).
  ir::Module M1 = falseSharing();
  ir::Module M2 = falseSharing();
  auto RWord = runAllLoopsTls(M1, hydraDefault());
  auto RLine = runAllLoopsTls(M2, lineGrain());
  EXPECT_EQ(RWord.Result.ReturnValue, RLine.Result.ReturnValue);
  EXPECT_GE(RLine.Totals.Violations, RWord.Totals.Violations);
}

TEST(TlsEngine, NestedCallInsideThreadWorks) {
  ir::Module M = nestedCall();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, MultipleInvocationsOfSameLoop) {
  ir::Module M = repeatedInvocations();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, LoopReinvokedAfterAnotherCloneIsAppended) {
  ir::Module M = twoLoopsABA();
  for (sim::HydraConfig Cfg : {hydraDefault(), syncLocals()}) {
    auto Seq = runModule(M, Cfg);
    auto Tls = runAllLoopsTls(M, Cfg);
    EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
    EXPECT_EQ(Tls.Totals.Invocations, 3u);
  }
}

TEST(TlsEngine, SyncLocksReduceRestartsOnCarriedChain) {
  // With plain restarts the consumer speculates through x and restarts;
  // with Section 3.2's synchronization locks it waits for the producer's
  // store instead. Results must be identical; restarts must drop.
  ir::Module M1 = carriedChain();
  ir::Module M2 = carriedChain();
  auto Seq = runModule(M1);
  auto RRestart = runAllLoopsTls(M1, hydraDefault());
  auto RSync = runAllLoopsTls(M2, syncLocals());
  EXPECT_EQ(RRestart.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_EQ(RSync.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_GT(RSync.Totals.SyncStalls, 0u);
  EXPECT_LT(RSync.Totals.Restarts, RRestart.Totals.Restarts);
}

TEST(TlsEngine, SyncModeWholeSuiteStyleLoopStillCorrect) {
  // The waiter chain must unwind when the producing thread exits the loop
  // speculatively.
  ir::Module M = carriedBreak();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M, syncLocals());
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, SelectedLoopInsideCalleeDispatches) {
  // A selected STL that lives in a helper function must be taken over by
  // the engine when the sequential machine reaches it at call depth > 1.
  ir::Module M = loopInCallee();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  // The callee's loop ran speculatively on both invocations.
  EXPECT_GT(Tls.Totals.Invocations, 2u);
  EXPECT_GT(Tls.Totals.CommittedThreads, 150u);
  EXPECT_LT(Tls.Result.Cycles, Seq.Cycles);
}

TEST(TlsEngine, LoadBufferOverflowStallsButStaysCorrect) {
  sim::HydraConfig Cfg = tinyLoadBuffer();
  ir::Module M = wideLoads();
  auto Seq = runModule(M, Cfg);
  auto Tls = runAllLoopsTls(M, Cfg);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_GT(Tls.Totals.OverflowStalls, 0u);
}

TEST(TlsEngine, RegisterSpinUntilSquashedStaysCorrect) {
  ir::Module M = registerSpin();
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_GT(Tls.Totals.Violations, 0u);
}

TEST(TlsEngine, MachineRejectsAnotherModulesStopMap) {
  ir::Module Engine = parallelLoop(), Run = serialChain();
  hydra::TlsEngine Tls(Engine, sim::HydraConfig(), {});
  interp::Machine Machine(Run, sim::HydraConfig());
  Machine.setDispatcher(&Tls);
  EXPECT_THROW(Machine.run(), std::invalid_argument);
  // A copy of the engine's module has the same instruction count, and so a
  // stop map of the right size, but it is still another module.
  ir::Module Copy = Engine;
  interp::Machine SameSize(Copy, sim::HydraConfig());
  SameSize.setDispatcher(&Tls);
  EXPECT_THROW(SameSize.run(), std::invalid_argument);
}

TEST(TlsEngine, RebindsToEachMachineItRuns) {
  // One engine driving two machines of its module in turn: each machine's
  // image gets its own clones, its carried locals spill to its own heap,
  // and the cores' L1s start cold, so both runs match a fresh engine's.
  ir::Module M = carriedChain();
  std::vector<jit::TlsLoopPlan> Plans = allLoopPlans(M);
  ASSERT_TRUE(std::any_of(Plans.begin(), Plans.end(), [](const auto &P) {
    return !P.CarriedLocals.empty();
  }));
  TlsRun Fresh = runAllLoopsTls(M);
  hydra::TlsEngine Tls(M, sim::HydraConfig(), std::move(Plans));
  for (int Run = 0; Run < 2; ++Run) {
    SCOPED_TRACE("run " + std::to_string(Run));
    interp::Machine Machine(M, sim::HydraConfig());
    Machine.setDispatcher(&Tls);
    interp::RunResult R = Machine.run();
    EXPECT_EQ(R.Cycles, Fresh.Result.Cycles);
    EXPECT_EQ(R.ReturnValue, Fresh.Result.ReturnValue);
    EXPECT_GT(Machine.image().numFuncs(), M.Functions.size());
  }
}

TEST(TlsEngine, MisspeculatedDivideByZeroDoesNotTrap) {
  // Iteration i+1 reads a[i+1] (still 0) before iteration i stores it: the
  // speculative division by zero must be dropped by the squash, not thrown.
  ir::Module M = divideByNextSlot(-1);
  auto Seq = runModule(M);
  EXPECT_EQ(Seq.ReturnValue, 6400u);
  TlsRun Tls;
  ASSERT_NO_THROW(Tls = runAllLoopsTls(M));
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_GT(Tls.Totals.Violations, 0u);
}

TEST(TlsEngine, MisspeculatedOutOfBoundsLoadIsSquashed) {
  // A thread that read a stale p[i] loads a[2^30]; the load must read a
  // placeholder and the squash drop it, not abort the process.
  ir::Module M = staleIndexGather();
  auto Seq = runModule(M);
  EXPECT_EQ(Seq.ReturnValue, 1953u);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_GT(Tls.Totals.Violations, 0u);
}

TEST(TlsEngine, RealDivideByZeroStillTraps) {
  // Iteration 10 divides by a zero that sequential execution also sees.
  ir::Module M = divideByNextSlot(9);
  EXPECT_THROW(runModule(M), interp::TrapError);
  EXPECT_THROW(runAllLoopsTls(M), interp::TrapError);
}

TEST(TlsEngine, PinnedCyclesAndStats) {
  // Simulated output recorded from the lockstep engine (one scheduler pass
  // and one instruction per core per cycle). Any engine restructuring must
  // reproduce these numbers exactly. Fields of Stats follow
  // TlsLoopRunStats' declaration order.
  struct Case {
    const char *Name;
    ir::Module (*Build)();
    sim::HydraConfig (*Config)();
    std::uint64_t Cycles;
    std::array<std::uint64_t, 16> Stats;
  };
  const Case Cases[] = {
      {"parallelLoop", parallelLoop, hydraDefault, 16435,
       {2, 512, 0, 0, 0, 0, 16426, 520, 2, 6, 62726, 2960, 18, 0, 0, 0}},
      {"serialChain", serialChain, hydraDefault, 3430,
       {2, 255, 346, 914, 0, 0, 3418, 1175, 2, 4, 2834, 6219, 4619, 0, 0, 0}},
      {"intReduction", intReduction, hydraDefault, 4083,
       {2, 1024, 0, 0, 0, 0, 4074, 1032, 2, 6, 10758, 5520, 18, 0, 0, 0}},
      {"floatReduction", floatReduction, hydraDefault, 1462,
       {2, 256, 0, 0, 0, 0, 1450, 264, 2, 6, 4102, 1680, 18, 0, 0, 0}},
      {"inductorFinalValue", inductorFinalValue, hydraDefault, 130,
       {1, 26, 0, 0, 0, 0, 122, 28, 1, 1, 162, 320, 6, 0, 0, 0}},
      {"zeroIterationLoop", zeroIterationLoop, hydraDefault, 58,
       {1, 0, 0, 0, 0, 0, 52, 4, 1, 3, 2, 200, 6, 0, 0, 0}},
      {"breakExit", breakExit, hydraDefault, 1168,
       {2, 193, 0, 0, 0, 0, 1157, 200, 2, 5, 3231, 1360, 37, 0, 0, 0}},
      {"wideStores/store-lines=4", wideStores, tinyStoreBuffer, 21291,
       {1, 40, 0, 0, 39, 0, 21279, 41, 1, 0, 30134, 385, 0, 53019, 0, 1578}},
      {"wideLoads/load-lines=4", wideLoads, tinyLoadBuffer, 20589,
       {3, 1584, 28, 79, 23, 0, 20576, 1671, 3, 5, 37547, 8914, 540, 33587, 0, 1716}},
      {"forwardingChain", forwardingChain, hydraDefault, 10601,
       {1, 255, 4, 7, 0, 0, 10579, 263, 1, 0, 40676, 1502, 72, 0, 0, 66}},
      {"falseSharing", falseSharing, hydraDefault, 2158,
       {2, 511, 0, 0, 0, 0, 2146, 516, 2, 3, 5635, 2940, 9, 0, 0, 0}},
      {"falseSharing/line-grain", falseSharing, lineGrain, 2187,
       {2, 511, 3, 9, 0, 0, 2175, 528, 2, 6, 5616, 3009, 75, 0, 0, 0}},
      {"nestedCall", nestedCall, hydraDefault, 2179,
       {2, 128, 0, 0, 0, 0, 2170, 136, 2, 6, 7622, 1040, 18, 0, 0, 0}},
      {"multiBlockCallee", multiBlockCallee, hydraDefault, 3324,
       {2, 192, 118, 331, 0, 0, 3315, 528, 2, 3, 8036, 3055, 2123, 0, 0, 46}},
      {"midIterationBreak", midIterationBreak, hydraDefault, 3167,
       {3, 321, 0, 0, 0, 0, 3148, 332, 3, 8, 10182, 2200, 210, 0, 0, 0}},
      {"registerSpin", registerSpin, hydraDefault, 48650,
       {2, 28, 11, 33, 0, 0, 48638, 68, 2, 5, 52664, 733, 141155, 0, 0, 0}},
      {"repeatedInvocations", repeatedInvocations, hydraDefault, 730,
       {1, 5, 0, 0, 0, 0, 723, 8, 1, 2, 2004, 220, 668, 0, 0, 0}},
      {"carriedChain", carriedChain, hydraDefault, 8365,
       {2, 300, 3, 6, 0, 0, 8355, 309, 2, 1, 31226, 1911, 108, 0, 0, 175}},
      {"carriedChain/sync", carriedChain, syncLocals, 8356,
       {2, 300, 0, 0, 0, 3, 8346, 303, 2, 1, 31235, 1875, 12, 0, 78, 184}},
      {"carriedBreak/sync", carriedBreak, syncLocals, 1431,
       {2, 171, 0, 0, 0, 45, 1416, 179, 2, 6, 3486, 1255, 33, 0, 890, 0}},
      {"loopInCallee", loopInCallee, hydraDefault, 6828,
       {3, 320, 0, 0, 0, 0, 6797, 332, 3, 9, 24967, 2200, 21, 0, 0, 0}},
      {"serialChain/instant-restart", serialChain, instantRestart, 2165,
       {2, 255, 346, 912, 0, 0, 2153, 1171, 2, 2, 2834, 1157, 4595, 0, 0, 26}},
      {"forwardingChain/instant-restart", forwardingChain, instantRestart,
       10276, {1, 255, 4, 7, 0, 0, 10254, 263, 1, 0, 40681, 207, 77, 0, 0, 51}},
      {"carriedChain/sync/instant-restart", carriedChain,
       [] {
         sim::HydraConfig Cfg = instantRestart();
         Cfg.SyncCarriedLocals = true;
         return Cfg;
       },
       7986, {2, 300, 0, 0, 0, 3, 7976, 303, 2, 1, 31235, 400, 12, 0, 78, 179}},
      {"carriedLocalOnly", carriedLocalOnly, hydraDefault, 2970,
       {1, 120, 119, 239, 0, 0, 2963, 360, 1, 0, 7617, 1863, 2300, 0, 0, 72}},
      {"carriedLocalOnly/instant-restart", carriedLocalOnly, instantRestart,
       2404,
       {1, 120, 119, 122, 0, 0, 2397, 243, 1, 0, 7640, 200, 1691, 0, 0, 57}},
      {"twoLoopsABA", twoLoopsABA, hydraDefault, 1668,
       {3, 176, 78, 218, 0, 0, 1605, 404, 3, 7, 2363, 2969, 1066, 0, 0, 22}},
      {"twoLoopsABA/sync", twoLoopsABA, syncLocals, 1668,
       {3, 176, 0, 0, 0, 63, 1605, 185, 3, 6, 3017, 1465, 12, 0, 1878, 48}},
      {"parallelLoop/basic=0", parallelLoop, zeroCostBasic, 16364,
       {2, 512, 0, 0, 0, 0, 16362, 520, 2, 6, 62470, 2960, 18, 0, 0, 0}},
      {"serialChain/basic=0", serialChain, zeroCostBasic, 3418,
       {2, 255, 346, 914, 0, 0, 3416, 1175, 2, 4, 2832, 6219, 4613, 0, 0, 0}},
      {"carriedBreak/sync/basic=0", carriedBreak,
       [] {
         sim::HydraConfig Cfg = zeroCostBasic();
         Cfg.SyncCarriedLocals = true;
         return Cfg;
       },
       1373, {2, 171, 0, 0, 0, 45, 1371, 179, 2, 6, 3398, 1255, 30, 0, 801, 0}},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    ir::Module M = C.Build();
    TlsRun R = runAllLoopsTls(M, C.Config());
    std::array<std::uint64_t, 16> Got = statFields(R.Totals);
    EXPECT_EQ(R.Result.Cycles, C.Cycles);
    EXPECT_EQ(Got, C.Stats);
    if (R.Result.Cycles != C.Cycles || Got != C.Stats) {
      std::string Row = std::to_string(R.Result.Cycles) + ", {";
      for (std::size_t K = 0; K < Got.size(); ++K)
        Row += (K ? ", " : "") + std::to_string(Got[K]);
      ADD_FAILURE() << "actual: " << Row << "}";
    }
  }
}

TEST(TlsEngine, PinnedSyncWaitReleasedInItsOwnCycle) {
  // Three cores, so a thread on core 0 waits on its predecessor on core 2.
  // In these runs the producer stores in the very cycle the waiter's
  // synchronized load parks, so when the waiter re-issues depends on how
  // long its parked load occupies the core (max(cost, 1)), not only on the
  // producer's store; the PinnedCyclesAndStats sync cases never hit this.
  // Recorded, like that table, from the engine before this path moved out
  // of the interpreter.
  auto Sync3 = [](std::uint32_t EndOfIteration, std::uint32_t Forward) {
    sim::HydraConfig Cfg;
    Cfg.NumCores = 3;
    Cfg.SyncCarriedLocals = true;
    Cfg.EndOfIterationCycles = EndOfIteration;
    Cfg.StoreLoadCommCycles = Forward;
    return Cfg;
  };
  struct Case {
    const char *Name;
    ir::Module (*Build)();
    sim::HydraConfig Cfg;
    std::uint64_t Cycles;
    std::array<std::uint64_t, 16> Stats;
  };
  const Case Cases[] = {
      {"carriedBreak", carriedBreak, Sync3(1, 3), 1233,
       {2, 171, 0, 0, 0, 3, 1218, 175, 2, 2, 3156, 469, 8, 0, 21, 0}},
      {"twoLoopsABA", twoLoopsABA, Sync3(0, 1), 1040,
       {3, 176, 0, 0, 0, 23, 977, 182, 3, 3, 2361, 450, 14, 0, 103, 3}},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    ir::Module M = C.Build();
    TlsRun R = runAllLoopsTls(M, C.Cfg);
    EXPECT_EQ(R.Result.Cycles, C.Cycles);
    EXPECT_EQ(statFields(R.Totals), C.Stats);
    EXPECT_EQ(R.Result.ReturnValue, runModule(M).ReturnValue);
  }
}
