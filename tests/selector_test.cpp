//===- tests/selector_test.cpp - Equation 2 selection tests ----------------==//
//
// Drives the TraceEngine with synthetic loop-nest event streams and checks
// which decomposition Equation 2 picks — including the paper's Table 3
// scenario (outer loop vs inner loop of the Huffman decoder).
//
//===----------------------------------------------------------------------===//

#include "tracer/Selector.h"
#include "tracer/TraceEngine.h"

#include <gtest/gtest.h>

using namespace jrpm;
using namespace jrpm::tracer;

namespace {

/// Emits a two-level nest: outer loop 0 with `OuterIters` iterations, each
/// containing inner loop 1 with `InnerIters` iterations of `InnerBody`
/// cycles. `CarryAddr` != 0 adds a store->load chain across outer
/// iterations near the end of each outer body.
struct NestDriver {
  sim::HydraConfig Cfg;
  TraceEngine Engine;
  std::uint64_t Now = 0;

  explicit NestDriver(std::uint32_t NumLoops)
      : Engine(Cfg, std::vector<ir::LoopAnnotationInfo>(NumLoops)) {}

  std::uint64_t runNest(std::uint64_t OuterIters, std::uint64_t InnerIters,
                        std::uint64_t InnerBody, std::uint32_t CarryAddr) {
    std::uint64_t Start = Now;
    Engine.onLoopStart(0, 1, Now);
    for (std::uint64_t O = 0; O < OuterIters; ++O) {
      if (O)
        Engine.onLoopIter(0, Now);
      if (CarryAddr)
        Engine.onHeapLoad(CarryAddr, Now, 7);
      Engine.onLoopStart(1, 1, Now);
      for (std::uint64_t I = 0; I < InnerIters; ++I) {
        if (I)
          Engine.onLoopIter(1, Now);
        Now += InnerBody;
      }
      Engine.onLoopEnd(1, Now);
      Now += 4;
      if (CarryAddr)
        Engine.onHeapStore(CarryAddr, Now, 8);
      Now += 2;
    }
    Engine.onLoopEnd(0, Now);
    return Now - Start;
  }
};

} // namespace

TEST(Selector, PrefersOuterLoopWhenInnerIsTiny) {
  // Inner iterations are far too small to amortize per-thread overheads;
  // the outer loop has no carried dependency -> pick the outer loop.
  NestDriver D(2);
  D.runNest(/*OuterIters=*/200, /*InnerIters=*/6, /*InnerBody=*/8,
            /*CarryAddr=*/0);
  SelectionResult R = selectStls(D.Engine, D.Now, D.Cfg);
  ASSERT_EQ(R.Loops.size(), 2u);
  EXPECT_TRUE(R.Loops[0].Selected);
  EXPECT_FALSE(R.Loops[1].Selected);
  EXPECT_EQ(R.Loops[1].Parent, 0);
}

TEST(Selector, PrefersInnerLoopWhenOuterSerializes) {
  // A tight store->load chain across outer iterations (arc covers almost
  // the whole outer body) makes the outer loop useless, while the inner
  // loop is big and parallel.
  NestDriver D(2);
  D.runNest(/*OuterIters=*/40, /*InnerIters=*/60, /*InnerBody=*/40,
            /*CarryAddr=*/100);
  SelectionResult R = selectStls(D.Engine, D.Now, D.Cfg);
  EXPECT_FALSE(R.Loops[0].Selected);
  EXPECT_TRUE(R.Loops[1].Selected);
}

TEST(Selector, SerialWhenNothingHelps) {
  // One tiny loop: overheads exceed any parallel gain.
  NestDriver D(1);
  D.Engine.onLoopStart(0, 1, D.Now);
  for (int I = 0; I < 3; ++I) {
    if (I)
      D.Engine.onLoopIter(0, D.Now);
    D.Now += 5;
  }
  D.Engine.onLoopEnd(0, D.Now);
  SelectionResult R = selectStls(D.Engine, D.Now + 1000, D.Cfg);
  EXPECT_TRUE(R.SelectedLoops.empty());
  EXPECT_LE(R.PredictedSpeedup, 1.0 + 1e-9);
}

TEST(Selector, CoverageAndSerialAccounting) {
  NestDriver D(2);
  std::uint64_t LoopCycles =
      D.runNest(100, 10, 20, /*CarryAddr=*/0);
  std::uint64_t Program = D.Now + LoopCycles; // half serial, half loop
  SelectionResult R = selectStls(D.Engine, Program, D.Cfg);
  EXPECT_NEAR(R.Loops[0].Coverage, 0.5, 0.02);
  EXPECT_NEAR(R.SerialCycles, static_cast<double>(LoopCycles), 16.0);
  EXPECT_GT(R.PredictedSpeedup, 1.0);
  EXPECT_LT(R.PredictedSpeedup, 2.1); // Amdahl: half the program is serial
}

TEST(Selector, SelectedAncestorDeactivatesSubtree) {
  NestDriver D(2);
  D.runNest(300, 12, 30, /*CarryAddr=*/0);
  SelectionResult R = selectStls(D.Engine, D.Now, D.Cfg);
  // Whatever the estimates, never both levels of one nest.
  EXPECT_FALSE(R.Loops[0].Selected && R.Loops[1].Selected);
}

TEST(Selector, UntracedLoopStaysSerial) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, std::vector<ir::LoopAnnotationInfo>(1));
  // Loop never ran.
  SelectionResult R = selectStls(E, 1000, Cfg);
  EXPECT_FALSE(R.Loops[0].Selected);
  EXPECT_DOUBLE_EQ(R.PredictedCycles, 1000.0);
}

TEST(Selector, CyclicParentVotesAreCut) {
  // A loop observed in two contexts can produce vote patterns that would
  // form a cycle in the "parent" relation; dynamicParents must break it.
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, std::vector<ir::LoopAnnotationInfo>(2));
  // Context A: 0 encloses 1 (twice: majority for parent[1] = 0).
  for (int K = 0; K < 2; ++K) {
    E.onLoopStart(0, 1, K * 100);
    E.onLoopStart(1, 1, K * 100 + 10);
    E.onLoopEnd(1, K * 100 + 20);
    E.onLoopEnd(0, K * 100 + 30);
  }
  // Context B: 1 encloses 0 (twice: majority for parent[0] = 1).
  for (int K = 0; K < 2; ++K) {
    E.onLoopStart(1, 1, 1000 + K * 100);
    E.onLoopStart(0, 1, 1000 + K * 100 + 10);
    E.onLoopEnd(0, 1000 + K * 100 + 20);
    E.onLoopEnd(1, 1000 + K * 100 + 30);
  }
  std::vector<int> P = E.dynamicParents();
  // No cycle: at least one of the two must be a root.
  bool Cycle = P[0] == 1 && P[1] == 0;
  EXPECT_FALSE(Cycle);
  // And selection must terminate with sane accounting.
  SelectionResult R = selectStls(E, 5000, Cfg);
  EXPECT_GE(R.PredictedSpeedup, 0.99);
}
