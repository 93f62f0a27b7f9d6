//===- tests/interp_test.cpp - Machine / memory timing tests ---------------==//

#include "TestUtil.h"
#include "interp/Heap.h"
#include "sim/CacheModel.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

using namespace jrpm;
using namespace jrpm::front;
using jrpm::testutil::makeMain;
using jrpm::testutil::runModule;

TEST(Heap, AllocIsLineAlignedAndZeroed) {
  interp::Heap H;
  std::uint32_t A = H.allocWords(3);
  std::uint32_t B = H.allocWords(1);
  EXPECT_EQ(A % 4, 0u);
  EXPECT_EQ(B % 4, 0u);
  EXPECT_EQ(B, A + 4u);
  EXPECT_EQ(H.load(A), 0u);
  H.store(A, 42);
  EXPECT_EQ(H.load(A), 42u);
}

TEST(CacheModel, HitsAfterFill) {
  sim::HydraConfig Cfg;
  sim::L1CacheModel L1(Cfg);
  EXPECT_FALSE(L1.access(100)); // cold miss
  EXPECT_TRUE(L1.access(100));  // hit
  EXPECT_TRUE(L1.access(101));  // same line
  EXPECT_FALSE(L1.access(1000));
}

TEST(CacheModel, LruEvictionWithinSet) {
  sim::HydraConfig Cfg;
  Cfg.L1Lines = 8;
  Cfg.L1Assoc = 2; // 4 sets
  sim::L1CacheModel L1(Cfg);
  // Three lines mapping to set 0 (line numbers 0, 4, 8 -> addresses 0,16,32).
  EXPECT_FALSE(L1.access(0));
  EXPECT_FALSE(L1.access(16));
  EXPECT_TRUE(L1.access(0));   // keep 0 recent
  EXPECT_FALSE(L1.access(32)); // evicts 16 (LRU)
  EXPECT_TRUE(L1.access(0));
  EXPECT_FALSE(L1.access(16));
}

TEST(CacheModel, NonPowerOfTwoGeometryMatchesReference) {
  // 3 words per line, 96 lines in 4 ways: 24 sets. The model splits
  // addresses with reciprocals; this reference uses / and %.
  sim::HydraConfig Cfg;
  Cfg.WordsPerLine = 3;
  Cfg.L1Lines = 96;
  Cfg.L1Assoc = 4;
  ASSERT_TRUE(sim::hasValidCacheGeometry(Cfg));
  const std::uint32_t Sets = Cfg.L1Lines / Cfg.L1Assoc;
  std::vector<std::vector<std::uint64_t>> RefTags(Sets), RefAges(Sets);
  for (std::uint32_t S = 0; S < Sets; ++S) {
    RefTags[S].assign(Cfg.L1Assoc, ~std::uint64_t(0));
    RefAges[S].assign(Cfg.L1Assoc, 0);
  }
  std::uint64_t RefClock = 0;
  auto Reference = [&](std::uint32_t Addr) {
    std::uint32_t Line = Addr / Cfg.WordsPerLine;
    std::vector<std::uint64_t> &Tags = RefTags[Line % Sets];
    std::vector<std::uint64_t> &Ages = RefAges[Line % Sets];
    std::uint64_t Tag = Line / Sets;
    ++RefClock;
    for (std::uint32_t W = 0; W < Cfg.L1Assoc; ++W)
      if (Tags[W] == Tag) {
        Ages[W] = RefClock;
        return true;
      }
    std::uint32_t Victim = 0;
    for (std::uint32_t W = 1; W < Cfg.L1Assoc; ++W)
      if (Ages[W] < Ages[Victim])
        Victim = W;
    Tags[Victim] = Tag;
    Ages[Victim] = RefClock;
    return false;
  };

  sim::L1CacheModel L1(Cfg);
  Prng Rng(42);
  std::uint32_t Hits = 0, Misses = 0;
  for (int I = 0; I < 200000; ++I) {
    // Mostly a small working set (hits and conflict misses), now and then
    // anywhere in the 32-bit address space.
    std::uint64_t R = Rng.next();
    std::uint32_t Addr = (R & 7) ? static_cast<std::uint32_t>(R >> 32) % 600
                                 : static_cast<std::uint32_t>(R >> 32);
    bool Hit = L1.access(Addr);
    ASSERT_EQ(Hit, Reference(Addr)) << "access " << I << " addr " << Addr;
    (Hit ? Hits : Misses)++;
  }
  EXPECT_GT(Hits, 0u);
  EXPECT_GT(Misses, 0u);
}

TEST(Machine, CountsInstructionsAndCycles) {
  ir::Module M = makeMain(seq({ret(add(c(1), c(2)))}));
  auto R = runModule(M);
  // consti, addi (the frontend folds +const into the iinc form), ret.
  EXPECT_EQ(R.Instructions, 3u);
  EXPECT_GE(R.Cycles, R.Instructions);
  EXPECT_EQ(R.ReturnValue, 3u);
}

TEST(Machine, LoadMissesCostExtraCycles) {
  sim::HydraConfig Cfg;
  // Two versions: the second re-reads the same word (hits in L1).
  ir::Module M1 = makeMain(seq({
      assign("a", allocWords(c(4))),
      assign("x", ld(v("a"), c(0))),
      ret(v("x")),
  }));
  ir::Module M2 = makeMain(seq({
      assign("a", allocWords(c(4))),
      assign("x", ld(v("a"), c(0))),
      assign("x", ld(v("a"), c(0))),
      ret(v("x")),
  }));
  auto R1 = runModule(M1, Cfg);
  auto R2 = runModule(M2, Cfg);
  EXPECT_EQ(R1.L1Misses, 1u);
  EXPECT_EQ(R2.L1Misses, 1u);
  // The second load hits in the L1: it adds its 2 instructions (the index
  // constant and the load itself) but no miss penalty.
  EXPECT_EQ(R2.Instructions, R1.Instructions + 2);
  EXPECT_EQ(R2.Cycles, R1.Cycles + 2);
}

TEST(Machine, DivCostsMoreThanMul) {
  ir::Module MMul = makeMain(seq({ret(mul(c(10), c(3)))}));
  ir::Module MDiv = makeMain(seq({ret(sdiv(c(10), c(3)))}));
  auto RA = runModule(MMul);
  auto RD = runModule(MDiv);
  EXPECT_EQ(RA.Instructions, RD.Instructions);
  EXPECT_GT(RD.Cycles, RA.Cycles);
}

TEST(Machine, LoadStoreCountsReported) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(8))),
      forLoop("i", c(0), lt(v("i"), c(5)), 1,
              store(v("a"), v("i"), v("i"))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(5)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
  auto R = runModule(M);
  EXPECT_EQ(R.Loads, 5u);
  EXPECT_EQ(R.Stores, 5u);
  EXPECT_EQ(R.ReturnValue, 10u);
}

TEST(Machine, DeterministicAcrossRuns) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(64))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              seq({
                  store(v("a"), v("i"), mul(v("i"), v("i"))),
                  assign("s", add(v("s"), ld(v("a"), v("i")))),
              })),
      ret(v("s")),
  }));
  auto R1 = runModule(M);
  auto R2 = runModule(M);
  EXPECT_EQ(R1.Cycles, R2.Cycles);
  EXPECT_EQ(R1.ReturnValue, R2.ReturnValue);
  EXPECT_EQ(R1.L1Misses, R2.L1Misses);
}

namespace {

/// A sink that records every event kind, for annotation plumbing tests.
class CountingSink : public interp::TraceSink {
public:
  std::uint64_t HeapLoads = 0, HeapStores = 0, LocalLoads = 0,
                LocalStores = 0, LoopStarts = 0, LoopIters = 0, LoopEnds = 0,
                Returns = 0;
  std::uint32_t ExtraPerEvent = 0;

  std::uint32_t onHeapLoad(std::uint32_t, std::uint64_t,
                           std::int32_t) override {
    ++HeapLoads;
    return ExtraPerEvent;
  }
  std::uint32_t onHeapStore(std::uint32_t, std::uint64_t,
                            std::int32_t) override {
    ++HeapStores;
    return ExtraPerEvent;
  }
  std::uint32_t onLocalLoad(std::uint64_t, std::uint16_t, std::uint64_t,
                            std::int32_t) override {
    ++LocalLoads;
    return ExtraPerEvent;
  }
  std::uint32_t onLocalStore(std::uint64_t, std::uint16_t, std::uint64_t,
                             std::int32_t) override {
    ++LocalStores;
    return ExtraPerEvent;
  }
  std::uint32_t onLoopStart(std::uint32_t, std::uint64_t,
                            std::uint64_t) override {
    ++LoopStarts;
    return ExtraPerEvent;
  }
  std::uint32_t onLoopIter(std::uint32_t, std::uint64_t) override {
    ++LoopIters;
    return ExtraPerEvent;
  }
  std::uint32_t onLoopEnd(std::uint32_t, std::uint64_t) override {
    ++LoopEnds;
    return ExtraPerEvent;
  }
  void onReturn(std::uint64_t) override { ++Returns; }
};

} // namespace

TEST(Machine, SinkSeesMemoryEventsAndCharges) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(8))),
      store(v("a"), c(0), c(5)),
      ret(ld(v("a"), c(0))),
  }));
  CountingSink Sink;
  interp::Machine Machine(M, sim::HydraConfig{});
  Machine.setTraceSink(&Sink);
  auto RBase = Machine.run();
  EXPECT_EQ(Sink.HeapLoads, 1u);
  EXPECT_EQ(Sink.HeapStores, 1u);
  EXPECT_EQ(Sink.Returns, 1u);

  // The sink's extra cycles are charged to the program (the software-only
  // profiler model).
  CountingSink Expensive;
  Expensive.ExtraPerEvent = 100;
  interp::Machine Machine2(M, sim::HydraConfig{});
  Machine2.setTraceSink(&Expensive);
  auto RSlow = Machine2.run();
  EXPECT_EQ(RSlow.Cycles, RBase.Cycles + 200);
}
