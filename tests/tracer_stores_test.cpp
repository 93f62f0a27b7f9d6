//===- tests/tracer_stores_test.cpp - Timestamp storage unit tests ---------==//

#include "tracer/TimestampStores.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <vector>

using namespace jrpm;
using namespace jrpm::tracer;

TEST(HeapStoreTimestamps, RecordsAndLooksUpWords) {
  HeapStoreTimestamps H(/*CapacityLines=*/4, /*WordsPerLine=*/4);
  EXPECT_EQ(H.lookup(100), NoTimestamp);
  H.recordStore(100, 55);
  EXPECT_EQ(H.lookup(100), 55u);
  // Same line, different word: independent timestamps.
  H.recordStore(101, 77);
  EXPECT_EQ(H.lookup(100), 55u);
  EXPECT_EQ(H.lookup(101), 77u);
  EXPECT_EQ(H.lookup(102), NoTimestamp);
}

TEST(HeapStoreTimestamps, FifoEvictsOldestLine) {
  HeapStoreTimestamps H(2, 4);
  H.recordStore(0, 1);  // line 0
  H.recordStore(4, 2);  // line 1
  H.recordStore(8, 3);  // line 2 -> evicts line 0
  EXPECT_EQ(H.lookup(0), NoTimestamp);
  EXPECT_EQ(H.lookup(4), 2u);
  EXPECT_EQ(H.lookup(8), 3u);
}

TEST(HeapStoreTimestamps, RewriteDoesNotGrow) {
  HeapStoreTimestamps H(2, 4);
  H.recordStore(0, 1);
  H.recordStore(1, 2); // same line
  H.recordStore(4, 3);
  H.recordStore(0, 9); // overwrite word 0, still same line
  EXPECT_EQ(H.lookup(0), 9u);
  EXPECT_EQ(H.lookup(4), 3u);
}

TEST(CacheLineTimestamps, DirectMappedExchange) {
  CacheLineTimestampTable T(/*NumEntries=*/4, /*WordsPerLine=*/4);
  EXPECT_EQ(T.exchange(0, 10), NoTimestamp);
  EXPECT_EQ(T.exchange(1, 20), 10u); // same line: returns old
  // 4 entries x 4 words: address 64 maps to the same set as address 0
  // (line 16 % 4 == line 0 % 4) with a different tag -> miss, evict.
  EXPECT_EQ(T.exchange(64, 30), NoTimestamp);
  EXPECT_EQ(T.exchange(0, 40), NoTimestamp); // was evicted
}

TEST(CacheLineTimestamps, AssociativeAvoidsConflict) {
  CacheLineTimestampTable T(/*NumEntries=*/4, /*WordsPerLine=*/4,
                            /*Associativity=*/2);
  // Two lines mapping to the same set coexist with 2-way associativity.
  EXPECT_EQ(T.exchange(0, 10), NoTimestamp);
  EXPECT_EQ(T.exchange(32, 20), NoTimestamp); // line 8, set 0 with 2 sets
  EXPECT_EQ(T.exchange(0, 30), 10u);
  EXPECT_EQ(T.exchange(32, 40), 20u);
}

TEST(LocalVarTimestamps, StackDiscipline) {
  LocalVarTimestampFile F(8);
  int A = F.reserve(3);
  ASSERT_EQ(A, 0);
  int B = F.reserve(4);
  ASSERT_EQ(B, 3);
  EXPECT_EQ(F.used(), 7u);
  // Full: a reservation of 2 must fail.
  EXPECT_EQ(F.reserve(2), -1);
  F.write(4, 99);
  EXPECT_EQ(F.read(4), 99u);
  EXPECT_EQ(F.release(3, 4), SlotReleaseResult::Ok);
  EXPECT_EQ(F.used(), 3u);
  // Slots are cleared on (re-)reservation.
  int C = F.reserve(4);
  ASSERT_EQ(C, 3);
  EXPECT_EQ(F.read(4), NoTimestamp);
}

TEST(LocalVarTimestamps, ZeroSizedReservation) {
  LocalVarTimestampFile F(4);
  EXPECT_EQ(F.reserve(0), 0);
  EXPECT_EQ(F.used(), 0u);
}

#ifdef NDEBUG
TEST(LocalVarTimestamps, NonStackReleaseReportsTypedError) {
  LocalVarTimestampFile F(8);
  ASSERT_EQ(F.reserve(4), 0);
  // Releasing a range that is not the top of the stack is a caller bug;
  // release builds report it without corrupting the file.
  EXPECT_EQ(F.release(1, 4), SlotReleaseResult::NonStackRelease);
  EXPECT_EQ(F.used(), 4u); // unchanged
  EXPECT_EQ(F.release(0, 4), SlotReleaseResult::Ok);
  EXPECT_EQ(F.used(), 0u);
}
#endif

TEST(HeapStoreTimestamps, CountsEvictionsAndPeakOccupancy) {
  HeapStoreTimestamps H(2, 4);
  EXPECT_EQ(H.evictions(), 0u);
  EXPECT_EQ(H.peakOccupancy(), 0u);
  H.recordStore(0, 1);
  H.recordStore(4, 2);
  EXPECT_EQ(H.evictions(), 0u);
  EXPECT_EQ(H.peakOccupancy(), 2u);
  H.recordStore(8, 3); // full: rotates out the oldest line
  EXPECT_EQ(H.evictions(), 1u);
  EXPECT_EQ(H.peakOccupancy(), 2u); // capacity-bounded
  H.clear();
  // Counters are monotonic across clears (lifetime totals).
  EXPECT_EQ(H.evictions(), 1u);
  EXPECT_EQ(H.peakOccupancy(), 2u);
  EXPECT_EQ(H.lookup(8), NoTimestamp);
}

TEST(HeapStoreTimestamps, MatchesFifoReferenceUnderRandomTraffic) {
  // A plain FIFO of whole lines: a store to an untracked line appends it
  // and, once Capacity lines are held, drops the oldest. Rewrites do not
  // refresh a line's place. Every eviction erases from the line index.
  for (std::uint32_t Capacity = 2; Capacity <= 8; ++Capacity) {
    const std::uint32_t Words = 3;
    HeapStoreTimestamps H(Capacity, Words);
    std::deque<std::uint32_t> Fifo;
    std::map<std::uint32_t, std::vector<std::uint64_t>> Stamps;
    std::uint64_t Evictions = 0;
    std::uint32_t Peak = 0;
    std::mt19937 Rng(Capacity);
    const std::uint32_t Addrs = 3 * Capacity * Words;
    for (std::uint64_t Cycle = 1; Cycle <= 6000; ++Cycle) {
      std::uint32_t Addr = Rng() % Addrs;
      if (Rng() % 2) {
        H.recordStore(Addr, Cycle);
        std::uint32_t Line = Addr / Words;
        auto It = Stamps.find(Line);
        if (It == Stamps.end()) {
          if (Fifo.size() == Capacity) {
            Stamps.erase(Fifo.front());
            Fifo.pop_front();
            ++Evictions;
          }
          Fifo.push_back(Line);
          It = Stamps.emplace(Line, std::vector<std::uint64_t>(
                                        Words, NoTimestamp))
                   .first;
          Peak = std::max(Peak, static_cast<std::uint32_t>(Fifo.size()));
        }
        It->second[Addr % Words] = Cycle;
      } else if (Rng() % 500 == 0) {
        H.clear();
        Fifo.clear();
        Stamps.clear();
      }
      for (std::uint32_t A = 0; A < Addrs; ++A) {
        auto It = Stamps.find(A / Words);
        std::uint64_t Want =
            It == Stamps.end() ? NoTimestamp : It->second[A % Words];
        ASSERT_EQ(H.lookup(A), Want)
            << "capacity " << Capacity << " cycle " << Cycle << " addr " << A;
      }
      ASSERT_EQ(H.evictions(), Evictions) << "capacity " << Capacity;
      ASSERT_EQ(H.peakOccupancy(), Peak) << "capacity " << Capacity;
    }
    EXPECT_GT(Evictions, 1000u);
  }
}

TEST(CacheLineTimestamps, CountsEvictionsAndPeakOccupancy) {
  CacheLineTimestampTable T(/*NumEntries=*/4, /*WordsPerLine=*/4);
  EXPECT_EQ(T.evictions(), 0u);
  T.exchange(0, 10);
  T.exchange(64, 20); // conflict miss in the direct-mapped set
  EXPECT_EQ(T.evictions(), 1u);
  EXPECT_EQ(T.peakOccupancy(), 1u);
  T.exchange(4, 30); // line 1 -> a second set fills
  EXPECT_EQ(T.peakOccupancy(), 2u);
  T.clear();
  EXPECT_EQ(T.evictions(), 1u);
  EXPECT_EQ(T.peakOccupancy(), 2u);
}
