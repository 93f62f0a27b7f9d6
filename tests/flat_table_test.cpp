//===- tests/flat_table_test.cpp - FlatTable against a reference map -------==//
//
// Runs the one open-addressed table over the three slot shapes that use it:
// Hydra's tag entries (u32 key, occupied while a mask bit is set), the heap
// store history's line -> entry index, and the tracer's (activation, reg)
// -> slot index.
//
//===----------------------------------------------------------------------===//

#include "hydra/SpecTags.h"
#include "support/FlatTable.h"
#include "tracer/TimestampStores.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

using namespace jrpm;

namespace {

// Each shape builds a slot from a small key id and a nonzero payload.
struct MaskShape {
  using Slot = hydra::SpecTagTable::Entry;
  static Slot::Key key(std::uint32_t Id) { return Id * 4; }
  static Slot make(std::uint32_t Id, std::uint32_t V) {
    return {key(Id), /*Read=*/V, /*Written=*/0, /*Values=*/0};
  }
  static std::uint32_t payload(const Slot &S) { return S.Read; }
};

struct LineShape {
  using Slot = tracer::HeapStoreTimestamps::LineSlot;
  static Slot::Key key(std::uint32_t Id) { return Id; }
  static Slot make(std::uint32_t Id, std::uint32_t V) { return {Id, V}; }
  static std::uint32_t payload(const Slot &S) { return S.Entry; }
};

struct LocalShape {
  using Slot = tracer::LocalSlot;
  static Slot::Key key(std::uint32_t Id) {
    return {Id / 3, static_cast<std::uint16_t>(Id % 3)};
  }
  static Slot make(std::uint32_t Id, std::uint32_t V) {
    Slot::Key K = key(Id);
    return {.Activation = K.Activation, .Slot = V, .Reg = K.Reg};
  }
  static std::uint32_t payload(const Slot &S) { return S.Slot; }
};

template <typename Shape> class FlatTableTest : public ::testing::Test {};
using Shapes = ::testing::Types<MaskShape, LineShape, LocalShape>;
TYPED_TEST_SUITE(FlatTableTest, Shapes);

TYPED_TEST(FlatTableTest, MatchesReferenceMapUnderRandomTraffic) {
  // The narrow phase keeps at most 12 keys in at most 32 slots, so probe
  // runs wrap past the last slot and erases shift followers across it; the
  // wide phase grows the table by several rehashes.
  using Slot = typename TypeParam::Slot;
  FlatTable<Slot> T(4);
  std::map<std::uint32_t, std::uint32_t> Model;
  std::mt19937 Rng(7);
  std::size_t MaxCapacity = T.capacity();
  for (int Step = 0; Step < 40000; ++Step) {
    std::uint32_t Range = Step < 20000 ? 12 : 3000;
    std::uint32_t Id = Rng() % Range;
    std::uint32_t V = 1 + Rng() % 1000;
    auto It = Model.find(Id);
    Slot *S = T.find(TypeParam::key(Id));
    ASSERT_EQ(S != nullptr, It != Model.end()) << "step " << Step;
    if (Rng() % 2) {
      if (S)
        *S = TypeParam::make(Id, V);
      else
        T.insertAbsent(TypeParam::make(Id, V));
      Model[Id] = V;
    } else if (S) {
      T.erase(*S);
      Model.erase(It);
    }
    ASSERT_EQ(T.size(), Model.size()) << "step " << Step;
    ASSERT_LE(T.size() * 2, T.capacity()) << "step " << Step;
    MaxCapacity = std::max(MaxCapacity, T.capacity());
    if (Step % 61 != 0)
      continue;
    for (std::uint32_t K = 0; K < Range; ++K) {
      const Slot *Found = T.find(TypeParam::key(K));
      auto M = Model.find(K);
      ASSERT_EQ(Found != nullptr, M != Model.end()) << "key " << K;
      if (Found) {
        ASSERT_EQ(TypeParam::payload(*Found), M->second) << "key " << K;
      }
    }
  }
  EXPECT_GE(MaxCapacity, FlatTable<Slot>::slotsFor(1000));
  T.clear();
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.find(TypeParam::key(0)), nullptr);
}

TYPED_TEST(FlatTableTest, EraseMovesOrKeepsFollowersAcrossTheWrap) {
  using Slot = typename TypeParam::Slot;
  FlatTable<Slot> T;
  ASSERT_EQ(T.capacity(), 8u);
  // Key ids whose probe runs start at slot H, in order.
  std::vector<std::vector<std::uint32_t>> ByHome(8);
  for (std::uint32_t Id = 0; Id < 400; ++Id)
    ByHome[T.home(TypeParam::key(Id))].push_back(Id);
  for (const auto &Ids : ByHome)
    ASSERT_GE(Ids.size(), 3u);
  auto insert = [&](std::uint32_t Id) {
    return &T.insertAbsent(TypeParam::make(Id, 1 + Id));
  };
  auto found = [&](std::uint32_t Id) -> const Slot * {
    const Slot *S = T.find(TypeParam::key(Id));
    EXPECT_NE(S, nullptr) << "id " << Id;
    if (S) {
      EXPECT_EQ(TypeParam::payload(*S), 1 + Id);
    }
    return S;
  };

  // Homes 7, 7, 0 fill slots 7, 0, 1. Erasing slot 7 must pull both
  // followers back across the wrap: each would sit before its run start.
  std::uint32_t A = ByHome[7][0], B = ByHome[7][1], C = ByHome[0][0];
  Slot *SA = insert(A);
  Slot *SB = insert(B);
  insert(C);
  T.erase(*SA);
  EXPECT_EQ(T.find(TypeParam::key(A)), nullptr);
  EXPECT_EQ(found(B), SA);
  EXPECT_EQ(found(C), SB);
  T.clear();

  // Homes 6, 7, 7 fill slots 6, 7, 0. Erasing slot 6 must leave both
  // followers where they are: their run starts after the hole.
  std::uint32_t D = ByHome[6][0], E = ByHome[7][0], F = ByHome[7][1];
  SA = insert(D);
  Slot *SE = insert(E);
  Slot *SF = insert(F);
  T.erase(*SA);
  EXPECT_EQ(T.find(TypeParam::key(D)), nullptr);
  EXPECT_EQ(found(E), SE);
  EXPECT_EQ(found(F), SF);
  T.clear();

  // Homes 6, 7, 6 fill slots 6, 7, 0. Erasing slot 6 keeps the middle
  // entry and moves the wrapped one past it into the hole.
  std::uint32_t G = ByHome[6][1];
  SA = insert(D);
  SE = insert(E);
  insert(G);
  T.erase(*SA);
  EXPECT_EQ(found(E), SE);
  EXPECT_EQ(found(G), SA);
  EXPECT_EQ(T.size(), 2u);
}

TYPED_TEST(FlatTableTest, GrowsPastHalfFull) {
  using Slot = typename TypeParam::Slot;
  FlatTable<Slot> T(4);
  ASSERT_EQ(T.capacity(), 8u);
  for (std::uint32_t Id = 0; Id < 4; ++Id)
    T.insertAbsent(TypeParam::make(Id, 1 + Id));
  EXPECT_EQ(T.capacity(), 8u);
  T.insertAbsent(TypeParam::make(4, 5)); // the fifth would pass half full
  EXPECT_EQ(T.capacity(), 16u);
  for (std::uint32_t Id = 0; Id < 5; ++Id) {
    const Slot *S = T.find(TypeParam::key(Id));
    ASSERT_NE(S, nullptr);
    EXPECT_EQ(TypeParam::payload(*S), 1 + Id);
  }
}

TEST(FlatTable, SizingRuleIsSixtyFourBit) {
  using Table = FlatTable<tracer::HeapStoreTimestamps::LineSlot>;
  EXPECT_EQ(Table::slotsFor(0), 8u);
  EXPECT_EQ(Table::slotsFor(4), 8u);
  EXPECT_EQ(Table::slotsFor(5), 16u);
  EXPECT_EQ(Table::slotsFor(192), 512u);
  // Twice this capacity wraps to 0 in 32 bits.
  EXPECT_EQ(Table::slotsFor(std::uint64_t(1) << 31),
            std::size_t(1) << 32);
}

} // namespace
