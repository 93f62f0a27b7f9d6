//===- tests/support_test.cpp - Support library unit tests -----------------==//

#include "support/BitVector.h"
#include "support/FastDivMod.h"
#include "support/Format.h"
#include "support/Prng.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <vector>

using namespace jrpm;

TEST(Format, FormatString) {
  EXPECT_EQ(formatString("x=%d y=%s", 42, "ok"), "x=42 y=ok");
  EXPECT_EQ(formatString("%s", ""), "");
  // Long output must not truncate.
  std::string Long(500, 'a');
  EXPECT_EQ(formatString("%s", Long.c_str()), Long);
}

TEST(Format, WithCommas) {
  EXPECT_EQ(withCommas(0), "0");
  EXPECT_EQ(withCommas(999), "999");
  EXPECT_EQ(withCommas(1000), "1,000");
  EXPECT_EQ(withCommas(98304000), "98,304,000");
  EXPECT_EQ(withCommas(-1234567), "-1,234,567");
}

TEST(Format, AsPercent) {
  EXPECT_EQ(asPercent(0.8491), "84.91%");
  EXPECT_EQ(asPercent(0.0028), "0.28%");
  EXPECT_EQ(asPercent(1.0, 0), "100%");
}

TEST(Format, AsKiloCycles) {
  EXPECT_EQ(asKiloCycles(18941000), "18941K");
  EXPECT_EQ(asKiloCycles(18941499), "18941K");
  EXPECT_EQ(asKiloCycles(18941500), "18942K");
  EXPECT_EQ(asKiloCycles(0), "0K");
}

TEST(Format, ParseUnsignedIsStrict) {
  std::uint64_t V = 7;
  for (const char *Bad : {"", "-1", "+1", "1x", " 1", "0x10", "many"}) {
    EXPECT_FALSE(parseUnsigned(Bad, 100, V)) << "'" << Bad << "'";
    EXPECT_EQ(V, 7u) << "failed parse must leave Out untouched";
  }
  EXPECT_TRUE(parseUnsigned("0", 100, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("100", 100, V)); // Max itself
  EXPECT_EQ(V, 100u);
  EXPECT_FALSE(parseUnsigned("101", 100, V)); // Max + 1
  EXPECT_TRUE(parseUnsigned("007", 100, V));
  EXPECT_EQ(V, 7u);
  // The full 64-bit range, with no wraparound one past it.
  EXPECT_TRUE(parseUnsigned("18446744073709551615", UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_FALSE(parseUnsigned("18446744073709551616", UINT64_MAX, V));
  EXPECT_FALSE(parseUnsigned("99999999999999999999", UINT64_MAX, V));
  EXPECT_FALSE(parseUnsigned("4294967296", UINT32_MAX, V));
  EXPECT_FALSE(parseUnsigned("5", 4, V)); // a single digit above Max
}

TEST(Prng, DeterministicAcrossInstances) {
  Prng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Prng, SeedZeroIsValid) {
  Prng P(0);
  EXPECT_NE(P.next(), 0u);
}

TEST(Prng, BoundsRespected) {
  Prng P(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(P.nextBelow(17), 17u);
    double D = P.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(FastDivMod, MatchesHardwareDivide) {
  std::vector<std::uint32_t> Divisors;
  for (std::uint32_t D = 1; D <= 130; ++D)
    Divisors.push_back(D);
  for (std::uint32_t K = 1; K <= 31; ++K) {
    std::uint32_t P = 1u << K;
    Divisors.insert(Divisors.end(), {P - 1, P, P + 1});
  }
  Prng Rng(0xD1CE);
  for (std::uint32_t D : Divisors) {
    FastDivMod Split(D);
    std::vector<std::uint32_t> Numerators = {0,     1,     D - 1,
                                             D,     D + 1, UINT32_MAX,
                                             UINT32_MAX - 1};
    for (int I = 0; I < 64; ++I) {
      std::uint64_t R = Rng.next();
      Numerators.push_back(static_cast<std::uint32_t>(R));
      Numerators.push_back(static_cast<std::uint32_t>(R >> 48)); // small ones
    }
    for (std::uint32_t N : Numerators) {
      ASSERT_EQ(Split.div(N), N / D) << N << " / " << D;
      ASSERT_EQ(Split.mod(N), N % D) << N << " % " << D;
    }
  }
}

TEST(BitVector, SetTestReset) {
  BitVector B(130);
  EXPECT_FALSE(B.test(0));
  B.set(0);
  B.set(64);
  B.set(129);
  EXPECT_TRUE(B.test(0));
  EXPECT_TRUE(B.test(64));
  EXPECT_TRUE(B.test(129));
  EXPECT_EQ(B.count(), 3u);
  B.reset(64);
  EXPECT_FALSE(B.test(64));
  EXPECT_EQ(B.count(), 2u);
}

TEST(BitVector, UnionAndSubtract) {
  BitVector A(70), B(70);
  A.set(1);
  A.set(65);
  B.set(2);
  B.set(65);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_TRUE(A.test(1));
  EXPECT_TRUE(A.test(2));
  EXPECT_TRUE(A.test(65));
  // Union with a subset changes nothing.
  EXPECT_FALSE(A.unionWith(B));
  A.subtract(B);
  EXPECT_TRUE(A.test(1));
  EXPECT_FALSE(A.test(2));
  EXPECT_FALSE(A.test(65));
}

TEST(BitVector, Equality) {
  BitVector A(10), B(10);
  EXPECT_TRUE(A == B);
  A.set(3);
  EXPECT_FALSE(A == B);
  B.set(3);
  EXPECT_TRUE(A == B);
}

TEST(TextTable, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "value"});
  T.addRow({"a", "1"});
  T.addSeparator();
  T.addRow({"long-name", "23"});
  // Rendering must not crash and should handle missing cells.
  T.addRow({"only-one"});
  FILE *Null = fopen("/dev/null", "w");
  ASSERT_NE(Null, nullptr);
  T.print(Null);
  fclose(Null);
}
