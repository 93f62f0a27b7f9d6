//===- tests/json_fuzz_test.cpp - Json::parse robustness fuzzing -----------==//
//
// The tools feed Json::parse whole files named on their command line
// (metrics documents, corpus repros), so the parser must reject every
// malformed input with a typed error — never crash, hang, or recurse to
// stack overflow. This suite fuzzes it deterministically (fixed xorshift
// seeds): truncation at every byte offset, single-bit flips, random
// garbage, and container depth bombs. Run it under the JRPM_SANITIZE
// (ASan+UBSan) preset to turn latent memory errors into failures.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

using namespace jrpm;

namespace {

/// Deterministic xorshift64* — the suite must not depend on rand().
struct Rng {
  std::uint64_t State;
  explicit Rng(std::uint64_t Seed) : State(Seed ? Seed : 1) {}
  std::uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 2685821657736338717ull;
  }
  std::uint32_t below(std::uint32_t N) {
    return static_cast<std::uint32_t>(next() % N);
  }
};

/// A representative document exercising every value kind the writer emits.
std::string sampleDoc() {
  Json Root = Json::object();
  Root["schema"] = "fuzz-sample-v1";
  Root["flag"] = true;
  Root["nil"] = Json();
  Root["int"] = std::int64_t(-42);
  Root["uint"] = std::uint64_t(18446744073709551615ull);
  Root["dbl"] = 0.30000000000000004;
  Root["text"] = std::string("quotes \" slashes \\ control \n\t end");
  Json Arr = Json::array();
  for (int I = 0; I < 4; ++I) {
    Json Inner = Json::object();
    Inner["i"] = I;
    Inner["name"] = "item-" + std::to_string(I);
    Arr.push(Inner);
  }
  Root["items"] = Arr;
  return Root.dump();
}

/// Parsing must either succeed or fail with a non-empty error — and never
/// crash. Returns whether it parsed.
bool parseSurvives(const std::string &Text) {
  Json Out;
  std::string Err;
  bool Ok = Json::parse(Text, Out, &Err);
  EXPECT_TRUE(Ok || !Err.empty()) << "failed parse with empty error";
  if (Ok) {
    // A successful parse must re-serialize without issue (round-trip
    // stability is the writer/parser contract).
    std::string Dumped = Out.dump();
    Json Again;
    EXPECT_TRUE(Json::parse(Dumped, Again, &Err)) << Err;
    EXPECT_EQ(Dumped, Again.dump());
  }
  return Ok;
}

TEST(JsonFuzz, TruncationAtEveryOffset) {
  std::string Doc = sampleDoc();
  ASSERT_TRUE(parseSurvives(Doc));
  // Every strict prefix must be handled; virtually all are malformed.
  for (std::size_t N = 0; N < Doc.size(); ++N)
    parseSurvives(Doc.substr(0, N));
}

TEST(JsonFuzz, SingleBitFlips) {
  std::string Doc = sampleDoc();
  for (std::size_t I = 0; I < Doc.size(); ++I)
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::string Mutated = Doc;
      Mutated[I] = static_cast<char>(Mutated[I] ^ (1 << Bit));
      parseSurvives(Mutated);
    }
}

TEST(JsonFuzz, RandomMultiByteCorruption) {
  std::string Doc = sampleDoc();
  Rng R(0x5eed5eed);
  for (int Round = 0; Round < 2000; ++Round) {
    std::string Mutated = Doc;
    int Edits = 1 + static_cast<int>(R.below(8));
    for (int E = 0; E < Edits; ++E)
      Mutated[R.below(static_cast<std::uint32_t>(Mutated.size()))] =
          static_cast<char>(R.next());
    parseSurvives(Mutated);
  }
}

TEST(JsonFuzz, PureGarbage) {
  Rng R(0xfeedface);
  for (int Round = 0; Round < 2000; ++Round) {
    std::string Garbage;
    std::size_t Len = R.below(96);
    for (std::size_t I = 0; I < Len; ++I)
      Garbage.push_back(static_cast<char>(R.next()));
    parseSurvives(Garbage);
  }
}

TEST(JsonFuzz, DepthBombIsRejectedNotOverflowed) {
  // At the limit: parses.
  std::string AtLimit(Json::MaxParseDepth, '[');
  AtLimit += "1";
  AtLimit.append(Json::MaxParseDepth, ']');
  Json Out;
  std::string Err;
  EXPECT_TRUE(Json::parse(AtLimit, Out, &Err)) << Err;

  // One past the limit: typed rejection.
  std::string Past(Json::MaxParseDepth + 1, '[');
  Past += "1";
  Past.append(Json::MaxParseDepth + 1, ']');
  EXPECT_FALSE(Json::parse(Past, Out, &Err));
  EXPECT_NE(Err.find("nesting"), std::string::npos) << Err;

  // A hostile bomb (far past any sane stack): rejected without crashing.
  std::string Bomb(1u << 20, '[');
  EXPECT_FALSE(Json::parse(Bomb, Out, &Err));

  // Object nesting counts against the same budget.
  std::string ObjBomb;
  for (int I = 0; I < Json::MaxParseDepth + 1; ++I)
    ObjBomb += "{\"k\":";
  ObjBomb += "1";
  ObjBomb.append(Json::MaxParseDepth + 1, '}');
  EXPECT_FALSE(Json::parse(ObjBomb, Out, &Err));
  EXPECT_NE(Err.find("nesting"), std::string::npos) << Err;
}

} // namespace
