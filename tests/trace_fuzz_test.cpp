//===- tests/trace_fuzz_test.cpp - Reader robustness under corruption ------==//
//
// Bit-flips, truncations, splices, and garbage must all surface as typed
// trace::Error — never UB, a crash, or a silently-wrong analysis. The
// whole suite runs under -DJRPM_SANITIZE=ON in CI (scripts/ci_sanitize.sh),
// so any out-of-bounds access or overflow in the decoder is fatal here.
//
//===----------------------------------------------------------------------===//

#include "jrpm/Pipeline.h"
#include "support/Prng.h"
#include "trace/Replay.h"
#include "trace/Wire.h"
#include "trace/Writer.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <unistd.h>
#include <vector>

using namespace jrpm;

namespace {

std::string tmpPath(const std::string &Tag) {
  return "/tmp/jrpm-trace-fuzz-" +
         std::to_string(static_cast<long>(getpid())) + "-" + Tag + ".jtrace";
}

std::vector<std::uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(In)),
                                   std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<std::uint8_t> &B) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(B.data()),
            static_cast<std::streamsize>(B.size()));
}

void putU32(std::vector<std::uint8_t> &B, std::size_t V) {
  for (unsigned Shift = 0; Shift < 32; Shift += 8)
    B.push_back(static_cast<std::uint8_t>(V >> Shift));
}

/// Appends a footer record for \p F with its CRC, and the trailer.
void appendFooter(std::vector<std::uint8_t> &B, const trace::TraceFooter &F) {
  std::vector<std::uint8_t> Payload;
  trace::encodeFooter(Payload, F);
  std::size_t Start = B.size();
  B.push_back(trace::FooterTag);
  putU32(B, Payload.size());
  putU32(B, trace::crc32(Payload.data(), Payload.size()));
  B.insert(B.end(), Payload.begin(), Payload.end());
  putU32(B, B.size() - Start);
  B.insert(B.end(), std::begin(trace::EndMagic), std::end(trace::EndMagic));
}

/// One hand-built chunk: its payload and the event count it declares.
struct ForgedChunk {
  std::vector<std::uint8_t> Payload;
  std::uint32_t Events = 1;
};

/// Loop-table size of every forged trace.
constexpr std::size_t ForgedLoops = 6;

/// A .jtrace with a default header and a ForgedLoops-entry loop table,
/// \p Chunks with recomputed CRCs, and a footer that tallies \p Counted.
/// Every framing check passes, so only the payloads are on trial.
std::vector<std::uint8_t>
forgeTrace(const std::vector<ForgedChunk> &Chunks,
           const std::vector<trace::Event> &Counted) {
  trace::TraceHeader H;
  H.LoopLocals.resize(ForgedLoops);
  std::vector<std::uint8_t> Header;
  trace::encodeHeader(Header, H);
  std::vector<std::uint8_t> B(std::begin(trace::FileMagic),
                              std::end(trace::FileMagic));
  putU32(B, trace::FormatVersion);
  putU32(B, Header.size());
  putU32(B, trace::crc32(Header.data(), Header.size()));
  B.insert(B.end(), Header.begin(), Header.end());
  for (const ForgedChunk &C : Chunks) {
    B.push_back(trace::ChunkTag);
    putU32(B, C.Payload.size());
    putU32(B, C.Events);
    putU32(B, trace::crc32(C.Payload.data(), C.Payload.size()));
    B.insert(B.end(), C.Payload.begin(), C.Payload.end());
  }
  trace::TraceFooter F;
  for (const trace::Event &E : Counted)
    trace::countEvent(F, E);
  appendFooter(B, F);
  return B;
}

/// Payload bytes: \p Raw, then each of \p Varints LEB128-encoded.
std::vector<std::uint8_t> bytes(std::vector<std::uint8_t> Raw,
                                std::initializer_list<std::uint64_t> Varints) {
  for (std::uint64_t V : Varints)
    trace::appendVarint(Raw, V);
  return Raw;
}

/// Full strict read of a candidate file, as every replay of a file loads
/// it: header, O(1) footer, every event, stream-end validation. Returns
/// the ErrorKind when the reader rejected the file, nullopt when it was
/// accepted.
std::optional<trace::ErrorKind> strictRead(const std::string &Path) {
  try {
    trace::CachedTrace T(Path);
    return std::nullopt;
  } catch (const trace::Error &E) {
    return E.kind();
  }
}

/// Shared pristine capture for all corruption tests.
class TraceFuzz : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Path = new std::string(tmpPath("seed"));
    const workloads::Workload *W = workloads::findWorkload("BitOps");
    ASSERT_NE(W, nullptr);
    pipeline::PipelineConfig Cfg;
    Cfg.ExtendedPcBinning = true;
    Cfg.WorkloadName = W->Name;
    Cfg.RecordTracePath = *Path;
    pipeline::Jrpm J(W->Build(), Cfg);
    J.profileAndSelect();
    Pristine = new std::vector<std::uint8_t>(readFile(*Path));
    ASSERT_FALSE(Pristine->empty());
    ASSERT_FALSE(strictRead(*Path).has_value());
  }

  static void TearDownTestSuite() {
    std::remove(Path->c_str());
    delete Path;
    delete Pristine;
    Path = nullptr;
    Pristine = nullptr;
  }

  static std::string *Path;
  static std::vector<std::uint8_t> *Pristine;
};

std::string *TraceFuzz::Path = nullptr;
std::vector<std::uint8_t> *TraceFuzz::Pristine = nullptr;

} // namespace

TEST_F(TraceFuzz, EveryBitFlipIsDetected) {
  // CRC32 catches any single-bit payload error; framing fields are either
  // covered by a checksum, bounded against the file size, or cross-checked
  // against the footer. Sample byte offsets across the whole file plus an
  // exhaustive pass over the first and last 64 bytes (header/footer
  // framing, the hardest part to get right).
  std::string Mutant = tmpPath("bitflip");
  Prng Rng(0xF1D0F00Dull);
  std::vector<std::size_t> Offsets;
  for (std::size_t I = 0; I < 64 && I < Pristine->size(); ++I)
    Offsets.push_back(I);
  for (std::size_t I = 0; I < 64 && I < Pristine->size(); ++I)
    Offsets.push_back(Pristine->size() - 1 - I);
  for (int I = 0; I < 400; ++I)
    Offsets.push_back(
        static_cast<std::size_t>(Rng.nextBelow(Pristine->size())));

  for (std::size_t Off : Offsets) {
    std::vector<std::uint8_t> B = *Pristine;
    B[Off] ^= static_cast<std::uint8_t>(1u << Rng.nextBelow(8));
    writeFile(Mutant, B);
    std::optional<trace::ErrorKind> Err = strictRead(Mutant);
    EXPECT_TRUE(Err.has_value())
        << "bit flip at offset " << Off << " went undetected";
  }
  std::remove(Mutant.c_str());
}

TEST_F(TraceFuzz, EveryTruncationIsDetected) {
  std::string Mutant = tmpPath("trunc");
  Prng Rng(0x7256C471ull);
  std::vector<std::size_t> Lengths = {0, 1, 4, 7, 8, 11, 12, 19, 20};
  for (int I = 0; I < 200; ++I)
    Lengths.push_back(
        static_cast<std::size_t>(Rng.nextBelow(Pristine->size())));
  for (std::size_t I = 1; I <= 64 && I < Pristine->size(); ++I)
    Lengths.push_back(Pristine->size() - I);

  for (std::size_t Len : Lengths) {
    if (Len >= Pristine->size())
      continue;
    std::vector<std::uint8_t> B(Pristine->begin(),
                                Pristine->begin() + Len);
    writeFile(Mutant, B);
    std::optional<trace::ErrorKind> Err = strictRead(Mutant);
    EXPECT_TRUE(Err.has_value())
        << "truncation to " << Len << " bytes went undetected";
  }
  std::remove(Mutant.c_str());
}

TEST_F(TraceFuzz, SplicesAndStructuralDamageAreDetected) {
  std::string Mutant = tmpPath("splice");
  const std::vector<std::uint8_t> &P = *Pristine;

  // Duplicate a byte range in the middle (event counts then disagree with
  // the footer even if the bytes happen to decode).
  {
    std::vector<std::uint8_t> B = P;
    std::size_t Mid = B.size() / 2;
    B.insert(B.begin() + static_cast<std::ptrdiff_t>(Mid), P.begin() + 100,
             P.begin() + 200);
    writeFile(Mutant, B);
    EXPECT_TRUE(strictRead(Mutant).has_value()) << "spliced-in bytes";
  }
  // Delete a byte range in the middle.
  {
    std::vector<std::uint8_t> B = P;
    std::size_t Mid = B.size() / 2;
    B.erase(B.begin() + static_cast<std::ptrdiff_t>(Mid),
            B.begin() + static_cast<std::ptrdiff_t>(Mid + 64));
    writeFile(Mutant, B);
    EXPECT_TRUE(strictRead(Mutant).has_value()) << "deleted bytes";
  }
  // Swap two halves of the event region.
  {
    std::vector<std::uint8_t> B = P;
    std::size_t A = B.size() / 3, Z = 2 * B.size() / 3;
    for (std::size_t I = 0; A + I < Z - I && I < 512; ++I)
      std::swap(B[A + I], B[Z - I]);
    writeFile(Mutant, B);
    EXPECT_TRUE(strictRead(Mutant).has_value()) << "shuffled event region";
  }
  // Trailing garbage after a valid trace.
  {
    std::vector<std::uint8_t> B = P;
    B.insert(B.end(), {0xDE, 0xAD, 0xBE, 0xEF});
    writeFile(Mutant, B);
    EXPECT_TRUE(strictRead(Mutant).has_value()) << "trailing garbage";
  }
  // A different file type entirely.
  {
    std::vector<std::uint8_t> B(256, 0x41);
    writeFile(Mutant, B);
    std::optional<trace::ErrorKind> Err = strictRead(Mutant);
    ASSERT_TRUE(Err.has_value());
    EXPECT_EQ(*Err, trace::ErrorKind::BadMagic);
  }
  // Cross-trace splice: valid header from this trace, chunks from another
  // workload's trace.
  {
    std::string OtherPath = tmpPath("other");
    const workloads::Workload *W = workloads::findWorkload("Assignment");
    ASSERT_NE(W, nullptr);
    pipeline::PipelineConfig Cfg;
    Cfg.ExtendedPcBinning = true;
    Cfg.WorkloadName = W->Name;
    Cfg.RecordTracePath = OtherPath;
    pipeline::Jrpm J(W->Build(), Cfg);
    J.profileAndSelect();
    std::vector<std::uint8_t> Other = readFile(OtherPath);
    std::remove(OtherPath.c_str());

    // Keep this trace's header bytes, then graft the other trace's tail.
    ASSERT_GT(Other.size(), 512u);
    std::vector<std::uint8_t> B = Other;
    std::copy(P.begin(), P.begin() + 512, B.begin());
    writeFile(Mutant, B);
    EXPECT_TRUE(strictRead(Mutant).has_value()) << "cross-trace splice";
  }
  std::remove(Mutant.c_str());
}

TEST_F(TraceFuzz, ReplayOfCorruptTraceThrowsTypedErrorNotCrash) {
  // selectFromTrace (the full pipeline entry) must also surface Error.
  std::string Mutant = tmpPath("select");
  std::vector<std::uint8_t> B = *Pristine;
  B[B.size() / 2] ^= 0x10;
  writeFile(Mutant, B);
  trace::Reader R(Mutant); // header is intact; corruption is later
  EXPECT_THROW(
      {
        trace::CachedTrace T(Mutant);
        trace::selectFromTrace(T, trace::recordedConfig(T.header()));
      },
      trace::Error);
  std::remove(Mutant.c_str());
}

TEST_F(TraceFuzz, ErrorsCarryKindAndMessage) {
  std::string Mutant = tmpPath("kinds");
  // Version bump.
  {
    std::vector<std::uint8_t> B = *Pristine;
    B[8] = 0x7F;
    writeFile(Mutant, B);
    std::optional<trace::ErrorKind> Err = strictRead(Mutant);
    ASSERT_TRUE(Err.has_value());
    EXPECT_EQ(*Err, trace::ErrorKind::BadVersion);
  }
  // Missing file is an Io error with the path in the message.
  try {
    trace::Reader R("/nonexistent/no.jtrace");
    FAIL() << "open of missing file succeeded";
  } catch (const trace::Error &E) {
    EXPECT_EQ(E.kind(), trace::ErrorKind::Io);
    EXPECT_NE(std::string(E.what()).find("no.jtrace"), std::string::npos);
  }
  std::remove(Mutant.c_str());
}

TEST_F(TraceFuzz, ImpossibleCacheGeometryIsBadRecord) {
  // A well-formed file with valid CRCs and a plausible event stream whose
  // header asks for zero words per line: a replay would index an empty
  // heap-history array. The decoder must reject it before the tracer
  // splits a single address.
  std::string Mutant = tmpPath("wpl0");
  {
    trace::TraceHeader H;
    H.Hw.WordsPerLine = 0;
    H.LoopLocals.resize(1);
    trace::Writer W(Mutant, H);
    std::uint64_t Cycle = 10;
    auto Emit = [&](trace::EventKind K, std::uint32_t Addr) {
      trace::Event E;
      E.Kind = K;
      E.Cycle = Cycle++;
      E.Activation = 1;
      E.Addr = Addr;
      E.Pc = K == trace::EventKind::HeapLoad || K == trace::EventKind::HeapStore
                 ? 7
                 : -1;
      W.append(E);
    };
    Emit(trace::EventKind::LoopStart, 0);
    for (std::uint32_t I = 0; I < 4; ++I) {
      Emit(trace::EventKind::HeapStore, 100 + I);
      Emit(trace::EventKind::LoopIter, 0);
      Emit(trace::EventKind::HeapLoad, 100 + I);
    }
    Emit(trace::EventKind::LoopEnd, 0);
    W.finish(interp::RunResult{});
  }
  try {
    trace::CachedTrace T(Mutant);
    trace::selectFromTrace(T, trace::recordedConfig(T.header()));
    FAIL() << "a zero-words-per-line trace replayed";
  } catch (const trace::Error &E) {
    EXPECT_EQ(E.kind(), trace::ErrorKind::BadRecord);
  }
  std::remove(Mutant.c_str());

  // The other geometries no cache model can be built from.
  for (auto [Lines, Ways] : {std::pair{512u, 0u}, {0u, 4u}, {510u, 4u}}) {
    std::string Path = tmpPath("l1-" + std::to_string(Lines) + "-" +
                               std::to_string(Ways));
    {
      trace::TraceHeader H;
      H.Hw.L1Lines = Lines;
      H.Hw.L1Assoc = Ways;
      trace::Writer W(Path, H);
      W.finish(interp::RunResult{});
    }
    std::optional<trace::ErrorKind> Err = strictRead(Path);
    ASSERT_TRUE(Err.has_value()) << Lines << " lines, " << Ways << " ways";
    EXPECT_EQ(*Err, trace::ErrorKind::BadRecord);
    std::remove(Path.c_str());
  }
}

TEST_F(TraceFuzz, ImpossibleOverflowGeometryIsBadRecord) {
  // A well-formed file whose header asks for a zero-way overflow table:
  // the decoder must reject it before any engine divides by the ways.
  std::string Mutant = tmpPath("assoc0");
  {
    trace::TraceHeader H;
    H.Hw.OverflowTableAssoc = 0;
    trace::Writer W(Mutant, H);
    W.finish(interp::RunResult{});
  }
  std::optional<trace::ErrorKind> Err = strictRead(Mutant);
  ASSERT_TRUE(Err.has_value());
  EXPECT_EQ(*Err, trace::ErrorKind::BadRecord);
  std::remove(Mutant.c_str());
}

TEST_F(TraceFuzz, FooterClaimingTooManyEventsIsTypedError) {
  // A footer with a valid CRC that claims 2^44 events. The O(1) footer
  // read accepts it; the stream check must reject it as FooterMismatch,
  // and CachedTrace must not fail earlier by reserving 2^44 events.
  const std::vector<std::uint8_t> &P = *Pristine;
  constexpr std::size_t TrailerSize = 4 + sizeof(trace::EndMagic);
  std::size_t At = P.size() - TrailerSize;
  std::uint32_t BlockSize = static_cast<std::uint32_t>(P[At]) |
                            static_cast<std::uint32_t>(P[At + 1]) << 8 |
                            static_cast<std::uint32_t>(P[At + 2]) << 16 |
                            static_cast<std::uint32_t>(P[At + 3]) << 24;
  std::size_t FooterStart = At - BlockSize;
  auto WithFooter = [&](const trace::TraceFooter &F) {
    std::vector<std::uint8_t> B(P.begin(),
                                P.begin() +
                                    static_cast<std::ptrdiff_t>(FooterStart));
    appendFooter(B, F);
    return B;
  };
  trace::TraceFooter F = trace::Reader(*Path).footer();
  ASSERT_TRUE(WithFooter(F) == P) << "the footer forgery is not faithful";

  std::string Mutant = tmpPath("footer-events");
  F.TotalEvents = std::uint64_t(1) << 44;
  writeFile(Mutant, WithFooter(F));
  EXPECT_EQ(trace::Reader(Mutant).footer().TotalEvents, F.TotalEvents);
  std::optional<trace::ErrorKind> Err = strictRead(Mutant);
  ASSERT_TRUE(Err.has_value());
  EXPECT_EQ(*Err, trace::ErrorKind::FooterMismatch);
  try {
    trace::CachedTrace T(Mutant);
    FAIL() << "a trace whose footer claims 2^44 events loaded";
  } catch (const trace::Error &E) {
    EXPECT_EQ(E.kind(), trace::ErrorKind::FooterMismatch);
  }
  std::remove(Mutant.c_str());
}

TEST_F(TraceFuzz, ForgedTraceOfBoundaryValuesLoadsExactly) {
  // The forgery below is faithful: a stream of every field at the edge of
  // its Event field, encoded by the Writer's encoder, loads unchanged.
  std::vector<trace::Event> Events = {
      {.Kind = trace::EventKind::HeapLoad, .Cycle = 10, .Addr = UINT32_MAX,
       .Pc = INT32_MAX},
      {.Kind = trace::EventKind::HeapStore, .Cycle = 10, .Addr = 0,
       .Pc = INT32_MIN},
      {.Kind = trace::EventKind::LocalLoad, .Cycle = 11, .Activation = 3,
       .Reg = UINT16_MAX, .Pc = 0},
      {.Kind = trace::EventKind::LoopIter, .Cycle = 12,
       .LoopId = ForgedLoops - 1},
  };
  ForgedChunk C{{}, static_cast<std::uint32_t>(Events.size())};
  trace::DeltaState D;
  for (const trace::Event &E : Events) {
    std::uint8_t Buf[trace::MaxEventWireBytes];
    C.Payload.insert(C.Payload.end(), Buf, trace::encodeEvent(Buf, E, D));
  }
  std::string Mutant = tmpPath("forged-edges");
  writeFile(Mutant, forgeTrace({C}, Events));
  trace::CachedTrace T(Mutant);
  std::vector<trace::Event> Loaded;
  T.forEach([&](const trace::Event &E) { Loaded.push_back(E); });
  EXPECT_TRUE(Loaded == Events);
  std::remove(Mutant.c_str());
}

TEST_F(TraceFuzz, FieldWiderThanItsEventFieldIsRejected) {
  // A wire value the Event field cannot hold must not be narrowed into a
  // different, valid-looking event: each is an EventOutOfRange naming the
  // value on the wire. Each footer counts the event a bare cast would
  // give, so nothing but the field check can reject the file.
  using trace::EventKind;
  constexpr std::uint64_t Two32 = std::uint64_t(1) << 32;
  struct Case {
    const char *Name;
    std::vector<std::uint8_t> Payload;
    trace::Event Narrowed;
    const char *WireValue;
  } Cases[] = {
      {"loop id 2^32", bytes({5}, {20, Two32}),
       {.Kind = EventKind::LoopIter, .Cycle = 10, .LoopId = 0},
       "4294967296"},
      {"loop id 2^32 + table size", bytes({5}, {20, Two32 + ForgedLoops}),
       {.Kind = EventKind::LoopIter, .Cycle = 10, .LoopId = ForgedLoops},
       "4294967302"},
      {"loop id 2^32 in a LoopStart", bytes({4}, {20, Two32, 2}),
       {.Kind = EventKind::LoopStart, .Cycle = 10, .Activation = 1},
       "4294967296"},
      {"register 2^16", bytes({2}, {20, 2, 1u << 16, 2}),
       {.Kind = EventKind::LocalLoad, .Cycle = 10, .Activation = 1, .Pc = 1},
       "65536"},
      {"address 2^32", bytes({0}, {20, trace::zigzag(Two32), 2}),
       {.Kind = EventKind::HeapLoad, .Cycle = 10, .Pc = 1}, "4294967296"},
      {"pc 2^31", bytes({8}, {20, trace::zigzag(Two32 / 2)}),
       {.Kind = EventKind::CallSite, .Cycle = 10, .Pc = INT32_MIN},
       "2147483648"},
      {"pc -2^31 - 1",
       bytes({8}, {20, trace::zigzag(-static_cast<std::int64_t>(Two32 / 2) -
                                     1)}),
       {.Kind = EventKind::CallSite, .Cycle = 10, .Pc = INT32_MAX},
       "-2147483649"},
  };
  std::string Mutant = tmpPath("wide-field");
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    writeFile(Mutant, forgeTrace({{C.Payload}}, {C.Narrowed}));
    try {
      trace::CachedTrace T(Mutant);
      ADD_FAILURE() << "loaded without error";
    } catch (const trace::Error &E) {
      EXPECT_EQ(E.kind(), trace::ErrorKind::EventOutOfRange) << E.what();
      EXPECT_NE(std::string(E.what()).find(C.WireValue), std::string::npos)
          << E.what();
    }
  }
  std::remove(Mutant.c_str());
}

TEST_F(TraceFuzz, EveryPayloadErrorHasItsKind) {
  // Chunk payloads with recomputed CRCs, so each error reaches the event
  // decoder instead of stopping at the checksum. Kind 5 is LoopIter: a
  // cycle delta (zigzag 20 = +10) and a loop id. The missing varint
  // follows a longer chunk, so the byte just past its payload is a stale
  // loop id 0: a decoder that reads past the end sees a valid event there
  // and fails this test, whatever the allocator left behind.
  using trace::ErrorKind;
  const std::vector<std::uint8_t> Nine(9, 0x80);
  auto Overlong = [&](std::vector<std::uint8_t> Tail) {
    std::vector<std::uint8_t> B = {5, 20};
    B.insert(B.end(), Nine.begin(), Nine.end());
    B.insert(B.end(), Tail.begin(), Tail.end());
    return B;
  };
  struct Case {
    const char *Name;
    std::vector<ForgedChunk> Chunks;
    ErrorKind Kind;
  } Cases[] = {
      {"varint still open at the end", {{{5, 20, 0x80}}}, ErrorKind::BadVarint},
      {"varint missing at the end", {{{5, 20, 0, 5, 0, 0}, 2}, {{5, 20}}},
       ErrorKind::BadVarint},
      {"11-byte varint", {{Overlong({0x80, 0x01})}}, ErrorKind::BadVarint},
      {"10th varint byte above 1", {{Overlong({0x02})}}, ErrorKind::BadVarint},
      {"kind byte 11", {{{11, 20}}}, ErrorKind::UnknownEventKind},
      {"kind byte 255", {{{255, 20}}}, ErrorKind::UnknownEventKind},
      {"loop id equal to the table size", {{bytes({5}, {20, ForgedLoops})}},
       ErrorKind::EventOutOfRange},
      {"cycle delta that goes backwards",
       {{bytes({5}, {20, 0, 5, trace::zigzag(-1), 0}), 2}},
       ErrorKind::NonMonotonicCycle},
      {"declared event count above the payload", {{{5, 20, 0}, 2}},
       ErrorKind::Truncated},
      {"declared event count below the payload", {{{5, 20, 0, 5, 2, 0}, 1}},
       ErrorKind::BadRecord},
  };
  std::string Mutant = tmpPath("payload");
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    writeFile(Mutant, forgeTrace(C.Chunks, {}));
    std::optional<trace::ErrorKind> Err = strictRead(Mutant);
    ASSERT_TRUE(Err.has_value());
    EXPECT_EQ(*Err, C.Kind) << trace::errorKindName(*Err);
  }
  std::remove(Mutant.c_str());
}
