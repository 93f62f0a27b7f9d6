//===- tests/trace_replay_test.cpp - Record/replay equivalence -------------==//
//
// The trace subsystem's core contract: recording an annotated profiling
// run and replaying it into a fresh TraceEngine must reproduce the live
// run's SelectionResult bit-for-bit — per-loop statistics, Equation 1
// estimates, chosen STLs, and predicted speedups — and its tracer.*
// metrics, for every registry workload at both annotation levels. The
// live run's cycles, selection digest and peaks, and the plain run, are
// pinned per workload and level (PinnedRuns, the record of the seed
// interpreter's and seed tracer's output).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "jrpm/Pipeline.h"
#include "sweep/Conformance.h"
#include "trace/Dump.h"
#include "trace/Replay.h"
#include "trace/Wire.h"
#include "trace/Writer.h"
#include "tracer/Selector.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

using namespace jrpm;

namespace {

/// One scratch .jtrace inside a ScopedTempDir.
class TempTrace {
public:
  explicit TempTrace(const std::string &Tag)
      : Dir("jrpm-trace-test"), P(Dir.file(Tag + ".jtrace")) {}
  const std::string &path() const { return P; }

private:
  testutil::ScopedTempDir Dir;
  std::string P;
};

pipeline::PipelineConfig captureConfig(const workloads::Workload &W,
                                       jit::AnnotationLevel Level,
                                       const std::string &Path) {
  pipeline::PipelineConfig Cfg;
  Cfg.Level = Level;
  Cfg.ExtendedPcBinning = true;
  Cfg.WorkloadName = W.Name;
  Cfg.RecordTracePath = Path;
  return Cfg;
}

/// One (workload, level) row of the pinned table below.
struct PinnedRun {
  const char *Workload;
  const char *Level;
  // The live profiled run.
  std::uint64_t Cycles;
  std::uint64_t Instructions;
  std::uint64_t ReturnValue;
  std::uint64_t Digest; ///< tracer::selectionDigest, extended PC bins
  std::uint32_t PeakBanks;
  std::uint32_t PeakSlots;
  std::uint32_t PeakNest;
  // The plain sequential run; base rows only, zero on opt rows.
  std::uint64_t PlainCycles = 0;
  std::uint64_t PlainInstructions = 0;
  std::uint64_t PlainReturnValue = 0;
};

/// The record of the seed engines' output on the whole registry. The
/// values were taken from the flat CodeImage interpreter and the SoA
/// TraceEngine on a build where both had just matched, bit for bit,
/// embedded copies of the seed nested-layout interpreter (cycles,
/// instructions, return values) and the seed per-event tracer (every
/// StlStats field with extended PC bins, dynamic parents, the three
/// peaks). The digest hashes every StlStats field, the PC bins and each
/// loop's parent and children. The digests without extended binning are
/// pinned by the "default" rows of tests/golden/conformance_full.json
/// (selection_digest), so this table does not repeat them.
const PinnedRun PinnedRuns[] = {
    {"Assignment", "base", 645503, 550010, 40436, 0xe6c22c47027a4ba5, 3, 2, 3,
     580401, 498083, 40436},
    {"Assignment", "opt", 632927, 549486, 40436, 0xa8450b360cb1b98a, 3, 2, 3},
    {"BitOps", "base", 862031, 505801, 1804887632674309312, 0xb634144a7da47e19,
     1, 0, 1, 838698, 482593, 1804887632674309312},
    {"BitOps", "opt", 862031, 505801, 1804887632674309312, 0xb634144a7da47e19,
     1, 0, 1},
    {"compress", "base", 873554, 564159, 100191386007537, 0x76429ab4547e306f, 2,
     6, 2, 615637, 433017, 100191386007537},
    {"compress", "opt", 742402, 549502, 100191386007537, 0xe3aa30752bc2cbe7, 2,
     6, 2},
    {"db", "base", 5567963, 3712652, 4611116, 0x331d0c166298734e, 2, 2, 2,
     3047171, 2577435, 4611116},
    {"db", "opt", 4130859, 3549863, 4611116, 0x6db962b77baaf596, 2, 2, 2},
    {"deltaBlue", "base", 199247, 142452, 40197932, 0x6eb0196f1405fcc5, 2, 2, 2,
     191388, 135093, 40197932},
    {"deltaBlue", "opt", 198496, 142023, 40197932, 0x1f4c724ff1b66401, 2, 2, 2},
    {"EmFloatPnt", "base", 48451, 41580, 248383061367, 0x2f786f6ac2717075, 2, 0,
     2, 47468, 40747, 248383061367},
    {"EmFloatPnt", "opt", 48379, 41577, 248383061367, 0x66b72feca586ec6a, 2, 0,
     2},
    {"Huffman", "base", 907126, 682537, 5254809795930, 0x1418a29a3bcd2980, 2, 2,
     2, 626443, 532454, 5254809795930},
    {"Huffman", "opt", 772516, 667872, 5254809795930, 0xbcf23349d42bcee8, 2, 2,
     2},
    {"IDEA", "base", 706720, 475886, 14907476757756, 0x8b80e32695764d0e, 2, 4,
     2, 611700, 390566, 14907476757756},
    {"IDEA", "opt", 648352, 426350, 14907476757756, 0x8838d87e3ec72b0d, 2, 4,
     2},
    {"jess", "base", 569646, 377757, 558449, 0x0b29b4379da8acbf, 4, 1, 4,
     535693, 349254, 558449},
    {"jess", "opt", 564038, 377071, 558449, 0x181576d93812f005, 4, 1, 4},
    {"jLex", "base", 678031, 608923, 136054416, 0x1335b4bf6fda82eb, 3, 2, 3,
     554773, 515640, 136054416},
    {"jLex", "opt", 644817, 603125, 136054416, 0xebbabef1203af950, 3, 2, 3},
    {"MipsSimulator", "base", 964116, 721797, 107372109865153,
     0xaf69ab2450a5e47a, 2, 2, 2, 786118, 592399, 107372109865153},
    {"MipsSimulator", "opt", 869604, 671859, 107372109865153,
     0x5d6c93ae78f21804, 2, 2, 2},
    {"monteCarlo", "base", 361604, 266193, 1974693785, 0x4fa27110f95c0f43, 2, 2,
     2, 303144, 215783, 1974693785},
    {"monteCarlo", "opt", 346244, 258193, 1974693785, 0xbc5de6aba796ab2e, 2, 2,
     2},
    {"NumHeapSort", "base", 885680, 790577, 76602359, 0x7f7de97c9e9bb090, 2, 2,
     2, 646157, 626154, 76602359},
    {"NumHeapSort", "opt", 867609, 772506, 76602359, 0x41731aa3f79927a5, 2, 2,
     2},
    {"raytrace", "base", 356351, 260098, 96115, 0x7e40e7741e5fa4e3, 3, 2, 3,
     306744, 243866, 96115},
    {"raytrace", "opt", 324383, 258766, 96115, 0xf2d3c39f88502670, 3, 2, 3},
    {"euler", "base", 455740, 417890, 71023187, 0xf7a04e07af047774, 3, 0, 3,
     404306, 400131, 71023187},
    {"euler", "opt", 423484, 416546, 71023187, 0xf0193895cefb9044, 3, 0, 3},
    {"fft", "base", 515356, 437276, 43016729, 0x157c479ecd79f5b2, 2, 2, 2,
     383683, 356878, 43016729},
    {"fft", "opt", 480540, 426012, 43016729, 0xff9d85fda6f49e9c, 2, 2, 2},
    {"FourierTest", "base", 1091981, 723530, 18446744073708904898u,
     0x88e024e89d350764, 3, 1, 3, 917585, 658384, 18446744073708904898u},
    {"FourierTest", "opt", 1090829, 723482, 18446744073708904898u,
     0x6450f507217f93cf, 3, 1, 3},
    {"LuFactor", "base", 2161446, 1977353, 35067873, 0xa8fd3a7dcd46db5c, 3, 2,
     3, 2001153, 1870760, 35067873},
    {"LuFactor", "opt", 2110038, 1975211, 35067873, 0x15f177ec6ec32c56, 3, 2,
     3},
    {"moldyn", "base", 177111, 162891, 62315396, 0x2162fdbefed04b3e, 3, 0, 3,
     165837, 156692, 62315396},
    {"moldyn", "opt", 172311, 162691, 62315396, 0xda9effb46d7ad1e9, 3, 0, 3},
    {"NeuralNet", "base", 1507644, 1337410, 18446744073708885771u,
     0x4f2724f697c9f07f, 4, 0, 4, 1263804, 1239795, 18446744073708885771u},
    {"NeuralNet", "opt", 1367436, 1331568, 18446744073708885771u,
     0xf3788fe507f7948b, 4, 0, 4},
    {"shallow", "base", 2579148, 2066632, 2870433533, 0xb40709a5e44c3443, 3, 0,
     3, 2524494, 2024653, 2870433533},
    {"shallow", "opt", 2567052, 2066128, 2870433533, 0xa05a04b4c0c9ebc4, 3, 0,
     3},
    {"decJpeg", "base", 807131, 654118, 4904539, 0xdce3b532e3e0ed94, 3, 0, 3,
     713247, 610334, 4904539},
    {"decJpeg", "opt", 759131, 652118, 4904539, 0x1d1bcc46b4b2106a, 3, 0, 3},
    {"encJpeg", "base", 724832, 595250, 24073171241044, 0x2fe662febe5d8a72, 3,
     2, 3, 593416, 506859, 24073171241044},
    {"encJpeg", "opt", 675238, 585124, 24073171241044, 0xd6dfef1c3c8ef1a0, 3, 2,
     3},
    {"h263dec", "base", 3068667, 2559148, 6168822, 0x3af70dcb733db08e, 4, 0, 4,
     2889127, 2433358, 6168822},
    {"h263dec", "opt", 3017163, 2557002, 6168822, 0x9d9a54635c292489, 4, 0, 4},
    {"mpegVideo", "base", 2025735, 1546350, 7826322, 0xa41542043bbe361e, 4, 0,
     4, 1843839, 1456954, 7826322},
    {"mpegVideo", "opt", 1937031, 1542654, 7826322, 0xbd4207d7e56ae6f8, 4, 0,
     4},
    {"mp3", "base", 777472, 704754, 83194066026441, 0xfc93b1de81aa9f71, 3, 1, 3,
     661246, 648953, 83194066026441},
    {"mp3", "opt", 719584, 702342, 83194066026441, 0xf2b3ea7e199130b6, 3, 1, 3},
};

std::vector<std::uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(In)),
                                   std::istreambuf_iterator<char>());
}

std::vector<trace::Event> eventsOf(const trace::CachedTrace &T) {
  std::vector<trace::Event> Out;
  T.forEach([&](const trace::Event &E) { Out.push_back(E); });
  return Out;
}

/// Every event kind at extreme field values: cycles and activations on
/// both sides of 2^32 and 2^44, the widest register, address and loop id,
/// and the extreme PCs. Cycles never
/// decrease, so the stream is also a valid .jtrace event stream when the
/// header's loop table covers \p LoopId.
std::vector<trace::Event> extremeEvents(std::uint32_t LoopId) {
  using K = trace::EventKind;
  const std::uint64_t Cycles[] = {0,       1,        (1ull << 44) - 1,
                                  1ull << 44, 1ull << 63, ~0ull};
  const std::uint64_t Acts[] = {0,          (1ull << 32) - 1, 1ull << 32,
                                1ull << 63, ~0ull};
  const std::int32_t Pcs[] = {-1, INT32_MIN, INT32_MAX, 0};
  std::vector<trace::Event> Out;
  std::size_t I = 0;
  for (std::uint64_t Cycle : Cycles) {
    for (std::uint64_t Act : Acts) {
      std::int32_t Pc = Pcs[I++ % std::size(Pcs)];
      std::uint16_t Reg = I % 2 ? 0xFFFF : 0;
      Out.push_back({.Kind = K::HeapLoad, .Cycle = Cycle,
                     .Addr = 0xFFFFFFFF, .Pc = Pc});
      Out.push_back({.Kind = K::HeapStore, .Cycle = Cycle, .Pc = Pc});
      Out.push_back({.Kind = K::LocalLoad, .Cycle = Cycle,
                     .Activation = Act, .Reg = Reg, .Pc = Pc});
      Out.push_back({.Kind = K::LocalStore, .Cycle = Cycle,
                     .Activation = Act, .Reg = 0xFFFF, .Pc = Pc});
      Out.push_back({.Kind = K::LoopStart, .Cycle = Cycle,
                     .Activation = Act, .LoopId = LoopId});
      Out.push_back({.Kind = K::LoopIter, .Cycle = Cycle, .LoopId = LoopId});
      Out.push_back({.Kind = K::LoopEnd, .Cycle = Cycle, .LoopId = LoopId});
      Out.push_back({.Kind = K::Return, .Activation = Act});
      Out.push_back({.Kind = K::CallSite, .Cycle = Cycle, .Pc = Pc});
      Out.push_back({.Kind = K::CallReturn, .Cycle = Cycle});
      Out.push_back({.Kind = K::ReadStats, .Cycle = Cycle, .LoopId = LoopId});
    }
  }
  return Out;
}

} // namespace

TEST(CachedTrace, PackingKeepsExtremeEventsExactly) {
  // In memory: the largest loop id, plus fields a kind does not carry set
  // away from their defaults, which only the escape path can keep.
  std::vector<trace::Event> Events = extremeEvents(UINT32_MAX);
  Events.push_back({.Kind = trace::EventKind::HeapLoad, .Activation = 3,
                    .LoopId = 9});
  Events.push_back({.Kind = trace::EventKind::CallReturn, .Pc = 12});
  Events.push_back({.Kind = trace::EventKind::Return, .Cycle = 5});
  trace::CachedTrace Memory{trace::TraceHeader{}};
  for (const trace::Event &E : Events)
    Memory.append(E);
  EXPECT_TRUE(eventsOf(Memory) == Events);
  EXPECT_EQ(Memory.footer().TotalEvents, Events.size());
  // Narrow events take one 8-byte record; escaped ones add an Event.
  EXPECT_GT(Memory.eventBytes(), 8 * Events.size());
  EXPECT_LT(Memory.eventBytes(), sizeof(trace::Event) * Events.size());

  // Through a .jtrace file and back.
  constexpr std::uint32_t LoopId = 4095;
  Events = extremeEvents(LoopId);
  trace::TraceHeader H;
  H.LoopLocals.resize(LoopId + 1);
  trace::CachedTrace Captured(H);
  for (const trace::Event &E : Events)
    Captured.append(E);
  interp::RunResult Run{.Cycles = ~0ull, .Instructions = 1ull << 44,
                        .ReturnValue = 1ull << 63};
  Captured.finish(Run);
  TempTrace Tmp("extreme");
  {
    trace::Writer W(Tmp.path(), Captured.header());
    Captured.forEach([&](const trace::Event &E) { W.append(E); });
    W.finish(Captured.footer().Run);
  }
  trace::CachedTrace Loaded(Tmp.path());
  EXPECT_TRUE(eventsOf(Loaded) == Events);
  EXPECT_EQ(Loaded.footer().TotalEvents, Events.size());
  EXPECT_EQ(Loaded.footer().LastCycle, ~0ull);
  EXPECT_TRUE(Loaded.footer().Run == Run);
  EXPECT_EQ(Loaded.eventBytes(), Captured.eventBytes());
}

namespace {

/// Appends \p Events to a fresh CachedTrace, checks that forEach gives
/// them back unchanged, and returns how many took the escape path.
std::uint64_t escapedEvents(const std::vector<trace::Event> &Events) {
  trace::CachedTrace T{trace::TraceHeader{}};
  for (const trace::Event &E : Events)
    T.append(E);
  EXPECT_TRUE(eventsOf(T) == Events);
  std::uint64_t Extra = T.eventBytes() - 8 * Events.size();
  EXPECT_EQ(Extra % sizeof(trace::Event), 0u);
  return Extra / sizeof(trace::Event);
}

/// A stream of events and how many of them take the escape path.
struct EdgeCase {
  const char *What;
  std::vector<trace::Event> Events;
  std::uint64_t Escaped;
};

/// Each case sits on one edge of the 8-byte record: the last value that
/// packs narrow, and the first that has to escape.
std::vector<EdgeCase> recordWindowEdgeCases() {
  using K = trace::EventKind;
  constexpr std::uint64_t Base = 1ull << 40; // an activation to go below
  return {
      {"cycle delta 4095",
       {{.Kind = K::LoopIter, .Cycle = 100},
        {.Kind = K::LoopIter, .Cycle = 100 + 4095},
        {.Kind = K::CallReturn, .Cycle = 100 + 2 * 4095}},
       0},
      {"cycle delta 4096",
       {{.Kind = K::LoopIter, .Cycle = 100},
        {.Kind = K::LoopIter, .Cycle = 100 + 4096}},
       1},
      {"local activation delta 2^15-1",
       {{.Kind = K::LocalLoad, .Activation = (1u << 15) - 1, .Pc = 0}},
       0},
      {"local activation delta 2^15",
       {{.Kind = K::LocalLoad, .Activation = 1u << 15, .Pc = 0}},
       1},
      {"local activation delta -2^15",
       {{.Kind = K::Return, .Activation = Base},
        {.Kind = K::LocalStore, .Activation = Base - (1u << 15), .Pc = 0}},
       0},
      {"local activation delta -2^15-1",
       {{.Kind = K::Return, .Activation = Base},
        {.Kind = K::LocalStore, .Activation = Base - (1u << 15) - 1,
         .Pc = 0}},
       1},
      {"LoopStart activation delta 2^31-1 and -2^31",
       {{.Kind = K::LoopStart, .Activation = (1ull << 31) - 1},
        {.Kind = K::LoopStart, .Activation = ~0ull}},
       0},
      {"LoopStart activation delta 2^31",
       {{.Kind = K::LoopStart, .Activation = 1ull << 31}},
       1},
      {"LoopStart activation delta -2^31-1",
       {{.Kind = K::Return, .Activation = Base},
        {.Kind = K::LoopStart, .Activation = Base - (1ull << 31) - 1}},
       1},
      {"Return activation delta 2^47-1 and -2^47",
       {{.Kind = K::Return, .Activation = (1ull << 47) - 1},
        {.Kind = K::Return, .Activation = ~0ull}},
       0},
      {"Return activation delta 2^47",
       {{.Kind = K::Return, .Activation = 1ull << 47}},
       1},
      {"Return activation delta -2^47-1",
       {{.Kind = K::Return, .Activation = (1ull << 47) - 1},
        {.Kind = K::Return, .Activation = ~0ull - 1}},
       1},
      {"Pc 65534",
       {{.Kind = K::HeapLoad, .Addr = 0xFFFFFFFF, .Pc = 65534},
        {.Kind = K::LocalLoad, .Reg = 0xFFFF, .Pc = 65534},
        {.Kind = K::CallSite, .Pc = INT32_MAX},
        {.Kind = K::CallSite, .Pc = INT32_MIN}},
       0},
      {"Pc 65535",
       {{.Kind = K::HeapStore, .Pc = 65535},
        {.Kind = K::LocalStore, .Pc = 65535}},
       2},
      {"LoopStart loop id 65535",
       {{.Kind = K::LoopStart, .LoopId = 65535},
        {.Kind = K::ReadStats, .LoopId = UINT32_MAX}},
       0},
      {"LoopStart loop id 65536",
       {{.Kind = K::LoopStart, .LoopId = 65536}},
       1},
      {"narrow events after an escape",
       {{.Kind = K::LocalLoad, .Cycle = 1ull << 50, .Activation = Base,
         .Pc = 7},
        {.Kind = K::LocalLoad, .Cycle = (1ull << 50) + 1,
         .Activation = Base + 1, .Pc = 7},
        {.Kind = K::LoopEnd, .Cycle = (1ull << 50) + 4096}},
       1},
      {"a trace that starts with Return",
       {{.Kind = K::Return, .Activation = 5},
        {.Kind = K::LocalLoad, .Cycle = 4000, .Activation = 5, .Pc = 1},
        {.Kind = K::Return, .Activation = 4},
        {.Kind = K::LoopIter, .Cycle = 8000}},
       0},
  };
}

} // namespace

TEST(CachedTrace, RecordWindowEdgesRoundTrip) {
  for (const EdgeCase &C : recordWindowEdgeCases()) {
    SCOPED_TRACE(C.What);
    EXPECT_EQ(escapedEvents(C.Events), C.Escaped);
  }
}

namespace {

/// One TraceSink call: the method, named by its event kind, and its
/// arguments in order.
struct SinkCall {
  trace::EventKind Method;
  std::uint64_t Args[4] = {};

  bool operator==(const SinkCall &O) const = default;
};

/// Logs every call of all 11 TraceSink methods. Final, like the tracer, so
/// CachedTrace::replay calls it directly.
class CallLog final : public interp::TraceSink {
public:
  std::vector<SinkCall> Calls;

  std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                           std::int32_t Pc) override {
    return log(trace::EventKind::HeapLoad, Addr, Cycle, Pc);
  }
  std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                            std::int32_t Pc) override {
    return log(trace::EventKind::HeapStore, Addr, Cycle, Pc);
  }
  std::uint32_t onLocalLoad(std::uint64_t Activation, std::uint16_t Reg,
                            std::uint64_t Cycle, std::int32_t Pc) override {
    return log(trace::EventKind::LocalLoad, Activation, Reg, Cycle, Pc);
  }
  std::uint32_t onLocalStore(std::uint64_t Activation, std::uint16_t Reg,
                             std::uint64_t Cycle, std::int32_t Pc) override {
    return log(trace::EventKind::LocalStore, Activation, Reg, Cycle, Pc);
  }
  std::uint32_t onLoopStart(std::uint32_t LoopId, std::uint64_t Activation,
                            std::uint64_t Cycle) override {
    return log(trace::EventKind::LoopStart, LoopId, Activation, Cycle);
  }
  std::uint32_t onLoopIter(std::uint32_t LoopId,
                           std::uint64_t Cycle) override {
    return log(trace::EventKind::LoopIter, LoopId, Cycle);
  }
  std::uint32_t onLoopEnd(std::uint32_t LoopId, std::uint64_t Cycle) override {
    return log(trace::EventKind::LoopEnd, LoopId, Cycle);
  }
  void onReturn(std::uint64_t Activation) override {
    log(trace::EventKind::Return, Activation);
  }
  void onCallSite(std::int32_t CallPc, std::uint64_t Cycle) override {
    log(trace::EventKind::CallSite, CallPc, Cycle);
  }
  void onCallReturn(std::uint64_t Cycle) override {
    log(trace::EventKind::CallReturn, Cycle);
  }
  std::uint32_t onReadStats(std::uint32_t LoopId,
                            std::uint64_t Cycle) override {
    return log(trace::EventKind::ReadStats, LoopId, Cycle);
  }

private:
  std::uint32_t log(trace::EventKind K, std::uint64_t A, std::uint64_t B = 0,
                    std::uint64_t C = 0, std::uint64_t D = 0) {
    Calls.push_back({K, {A, B, C, D}});
    return 0;
  }
};

/// Appends \p Events to a fresh CachedTrace and checks that replay()
/// makes the calls of forEach() + dispatchEvent(), and that both make the
/// calls of dispatching \p Events themselves. Returns how many events
/// took the escape path.
std::uint64_t expectReplayCallsMatch(const std::vector<trace::Event> &Events) {
  trace::CachedTrace T{trace::TraceHeader{}};
  CallLog Appended, Dispatched, Replayed;
  for (const trace::Event &E : Events) {
    T.append(E);
    trace::dispatchEvent(E, Appended);
  }
  T.forEach(
      [&](const trace::Event &E) { trace::dispatchEvent(E, Dispatched); });
  T.replay(Replayed);
  EXPECT_EQ(Replayed.Calls.size(), Events.size());
  EXPECT_TRUE(Replayed.Calls == Dispatched.Calls);
  EXPECT_TRUE(Dispatched.Calls == Appended.Calls);
  return (T.eventBytes() - 8 * Events.size()) / sizeof(trace::Event);
}

} // namespace

TEST(CachedTrace, ReplayCallsMatchForEachOnEdgeEvents) {
  for (std::uint32_t LoopId : {4095u, UINT32_MAX}) {
    SCOPED_TRACE(LoopId);
    expectReplayCallsMatch(extremeEvents(LoopId));
  }
  // The direct path only runs on narrow records, so each edge stream must
  // still split into narrow and escaped events as it was written to.
  for (const EdgeCase &C : recordWindowEdgeCases()) {
    SCOPED_TRACE(C.What);
    EXPECT_EQ(expectReplayCallsMatch(C.Events), C.Escaped);
  }
}

TEST(TraceReplay, SelectionBitIdenticalOnAllWorkloads) {
  const std::vector<workloads::Workload> &All = workloads::allWorkloads();
  ASSERT_EQ(std::size(PinnedRuns), 2 * All.size());
  const PinnedRun *Row = PinnedRuns;
  for (const workloads::Workload &W : All) {
    for (jit::AnnotationLevel Level :
         {jit::AnnotationLevel::Base, jit::AnnotationLevel::Optimized}) {
      const bool IsBase = Level == jit::AnnotationLevel::Base;
      const char *LevelName = IsBase ? "base" : "opt";
      SCOPED_TRACE(W.Name + " (" + LevelName + ")");
      ASSERT_EQ(W.Name, Row->Workload);
      ASSERT_STREQ(LevelName, Row->Level);
      TempTrace Tmp(W.Name + "-" + LevelName);

      metrics::Registry LiveMetrics;
      pipeline::PipelineConfig Cfg = captureConfig(W, Level, Tmp.path());
      Cfg.Metrics = &LiveMetrics;
      pipeline::Jrpm J(W.Build(), Cfg);
      pipeline::Jrpm::ProfileOutcome Live = J.profileAndSelect();

      metrics::Registry ReplayMetrics;
      trace::ReplayConfig RC;
      trace::copyTracerConfig(Cfg, RC);
      RC.Metrics = &ReplayMetrics;
      trace::ReplayOutcome Replayed =
          trace::selectFromTrace(trace::CachedTrace(Tmp.path()), RC);

      // Bit-identical selection: exact equality, doubles included.
      EXPECT_TRUE(Live.Selection == Replayed.Selection);
      // The recorded run itself round-trips through the footer.
      EXPECT_EQ(Live.Run.Cycles, Replayed.Run.Cycles);
      EXPECT_EQ(Live.Run.Instructions, Replayed.Run.Instructions);
      EXPECT_EQ(Live.Run.ReturnValue, Replayed.Run.ReturnValue);
      EXPECT_EQ(Live.Run.Loads, Replayed.Run.Loads);
      EXPECT_EQ(Live.Run.Stores, Replayed.Run.Stores);
      EXPECT_EQ(Live.Run.L1Misses, Replayed.Run.L1Misses);
      // Hardware occupancy peaks come out of the same engine state.
      EXPECT_EQ(Live.PeakBanksInUse, Replayed.PeakBanksInUse);
      EXPECT_EQ(Live.PeakLocalSlots, Replayed.PeakLocalSlots);
      EXPECT_EQ(Live.PeakDynamicNest, Replayed.PeakDynamicNest);
      // The tracer's metrics are a pure function of the event stream. The
      // replay also exports trace.events_replayed and the live run
      // interp.profiled.*, so only the tracer namespace is comparable.
      const std::string LiveTracer =
          testutil::dumpWithPrefix(LiveMetrics, "tracer.");
      EXPECT_NE(LiveTracer, "{}");
      EXPECT_EQ(LiveTracer, testutil::dumpWithPrefix(ReplayMetrics, "tracer."));
      EXPECT_GT(testutil::counterValue(ReplayMetrics, "trace.events_replayed"),
                0u);

      // The pinned row.
      EXPECT_EQ(Live.Run.Cycles, Row->Cycles);
      EXPECT_EQ(Live.Run.Instructions, Row->Instructions);
      EXPECT_EQ(Live.Run.ReturnValue, Row->ReturnValue);
      EXPECT_EQ(tracer::selectionDigest(Live.Selection), Row->Digest);
      EXPECT_EQ(Live.PeakBanksInUse, Row->PeakBanks);
      EXPECT_EQ(Live.PeakLocalSlots, Row->PeakSlots);
      EXPECT_EQ(Live.PeakDynamicNest, Row->PeakNest);
      if (IsBase) {
        interp::RunResult Plain = J.runPlain();
        EXPECT_EQ(Plain.Cycles, Row->PlainCycles);
        EXPECT_EQ(Plain.Instructions, Row->PlainInstructions);
        EXPECT_EQ(Plain.ReturnValue, Row->PlainReturnValue);
      }
      ++Row;
    }
  }
}

namespace {

/// selectFromTrace(const CachedTrace &, Cfg) rebuilt on the Event path:
/// forEach() + dispatchEvent() into a TraceEngine seen as a TraceSink.
trace::ReplayOutcome dispatchReplay(const trace::CachedTrace &T,
                                    const trace::ReplayConfig &Cfg) {
  tracer::TraceEngine Engine(Cfg.Hw, T.header().LoopLocals,
                             Cfg.ExtendedPcBinning);
  Engine.setDisableLoopAfterThreads(Cfg.DisableLoopAfterThreads);
  interp::TraceSink &Sink = Engine;
  trace::ReplayOutcome Out;
  T.forEach([&](const trace::Event &E) {
    trace::dispatchEvent(E, Sink);
    ++Out.EventsReplayed;
  });
  Out.Run = T.footer().Run;
  Out.Selection = tracer::selectStls(Engine, Out.Run.Cycles, Cfg.Hw);
  Out.PeakBanksInUse = Engine.peakBanksInUse();
  Out.PeakLocalSlots = Engine.peakLocalSlots();
  Out.PeakDynamicNest = Engine.peakDynamicNest();
  if (Cfg.Metrics)
    Engine.exportMetrics(*Cfg.Metrics);
  return Out;
}

} // namespace

TEST(TraceReplay, DirectReplayMatchesEventDispatchAtEveryGeometry) {
  // perfbench tracer-sweep's grid over every registry capture.
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    pipeline::PipelineConfig Cfg =
        captureConfig(W, jit::AnnotationLevel::Optimized, "");
    const trace::CachedTrace T =
        pipeline::Jrpm(W.Build(), Cfg).profileInMemory().Trace;
    for (std::uint32_t Banks : {1u, 2u, 8u}) {
      for (std::uint32_t History : {48u, 192u, 768u}) {
        SCOPED_TRACE(W.Name + " banks " + std::to_string(Banks) +
                     " history " + std::to_string(History));
        trace::ReplayConfig RC = trace::recordedConfig(T.header());
        RC.Hw.ComparatorBanks = Banks;
        RC.Hw.HeapTimestampFifoLines = History;
        metrics::Registry DirectMetrics, DispatchMetrics;
        RC.Metrics = &DirectMetrics;
        trace::ReplayOutcome Direct = trace::selectFromTrace(T, RC);
        RC.Metrics = &DispatchMetrics;
        trace::ReplayOutcome Dispatched = dispatchReplay(T, RC);
        EXPECT_TRUE(Direct == Dispatched);
        EXPECT_EQ(testutil::dumpWithPrefix(DirectMetrics, "tracer."),
                  testutil::dumpWithPrefix(DispatchMetrics, "tracer."));
      }
    }
  }
}

TEST(TraceReplay, ReplayViaPipelineConfigSkipsInterpretation) {
  const workloads::Workload *W = workloads::findWorkload("Huffman");
  ASSERT_NE(W, nullptr);
  TempTrace Tmp("pipeline-replay");

  pipeline::PipelineConfig Cfg =
      captureConfig(*W, jit::AnnotationLevel::Optimized, Tmp.path());
  pipeline::Jrpm Recorder(W->Build(), Cfg);
  auto Live = Recorder.profileAndSelect();

  // Steps 2-3 from the trace alone: no annotation, no interpretation.
  trace::ReplayConfig RC;
  trace::copyTracerConfig(Cfg, RC);
  trace::ReplayOutcome Replayed =
      trace::selectFromTrace(trace::CachedTrace(Tmp.path()), RC);

  EXPECT_TRUE(Live.Selection == Replayed.Selection);

  // The replayed selection still drives speculative execution (steps 4-5)
  // in a pipeline that never profiled.
  pipeline::PipelineConfig ReplayCfg = Cfg;
  ReplayCfg.RecordTracePath.clear();
  pipeline::Jrpm Replayer(W->Build(), ReplayCfg);
  auto Tls = Replayer.runSpeculative(Replayed.Selection);
  auto Plain = Replayer.runPlain();
  EXPECT_EQ(Tls.Run.ReturnValue, Plain.ReturnValue);
}

TEST(TraceReplay, MemoryAndFileCapturesAgree) {
  // Jrpm::runDifferential records into memory when RecordTracePath is
  // empty and through the file otherwise; the medium must not show in the
  // replay, on any conformance grid point, and recording must not perturb
  // the live run.
  for (const char *Name : {"BitOps", "Huffman", "fft"}) {
    const workloads::Workload *W = workloads::findWorkload(Name);
    ASSERT_NE(W, nullptr) << Name;
    for (const sweep::ConfigPoint &Point : sweep::defaultConformanceGrid()) {
      SCOPED_TRACE(std::string(Name) + " @ " + Point.name());
      TempTrace Tmp(std::string(Name) + "-medium");
      pipeline::PipelineConfig FileCfg =
          captureConfig(*W, jit::AnnotationLevel::Optimized, Tmp.path());
      ASSERT_TRUE(Point.apply(FileCfg));
      pipeline::PipelineConfig MemoryCfg = FileCfg;
      MemoryCfg.RecordTracePath.clear();

      pipeline::Jrpm ViaFile(W->Build(), FileCfg);
      pipeline::Jrpm InMemory(W->Build(), MemoryCfg);
      pipeline::Jrpm::DifferentialOutcome F = ViaFile.runDifferential();
      pipeline::Jrpm::DifferentialOutcome M = InMemory.runDifferential();

      // Selection, footer run, peaks and event count, exactly.
      EXPECT_TRUE(F.Replay == M.Replay);
      EXPECT_GT(M.Replay.EventsReplayed, 0u);
      // An empty RecordTracePath leaves profileAndSelect unrecorded.
      pipeline::Jrpm::ProfileOutcome Unrecorded = InMemory.profileAndSelect();
      EXPECT_EQ(Unrecorded.Run.Cycles, M.Profile.Run.Cycles);
      EXPECT_TRUE(Unrecorded.Selection == M.Profile.Selection);
      for (const pipeline::Jrpm::DifferentialOutcome *D : {&F, &M}) {
        EXPECT_TRUE(D->ExecutionMismatches.empty())
            << D->ExecutionMismatches.front();
        EXPECT_TRUE(D->ReplayMismatches.empty())
            << D->ReplayMismatches.front();
      }
    }
  }
}

TEST(TraceReplay, MemoryCaptureReencodesByteIdenticalOnAllWorkloads) {
  // The in-memory capture runDifferential replays, written out through
  // Writer, must be the very file a direct RecordTracePath capture
  // writes: the packed records lose nothing on a real event stream. And
  // loading that file must give back the in-memory capture: the loader
  // takes the Reader's checked footer instead of counting events itself.
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    SCOPED_TRACE(W.Name);
    TempTrace Direct(W.Name + "-direct"), Rewritten(W.Name + "-rewritten");
    pipeline::PipelineConfig Cfg =
        captureConfig(W, jit::AnnotationLevel::Optimized, Direct.path());
    pipeline::Jrpm(W.Build(), Cfg).profileAndSelect();

    Cfg.RecordTracePath.clear();
    pipeline::Jrpm J(W.Build(), Cfg);
    pipeline::Jrpm::RecordedProfile Memory = J.profileInMemory();
    const trace::CachedTrace &T = Memory.Trace;
    ASSERT_GT(T.footer().TotalEvents, 0u);
    // No real event needs the escape path.
    EXPECT_EQ(T.eventBytes(), 8 * T.footer().TotalEvents);
    {
      trace::Writer Wr(Rewritten.path(), T.header());
      T.forEach([&](const trace::Event &E) { Wr.append(E); });
      Wr.finish(T.footer().Run);
    }
    std::vector<std::uint8_t> A = readFile(Direct.path());
    std::vector<std::uint8_t> B = readFile(Rewritten.path());
    ASSERT_FALSE(A.empty());
    EXPECT_TRUE(A == B) << A.size() << " direct bytes, " << B.size()
                        << " re-encoded bytes";

    trace::CachedTrace Loaded(Direct.path());
    std::vector<trace::Event> Captured;
    Captured.reserve(T.footer().TotalEvents);
    T.forEach([&](const trace::Event &E) { Captured.push_back(E); });
    std::uint64_t I = 0, Mismatches = 0;
    Loaded.forEach([&](const trace::Event &E) {
      Mismatches += I >= Captured.size() || !(Captured[I] == E);
      ++I;
    });
    EXPECT_EQ(I, Captured.size());
    EXPECT_EQ(Mismatches, 0u);
    // Equal record counts, so equal bytes means equal escape counts.
    EXPECT_EQ(Loaded.eventBytes(), T.eventBytes());
    const trace::TraceFooter &FL = Loaded.footer(), &FM = T.footer();
    for (std::uint32_t K = 0; K < trace::NumEventKinds; ++K)
      EXPECT_EQ(FL.EventCounts[K], FM.EventCounts[K]) << "kind " << K;
    EXPECT_EQ(FL.TotalEvents, FM.TotalEvents);
    EXPECT_EQ(FL.LastCycle, FM.LastCycle);
    EXPECT_TRUE(FL.Run == FM.Run);
  }
}

TEST(TraceReplay, HeaderAndFooterDescribeTheCapture) {
  const workloads::Workload *W = workloads::findWorkload("BitOps");
  ASSERT_NE(W, nullptr);
  TempTrace Tmp("header");

  pipeline::PipelineConfig Cfg =
      captureConfig(*W, jit::AnnotationLevel::Optimized, Tmp.path());
  Cfg.Hw.ComparatorBanks = 6;
  Cfg.DisableLoopAfterThreads = 1234;
  pipeline::Jrpm J(W->Build(), Cfg);
  auto Live = J.profileAndSelect();

  trace::Reader R(Tmp.path());
  EXPECT_EQ(R.header().WorkloadName, "BitOps");
  EXPECT_EQ(R.header().AnnotationLevel, 1);
  EXPECT_TRUE(R.header().ExtendedPcBinning);
  EXPECT_EQ(R.header().DisableLoopAfterThreads, 1234u);
  EXPECT_EQ(R.header().Hw.ComparatorBanks, 6u);
  EXPECT_EQ(R.header().LoopLocals.size(), Live.Selection.Loops.size());

  // O(1) footer (no events decoded yet), then stream and cross-check.
  const trace::TraceFooter F = R.footer();
  EXPECT_EQ(F.Run.Cycles, Live.Run.Cycles);
  std::uint64_t Streamed = 0;
  trace::Event E;
  while (R.next(E))
    ++Streamed;
  EXPECT_EQ(Streamed, F.TotalEvents);
}

TEST(TraceWire, HeaderRoundTripsEveryHardwareField) {
  // Every serialized HydraConfig field away from its default and from
  // every other field, so a field dropped, duplicated or reordered in the
  // wire list changes the bytes or the decoded value.
  trace::TraceHeader H;
  H.WorkloadName = "wire";
  H.AnnotationLevel = 0;
  H.ExtendedPcBinning = true;
  H.DisableLoopAfterThreads = 4321;
  H.LoopLocals = {{{1, 2}}, {}, {{300}}};
  sim::HydraConfig &Hw = H.Hw;
  Hw.NumCores = 2;
  Hw.WordsPerLine = 8;
  Hw.L1Lines = 1000;
  Hw.L1Assoc = 5;
  Hw.L2HitExtraCycles = 7;
  Hw.SpecLoadLines = 300;
  Hw.SpecStoreLines = 33;
  Hw.LoopStartupCycles = 41;
  Hw.LoopShutdownCycles = 42;
  Hw.EndOfIterationCycles = 9;
  Hw.ViolationRestartCycles = 11;
  Hw.StoreLoadCommCycles = 13;
  Hw.ViolationGrain = sim::ViolationGranularity::Line;
  Hw.SyncCarriedLocals = true;
  Hw.HeapTimestampFifoLines = 777;
  Hw.LoadTimestampEntries = 600;
  Hw.StoreTimestampEntries = 90;
  Hw.OverflowTableAssoc = 3;
  Hw.LocalVarSlots = 100;
  Hw.ComparatorBanks = 6;
  Hw.SLoopCost = 14;
  Hw.ELoopCost = 15;
  Hw.EoiCost = 16;
  Hw.LocalAnnoCost = 17;
  Hw.ReadStatsCost = 29;
  Hw.SoftwareProfilerCallbackCycles = 123456;
  Hw.Costs.Basic = 18;
  Hw.Costs.IntDiv = 19;
  Hw.Costs.FloatDiv = 20;
  Hw.Costs.FloatSqrt = 21;
  Hw.Costs.CallOverhead = 22;

  std::vector<std::uint8_t> Bytes;
  trace::encodeHeader(Bytes, H);
  // The format's bytes for this header: flags, name, level, binning,
  // disable threshold, 31 counted hardware fields, then the loop table.
  const std::vector<std::uint8_t> Expected = {
      0x00, 0x04, 0x77, 0x69, 0x72, 0x65, 0x00, 0x01, 0xE1, 0x21, 0x1F, 0x02,
      0x08, 0xE8, 0x07, 0x05, 0x07, 0xAC, 0x02, 0x21, 0x29, 0x2A, 0x09, 0x0B,
      0x0D, 0x01, 0x01, 0x89, 0x06, 0xD8, 0x04, 0x5A, 0x03, 0x64, 0x06, 0x0E,
      0x0F, 0x10, 0x11, 0x1D, 0xC0, 0xC4, 0x07, 0x12, 0x13, 0x14, 0x15, 0x16,
      0x03, 0x02, 0x01, 0x02, 0x00, 0x01, 0xAC, 0x02};
  EXPECT_TRUE(Bytes == Expected);

  const trace::TraceHeader D =
      trace::decodeHeader(Bytes.data(), Bytes.data() + Bytes.size());
  EXPECT_EQ(D.WorkloadName, H.WorkloadName);
  EXPECT_EQ(D.AnnotationLevel, H.AnnotationLevel);
  EXPECT_EQ(D.ExtendedPcBinning, H.ExtendedPcBinning);
  EXPECT_EQ(D.DisableLoopAfterThreads, H.DisableLoopAfterThreads);
  ASSERT_EQ(D.LoopLocals.size(), H.LoopLocals.size());
  for (std::size_t L = 0; L < H.LoopLocals.size(); ++L)
    EXPECT_EQ(D.LoopLocals[L].AnnotatedLocals,
              H.LoopLocals[L].AnnotatedLocals);
  const sim::HydraConfig &Dw = D.Hw;
  EXPECT_EQ(Dw.NumCores, Hw.NumCores);
  EXPECT_EQ(Dw.WordsPerLine, Hw.WordsPerLine);
  EXPECT_EQ(Dw.L1Lines, Hw.L1Lines);
  EXPECT_EQ(Dw.L1Assoc, Hw.L1Assoc);
  EXPECT_EQ(Dw.L2HitExtraCycles, Hw.L2HitExtraCycles);
  EXPECT_EQ(Dw.SpecLoadLines, Hw.SpecLoadLines);
  EXPECT_EQ(Dw.SpecStoreLines, Hw.SpecStoreLines);
  EXPECT_EQ(Dw.LoopStartupCycles, Hw.LoopStartupCycles);
  EXPECT_EQ(Dw.LoopShutdownCycles, Hw.LoopShutdownCycles);
  EXPECT_EQ(Dw.EndOfIterationCycles, Hw.EndOfIterationCycles);
  EXPECT_EQ(Dw.ViolationRestartCycles, Hw.ViolationRestartCycles);
  EXPECT_EQ(Dw.StoreLoadCommCycles, Hw.StoreLoadCommCycles);
  EXPECT_EQ(Dw.ViolationGrain, Hw.ViolationGrain);
  EXPECT_EQ(Dw.SyncCarriedLocals, Hw.SyncCarriedLocals);
  EXPECT_EQ(Dw.HeapTimestampFifoLines, Hw.HeapTimestampFifoLines);
  EXPECT_EQ(Dw.LoadTimestampEntries, Hw.LoadTimestampEntries);
  EXPECT_EQ(Dw.StoreTimestampEntries, Hw.StoreTimestampEntries);
  EXPECT_EQ(Dw.OverflowTableAssoc, Hw.OverflowTableAssoc);
  EXPECT_EQ(Dw.LocalVarSlots, Hw.LocalVarSlots);
  EXPECT_EQ(Dw.ComparatorBanks, Hw.ComparatorBanks);
  EXPECT_EQ(Dw.SLoopCost, Hw.SLoopCost);
  EXPECT_EQ(Dw.ELoopCost, Hw.ELoopCost);
  EXPECT_EQ(Dw.EoiCost, Hw.EoiCost);
  EXPECT_EQ(Dw.LocalAnnoCost, Hw.LocalAnnoCost);
  EXPECT_EQ(Dw.ReadStatsCost, Hw.ReadStatsCost);
  EXPECT_EQ(Dw.SoftwareProfilerCallbackCycles,
            Hw.SoftwareProfilerCallbackCycles);
  EXPECT_EQ(Dw.Costs.Basic, Hw.Costs.Basic);
  EXPECT_EQ(Dw.Costs.IntDiv, Hw.Costs.IntDiv);
  EXPECT_EQ(Dw.Costs.FloatDiv, Hw.Costs.FloatDiv);
  EXPECT_EQ(Dw.Costs.FloatSqrt, Hw.Costs.FloatSqrt);
  EXPECT_EQ(Dw.Costs.CallOverhead, Hw.Costs.CallOverhead);
}

TEST(TraceReplay, ConfigOverrideReplaysUnderNewHardware) {
  const workloads::Workload *W = workloads::findWorkload("jess");
  ASSERT_NE(W, nullptr);
  TempTrace Tmp("override");

  pipeline::PipelineConfig Cfg =
      captureConfig(*W, jit::AnnotationLevel::Optimized, Tmp.path());
  pipeline::Jrpm J(W->Build(), Cfg);
  J.profileAndSelect();

  // One trace, several analysis configurations.
  const trace::CachedTrace T(Tmp.path());
  trace::ReplayConfig Narrow = trace::recordedConfig(T.header());
  Narrow.Hw.ComparatorBanks = 1;
  trace::ReplayOutcome NarrowOut = trace::selectFromTrace(T, Narrow);
  trace::ReplayOutcome WideOut =
      trace::selectFromTrace(T, trace::recordedConfig(T.header()));

  EXPECT_LE(NarrowOut.PeakBanksInUse, 1u);
  EXPECT_GE(WideOut.PeakBanksInUse, NarrowOut.PeakBanksInUse);
  EXPECT_EQ(NarrowOut.EventsReplayed, WideOut.EventsReplayed);
  // Starving the comparator array must cost traced entries somewhere.
  std::uint64_t NarrowUntraced = 0, WideUntraced = 0;
  for (const auto &Rep : NarrowOut.Selection.Loops)
    NarrowUntraced += Rep.Stats.UntracedEntries;
  for (const auto &Rep : WideOut.Selection.Loops)
    WideUntraced += Rep.Stats.UntracedEntries;
  EXPECT_GE(NarrowUntraced, WideUntraced);
}

TEST(TraceReplay, DiffIdentifiesIdenticalAndDivergentTraces) {
  const workloads::Workload *W = workloads::findWorkload("BitOps");
  ASSERT_NE(W, nullptr);
  TempTrace A("diff-a"), B("diff-b"), C("diff-c");

  {
    pipeline::Jrpm J(W->Build(), captureConfig(
                                     *W, jit::AnnotationLevel::Optimized,
                                     A.path()));
    J.profileAndSelect();
  }
  {
    pipeline::Jrpm J(W->Build(), captureConfig(
                                     *W, jit::AnnotationLevel::Optimized,
                                     B.path()));
    J.profileAndSelect();
  }
  {
    pipeline::Jrpm J(W->Build(),
                     captureConfig(*W, jit::AnnotationLevel::Base, C.path()));
    J.profileAndSelect();
  }

  {
    trace::Reader RA(A.path()), RB(B.path());
    trace::DiffResult D = trace::diffTraces(RA, RB);
    EXPECT_TRUE(D.Identical) << D.Detail;
  }
  {
    trace::Reader RA(A.path()), RC(C.path());
    trace::DiffResult D = trace::diffTraces(RA, RC);
    EXPECT_FALSE(D.Identical);
    EXPECT_FALSE(D.Detail.empty());
  }
}

TEST(TraceReplay, DumpUsesTheSharedFormatter) {
  const workloads::Workload *W = workloads::findWorkload("BitOps");
  ASSERT_NE(W, nullptr);
  TempTrace Tmp("dump");
  pipeline::Jrpm J(W->Build(), captureConfig(
                                   *W, jit::AnnotationLevel::Optimized,
                                   Tmp.path()));
  J.profileAndSelect();

  trace::Reader R(Tmp.path());
  trace::Event E;
  ASSERT_TRUE(R.next(E));
  std::string Line = trace::formatEvent(E);
  EXPECT_NE(Line.find(trace::eventKindName(E.Kind)), std::string::npos);

  std::FILE *Null = std::fopen("/dev/null", "w");
  ASSERT_NE(Null, nullptr);
  trace::Reader R2(Tmp.path());
  EXPECT_EQ(trace::dumpTrace(R2, Null, 10), 10u);
  std::fclose(Null);
}
