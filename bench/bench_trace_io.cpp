//===- bench/bench_trace_io.cpp - Trace encode/decode microbenchmark -------==//
//
// The record-once/replay-many economics rest on the wire format being
// cheap: encoding must not perturb a recorded run and decoding must be far
// cheaper than re-interpretation. This bench measures both directions in
// events/second over every registry workload's real event stream, plus the
// on-disk density after delta+varint encoding and the resident density of
// the decoded in-memory trace (trace::CachedTrace's packed records). The
// decode rate drains the file through trace::Reader; the load rate builds
// a trace::CachedTrace from it, the load every sweep of a file pays. The
// replay rate is the analyse-many step: the in-memory trace replayed into
// a TraceEngine under its capture config, selection included
// (trace::selectFromTrace). Rates are printed, not gated.
//
// Gates: over the registry, the aggregate on-disk density must stay at or
// under 8 bytes/event (the delta+varint encoding typically achieves ~5),
// and so must the resident density (one 8-byte record per event, unless
// an event has to escape into the side table).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "trace/Replay.h"
#include "trace/Writer.h"

using namespace jrpm;
using namespace jrpm::benchutil;

int main() {
  printBanner("Trace I/O - encode/decode/replay rate and on-disk density",
              "the trace subsystem underpinning Section 6's ablations");
  TextTable T;
  T.setHeader({"Benchmark", "events", "trace bytes", "bytes/event",
               "memory bytes/event", "encode Mev/s", "decode Mev/s",
               "load Mev/s", "replay Mev/s"});
  double TotalBytes = 0, TotalEvents = 0, TotalMemory = 0;
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    std::string Captured = benchTracePath("io-" + W.Name);
    {
      pipeline::PipelineConfig Cfg;
      Cfg.WorkloadName = W.Name;
      Cfg.RecordTracePath = Captured;
      pipeline::Jrpm J(W.Build(), Cfg);
      J.profileAndSelect();
    }
    // The decoded event stream is the encode bench's input, so the timed
    // loop below measures the writer alone, not interpretation.
    trace::CachedTrace Trace(Captured);
    std::remove(Captured.c_str());
    std::uint64_t N = Trace.footer().TotalEvents;

    std::string Rewritten = benchTracePath("io-rewrite-" + W.Name);
    std::uint64_t Bytes = 0;
    Stopwatch Enc;
    {
      trace::Writer Wr(Rewritten, Trace.header());
      Trace.forEach([&](const trace::Event &E) { Wr.append(E); });
      Wr.finish(Trace.footer().Run);
      Bytes = Wr.bytesWritten();
    }
    double EncMs = Enc.ms();

    Stopwatch Dec;
    {
      trace::Reader R(Rewritten);
      trace::Event E;
      while (R.next(E)) {
      }
    }
    double DecMs = Dec.ms();

    Stopwatch Load;
    trace::CachedTrace Loaded(Rewritten);
    double LoadMs = Load.ms();
    std::remove(Rewritten.c_str());

    Stopwatch Rep;
    trace::selectFromTrace(Trace, trace::recordedConfig(Trace.header()));
    double RepMs = Rep.ms();

    double PerEvent = N ? static_cast<double>(Bytes) / N : 0.0;
    double MemoryPerEvent =
        N ? static_cast<double>(Trace.eventBytes()) / N : 0.0;
    T.addRow({W.Name, formatString("%llu", (unsigned long long)N),
              formatString("%llu", (unsigned long long)Bytes),
              fmt(PerEvent), fmt(MemoryPerEvent),
              fmt(EncMs > 0 ? N / 1000.0 / EncMs : 0.0, 1),
              fmt(DecMs > 0 ? N / 1000.0 / DecMs : 0.0, 1),
              fmt(LoadMs > 0 ? N / 1000.0 / LoadMs : 0.0, 1),
              fmt(RepMs > 0 ? N / 1000.0 / RepMs : 0.0, 1)});
    TotalBytes += static_cast<double>(Bytes);
    TotalEvents += static_cast<double>(N);
    TotalMemory += static_cast<double>(Trace.eventBytes());
  }
  T.print();

  double Resident = TotalEvents ? TotalMemory / TotalEvents : 0.0;
  bool ResidentPass = Resident <= 8.0;
  std::printf("\nIn-memory trace over the registry: %.2f bytes/event "
              "(a decoded trace::Event is %zu; gate: <= 8) -> %s\n",
              Resident, sizeof(trace::Event), ResidentPass ? "PASS" : "FAIL");

  double Density = TotalEvents ? TotalBytes / TotalEvents : 0.0;
  bool DiskPass = Density <= 8.0;
  std::printf("Aggregate density over the registry: %.2f bytes/event "
              "(gate: <= 8) -> %s\n",
              Density, DiskPass ? "PASS" : "FAIL");
  return ResidentPass && DiskPass ? 0 : 1;
}
