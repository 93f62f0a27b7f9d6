//===- perfbench/Bench.h - Repository benchmark: spans, digests, workloads -==//
//
// The benchmark drives the jrpm libraries through their public entry
// points only. A workload is a fixed list of jobs; one pass runs the list
// once. Every job returns a digest of the simulated statistics it produced,
// which main.cpp compares against the digest kept in expected.json.
//
// Host-time attribution uses spans recorded by the benchmark itself around
// each call into a layer: name, start, end, parent, job. Spans stay in
// memory and are written out when the run ends; a layer's self time is its
// span duration minus the part its child spans cover.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "metrics/Metrics.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Job id of spans recorded during set-up.
inline constexpr std::uint32_t SetupJob = ~std::uint32_t(0);

struct Span {
  const char *Layer = "";
  double StartUs = 0;
  double EndUs = 0;
  std::int32_t Parent = -1;
  std::uint32_t Job = 0;
};

/// In-memory span log. Disabled, open() and close() do nothing.
class SpanLog {
public:
  bool enabled() const { return On; }
  void setEnabled(bool V) { On = V; }

  std::int32_t open(const char *Layer, std::uint32_t Job) {
    if (!On)
      return -1;
    Span S;
    S.Layer = Layer;
    S.Parent = Current;
    S.Job = Job;
    S.StartUs = nowUs();
    Spans.push_back(S);
    Current = static_cast<std::int32_t>(Spans.size() - 1);
    return Current;
  }
  void close(std::int32_t Idx) {
    if (Idx < 0)
      return;
    Spans[Idx].EndUs = nowUs();
    Current = Spans[Idx].Parent;
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }

  bool On = false;
  std::int32_t Current = -1;
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
};

/// RAII span around one call into a layer.
class Scope {
public:
  Scope(SpanLog &Log, const char *Layer, std::uint32_t Job)
      : Log(Log), Idx(Log.open(Layer, Job)) {}
  ~Scope() { Log.close(Idx); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &Log;
  std::int32_t Idx;
};

/// FNV-1a over 64-bit words and strings.
class Digest {
public:
  void add(std::uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  void add(const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 0x100000001b3ull;
    }
    add(static_cast<std::uint64_t>(S.size()));
  }
  std::uint64_t value() const { return H; }

private:
  std::uint64_t H = 0xcbf29ce484222325ull;
};

/// Digest of every counter, gauge and histogram summary in \p R.
std::uint64_t registryDigest(const jrpm::metrics::Registry &R);

/// Counts recorded by the benchmark at the layer boundaries, per pass.
struct LayerCounts {
  std::uint64_t FrontendModules = 0;
  std::uint64_t AnalysisCandidates = 0;
  std::uint64_t AnalysisRejected = 0;
  std::uint64_t JitPlans = 0;
  /// Events fed to a TraceEngine inside a "tracer" span (replays).
  std::uint64_t TracerReplayedEvents = 0;
};

/// What the traced code path of a job sees besides the span log.
struct JobContext {
  SpanLog &Spans;
  std::uint32_t Job = 0;
  /// Non-null on the traced path: the job's simulated counters go here.
  jrpm::metrics::Registry *Metrics = nullptr;
  LayerCounts *Counts = nullptr;
};

struct JobResult {
  /// The workload's own output check (return values, oracle verdict).
  bool Ok = true;
  /// Digest of the simulated statistics; compared on every job.
  std::uint64_t Digest = 0;
  /// Digest of the job's metrics registry; traced path only.
  std::uint64_t CounterDigest = 0;
  /// Simulated figures behind sim_speedup_geomean and pred_error_pct.
  double Speedup = 1.0;
  double Predicted = 1.0;
  double Reference = 1.0;
};

/// Set-up layer figures of a workload (trace recording and decoding).
struct SetupFigures {
  std::uint64_t TraceEvents = 0;
  std::uint64_t TraceBytes = 0;
};

class Workload {
public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Builds the inputs afresh. Runs several times, also between timed
  /// passes, and must yield identical inputs every time.
  virtual void setup(SpanLog &Spans) = 0;
  virtual std::size_t jobs() const = 0;
  /// Key of this workload's digests in expected.json.
  virtual std::string expectedKey() const = 0;
  /// Runs job \p I. \p Traced selects the traced code path: metrics
  /// attached, and layer calls made one by one where the untraced path
  /// makes them through a single entry point.
  virtual JobResult run(std::size_t I, bool Traced, JobContext &Ctx) = 0;
  virtual SetupFigures setupFigures() const { return {}; }
};

/// Number of distinct corpus inputs: seeds equal modulo this give the same
/// corpus.
inline constexpr std::uint64_t CorpusBaseSeeds = 4;

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       std::uint64_t Seed,
                                       const std::string &ScratchDir);
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
