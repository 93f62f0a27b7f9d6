//===- jrpm/Pipeline.h - The Java Runtime Parallelizing Machine ------------==//
//
// Orchestrates Figure 1's five steps: (1) identify possible STLs by CFG
// analysis and compile with annotation instructions, (2) run the annotated
// program sequentially collecting TEST statistics, (3) post-process the
// statistics and choose the STLs with the best speedups (Equations 1 and
// 2), (4) recompile the selected STLs for speculation, (5) run the native
// TLS code on the Hydra engine.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_JRPM_PIPELINE_H
#define JRPM_JRPM_PIPELINE_H

#include "analysis/Candidates.h"
#include "hydra/TlsEngine.h"
#include "interp/Machine.h"
#include "jit/Annotator.h"
#include "sim/Config.h"
#include "trace/Replay.h"
#include "tracer/Selector.h"

#include <map>
#include <memory>

namespace jrpm {
namespace pipeline {

struct PipelineConfig {
  sim::HydraConfig Hw;
  jit::AnnotationLevel Level = jit::AnnotationLevel::Optimized;
  bool ExtendedPcBinning = false;
  /// Forwarded to TraceEngine::setDisableLoopAfterThreads.
  std::uint64_t DisableLoopAfterThreads = 0;
  /// Enables the static dependence pre-filter (analysis::AnalysisOptions):
  /// provably-serial loops are rejected before annotation, so they never
  /// pay profiling overhead. Off by default — the paper's figures measure
  /// the optimistic policy.
  bool StaticPrefilter = false;
  /// Enables the affine speculation oracle (analysis::AnalysisOptions):
  /// affine dependence tests produce per-loop verdicts and provably-serial
  /// loops are rejected before annotation. Strictly widens StaticPrefilter.
  bool AffineOracle = false;

  // --- Trace capture (src/trace) -------------------------------------------
  /// When non-empty, profileAndSelect tees the annotated run's event
  /// stream into this .jtrace file while profiling, and runDifferential
  /// replays from the file. Recording never perturbs the run: the tee
  /// forwards the tracer's cycle charges unchanged.
  std::string RecordTracePath;
  /// Workload name stamped into a recorded trace's header.
  std::string WorkloadName;

  // --- Observability (src/metrics) ----------------------------------------
  /// When set, each pipeline step exports its counters and histograms here
  /// as it finishes: "interp.<phase>.*" from the machines, "tracer.*" from
  /// the profiling engine, "spec.*" from the Hydra engine.
  metrics::Registry *Metrics = nullptr;
  /// When set, steps record spans here. Jrpm registers its tracks in a
  /// fixed order at construction (one per pipeline phase, one for the
  /// tracer's bank array, one per Hydra core plus the engine), so pid/tid
  /// assignment is stable run to run.
  metrics::Timeline *Timeline = nullptr;
};

struct PipelineResult {
  interp::RunResult PlainRun;    ///< clean sequential baseline
  interp::RunResult ProfiledRun; ///< annotated run feeding TEST
  tracer::SelectionResult Selection;
  interp::RunResult TlsRun; ///< actual speculative execution
  std::map<std::uint32_t, hydra::TlsLoopRunStats> TlsLoopStats;
  std::uint32_t PeakBanksInUse = 0;
  std::uint32_t PeakLocalSlots = 0;
  std::uint32_t PeakDynamicNest = 0;

  double profilingSlowdown() const {
    return PlainRun.Cycles ? static_cast<double>(ProfiledRun.Cycles) /
                                 static_cast<double>(PlainRun.Cycles)
                           : 1.0;
  }
  double actualSpeedup() const {
    return TlsRun.Cycles ? static_cast<double>(PlainRun.Cycles) /
                               static_cast<double>(TlsRun.Cycles)
                         : 1.0;
  }
};

/// The optimistic selection: every candidate loop of \p MA. runSpeculative
/// skips the rejected ones, so under it every non-rejected candidate runs
/// speculatively (the corpus's and the fuzz suite's TLS contract).
tracer::SelectionResult everyCandidate(const analysis::ModuleAnalysis &MA);

/// Owns a program and runs the Jrpm steps over it.
class Jrpm {
public:
  Jrpm(ir::Module Program, PipelineConfig Config);

  const ir::Module &program() const { return M; }
  const analysis::ModuleAnalysis &moduleAnalysis() const { return *MA; }
  const PipelineConfig &config() const { return Cfg; }

  /// Step 0 (baseline): clean sequential run, no annotations.
  interp::RunResult runPlain(const std::vector<std::uint64_t> &Args = {});

  /// Steps 1–3: annotate, profile with TEST, select STLs.
  struct ProfileOutcome {
    interp::RunResult Run;
    tracer::SelectionResult Selection;
    std::uint32_t PeakBanksInUse = 0;
    std::uint32_t PeakLocalSlots = 0;
    std::uint32_t PeakDynamicNest = 0;
  };
  ProfileOutcome profileAndSelect(const std::vector<std::uint64_t> &Args = {});

  /// Steps 1–3, recording the annotated run's event stream into memory
  /// whatever RecordTracePath says. This is the capture runDifferential
  /// replays when RecordTracePath is empty.
  struct RecordedProfile {
    ProfileOutcome Profile;
    trace::CachedTrace Trace;
  };
  RecordedProfile profileInMemory(const std::vector<std::uint64_t> &Args = {});

  /// Steps 4–5: recompile the selected loops and run speculatively.
  struct TlsOutcome {
    interp::RunResult Run;
    std::map<std::uint32_t, hydra::TlsLoopRunStats> LoopStats;
  };
  TlsOutcome runSpeculative(const tracer::SelectionResult &Selection,
                            const std::vector<std::uint64_t> &Args = {});
  /// Steps 4–5 on engine hardware \p Hw instead of the configured one.
  TlsOutcome runSpeculative(const tracer::SelectionResult &Selection,
                            const sim::HydraConfig &Hw,
                            const std::vector<std::uint64_t> &Args = {});

  /// All five steps.
  PipelineResult runAll(const std::vector<std::uint64_t> &Args = {});

  /// The differential oracle over steps 0–3: the plain run, profile +
  /// select while recording, and a replay of the recording under the same
  /// configuration. The recording goes through RecordTracePath when it is
  /// set and stays in memory otherwise. Both mismatch lists stay empty on
  /// a correct stack.
  struct DifferentialOutcome {
    interp::RunResult PlainRun;
    ProfileOutcome Profile;
    trace::ReplayOutcome Replay;
    /// The annotated run's checksum differs from the plain run's.
    std::vector<std::string> ExecutionMismatches;
    /// The replayed selection digest or the recorded run differs from the
    /// live profiled run.
    std::vector<std::string> ReplayMismatches;
  };
  DifferentialOutcome
  runDifferential(const std::vector<std::uint64_t> &Args = {});

private:
  /// The annotated module, built and lint-checked on first use.
  const jit::AnnotatedModule &annotated();
  /// Steps 1–3, teeing the event stream into \p Capture (a trace::Writer
  /// or trace::CachedTrace) when it is non-null.
  template <typename Dest>
  ProfileOutcome profileInto(Dest *Capture,
                             const std::vector<std::uint64_t> &Args);

  ir::Module M;
  PipelineConfig Cfg;
  std::unique_ptr<analysis::ModuleAnalysis> MA;
  std::unique_ptr<jit::AnnotatedModule> Annotated;

  // Timeline tracks, registered in the constructor (fixed order).
  metrics::TrackId PlainTrack = 0;
  metrics::TrackId ProfileTrack = 0;
  metrics::TrackId TlsTrack = 0;
  metrics::TrackId TracerTrack = 0;
  metrics::TrackId EngineTrack = 0;
  std::vector<metrics::TrackId> CoreTracks;
};

} // namespace pipeline
} // namespace jrpm

#endif // JRPM_JRPM_PIPELINE_H
