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
  /// Arc budget for the pre-filter, in cycles (see AnalysisOptions).
  std::uint32_t SerialArcBudget = 10;
  /// Enables the affine speculation oracle (analysis::AnalysisOptions):
  /// affine dependence tests produce per-loop verdicts and provably-serial
  /// loops are rejected before annotation. Strictly widens StaticPrefilter.
  bool AffineOracle = false;

  // --- Trace capture & replay (src/trace) ---------------------------------
  /// When non-empty, profileAndSelect tees the annotated run's event
  /// stream into this .jtrace file while profiling. Recording never
  /// perturbs the run: the tee forwards the tracer's cycle charges
  /// unchanged.
  std::string RecordTracePath;
  /// When non-empty, profileAndSelect skips annotation and interpretation
  /// entirely and re-drives a fresh TraceEngine from this recorded trace
  /// (see pipeline::selectFromTrace). With a config matching the capture,
  /// the selection is bit-identical to the live profiled run.
  std::string ReplayTracePath;
  /// Workload name stamped into a recorded trace's header.
  std::string WorkloadName;

  // --- Observability (src/metrics) ----------------------------------------
  /// When set, each pipeline step exports its counters and histograms here
  /// as it finishes: "interp.<phase>.*" from the machines, "tracer.*" from
  /// the profiling (or replayed) engine, "spec.*" from the Hydra engine.
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
  double predictedSpeedup() const {
    // Selection predicted against the profiled run's cycle count.
    return Selection.PredictedSpeedup;
  }
};

/// Owns a program and runs the Jrpm steps over it.
class Jrpm {
public:
  Jrpm(ir::Module Program, PipelineConfig Config);

  const ir::Module &program() const { return M; }
  const analysis::ModuleAnalysis &moduleAnalysis() const { return *MA; }
  const PipelineConfig &config() const { return Cfg; }

  /// Step 0 (baseline): clean sequential run, no annotations.
  interp::RunResult runPlain(const std::vector<std::uint64_t> &Args = {});

  /// Steps 1–3: annotate, profile with TEST, select STLs. The returned
  /// engine reference stays valid until the next call.
  struct ProfileOutcome {
    interp::RunResult Run;
    tracer::SelectionResult Selection;
    std::uint32_t PeakBanksInUse = 0;
    std::uint32_t PeakLocalSlots = 0;
    std::uint32_t PeakDynamicNest = 0;
  };
  ProfileOutcome profileAndSelect(const std::vector<std::uint64_t> &Args = {});

  /// Access to the tracer of the most recent profiling run (PC bins etc.).
  /// Null after a replayed profile (Cfg.ReplayTracePath): the replay owns
  /// its engine internally.
  const tracer::TraceEngine *lastTracer() const { return Tracer.get(); }

  /// Steps 4–5: recompile the selected loops and run speculatively.
  struct TlsOutcome {
    interp::RunResult Run;
    std::map<std::uint32_t, hydra::TlsLoopRunStats> LoopStats;
  };
  TlsOutcome runSpeculative(const tracer::SelectionResult &Selection,
                            const std::vector<std::uint64_t> &Args = {});

  /// All five steps.
  PipelineResult runAll(const std::vector<std::uint64_t> &Args = {});

private:
  ir::Module M;
  PipelineConfig Cfg;
  std::unique_ptr<analysis::ModuleAnalysis> MA;
  std::unique_ptr<jit::AnnotatedModule> Annotated;
  std::unique_ptr<tracer::TraceEngine> Tracer;

  // Timeline tracks, registered in the constructor (fixed order).
  metrics::TrackId PlainTrack = 0;
  metrics::TrackId ProfileTrack = 0;
  metrics::TrackId TlsTrack = 0;
  metrics::TrackId TracerTrack = 0;
  metrics::TrackId EngineTrack = 0;
  std::vector<metrics::TrackId> CoreTracks;
};

/// Trace-driven Steps 2–3: rebuilds the tracer from a recorded .jtrace and
/// runs STL selection without the program or the interpreter. Uses the
/// tracer-side knobs of \p Cfg (Hw, ExtendedPcBinning,
/// DisableLoopAfterThreads); when they match the capture configuration the
/// result is bit-identical to the live profiled run. ProfileOutcome.Run is
/// the capture run's recorded result. Throws trace::Error on corruption.
Jrpm::ProfileOutcome selectFromTrace(const std::string &Path,
                                     const PipelineConfig &Cfg);

} // namespace pipeline
} // namespace jrpm

#endif // JRPM_JRPM_PIPELINE_H
