//===- sweep/SweepRunner.h - Executing a plan in parallel ------------------==//
//
// Runs every SweepJob of an expanded plan through parallelFor. Every job
// runs the same differential check on the Jrpm steps
// (Jrpm::runDifferential, then the TLS run); the mode only chooses whether
// the trace goes through a file and whether the replayed digest is
// reported. A job that throws or fails its check is recorded as a failed
// result; its siblings always complete and the sweep never dies with a
// job. Results land in slots indexed by SweepJob::Index, so the report is
// identical whatever order the threads finish jobs in, and the JSON
// rendering (sorted keys, fixed double format, timings behind a flag) is
// byte-identical between a 1-thread and an N-thread sweep of the same plan.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SWEEP_SWEEPRUNNER_H
#define JRPM_SWEEP_SWEEPRUNNER_H

#include "metrics/Metrics.h"
#include "metrics/Timeline.h"
#include "support/Json.h"
#include "sweep/SweepPlan.h"
#include "sweep/ParallelFor.h"

namespace jrpm {
namespace sweep {

enum class JobStatus {
  Ok,
  Failed,   ///< threw, unknown workload, or a differential mismatch
  TimedOut, ///< completed but exceeded its soft wall-clock budget
};

const char *jobStatusName(JobStatus S);

/// Structured outcome of one job. Deterministic fields only, except WallMs
/// (excluded from deterministic JSON).
struct SweepResult {
  // Identity (copied from the job).
  std::uint32_t Index = 0;
  std::string Workload;
  jit::AnnotationLevel Level = jit::AnnotationLevel::Optimized;
  std::string ConfigName;
  JobMode Mode = JobMode::Pipeline;

  JobStatus Status = JobStatus::Failed;
  std::string Error; ///< failure / mismatch description; empty when Ok

  // Measurements (valid when the pipeline ran to completion).
  std::uint64_t PlainCycles = 0;
  std::uint64_t ProfiledCycles = 0;
  std::uint64_t TlsCycles = 0;
  std::uint64_t Checksum = 0; ///< sequential run's return value
  std::uint64_t Loops = 0;
  std::uint64_t SelectedLoops = 0;
  double PredictedSpeedup = 1.0;
  double ActualSpeedup = 1.0;
  double ProfilingSlowdown = 1.0;
  std::uint64_t SelectionDigest = 0; ///< live selection digest
  /// Conformance mode: digest of the selection replayed from the trace
  /// file; must equal SelectionDigest.
  std::uint64_t ReplayDigest = 0;

  double WallMs = 0; ///< job wall-clock (non-deterministic; gated in JSON)

  /// Per-job instrumentation registry, filled by the pipeline while the
  /// job runs in isolation. Not part of the report JSON (the sweep golden
  /// gate byte-compares that); consumers fold the slots together with
  /// mergedMetrics().
  metrics::Registry Metrics;
};

struct SweepReport {
  std::vector<SweepResult> Results; ///< plan order (indexed by job Index)
  std::uint64_t Seed = 0;
  unsigned Threads = 0; ///< threads actually started (parallelWidth)
  double WallMs = 0;    ///< whole-sweep wall-clock
  std::uint64_t OkCount = 0;
  std::uint64_t FailedCount = 0;
  std::uint64_t TimedOutCount = 0;

  bool allOk() const { return FailedCount == 0 && TimedOutCount == 0; }
};

/// Executes one job in the calling thread. Never throws: every failure
/// mode is folded into the returned result.
SweepResult runJob(const SweepJob &Job);

/// Executes \p Jobs on parallelWidth(Jobs.size(), \p Threads) threads
/// (\p Threads == 0 selects the hardware width).
/// With \p Timeline set, one track per worker is registered up front (in
/// worker-index order, so pid/tid stay stable) and each job becomes a span
/// on the track of the worker that ran it. Span timestamps are wall-clock
/// microseconds since the sweep started — a profiling aid, deliberately
/// outside the determinism contract (which per-job metrics satisfy
/// instead).
SweepReport runSweep(const std::vector<SweepJob> &Jobs, unsigned Threads,
                     metrics::Timeline *Timeline = nullptr);

/// Folds the per-job registries together in plan order and adds the
/// "sweep.jobs*" summary counters. Merging is order-deterministic, so a
/// 1-thread and an N-thread sweep of the same plan produce byte-identical
/// exports.
metrics::Registry mergedMetrics(const SweepReport &R);

/// Renders a report as a deterministic JSON document. Wall-clock times and
/// thread count are emitted only when \p IncludeTimings is set — with it off
/// the bytes depend solely on the plan and the simulators.
Json reportToJson(const SweepReport &R, bool IncludeTimings);

/// reportToJson + writeFileAtomic.
bool writeReport(const SweepReport &R, const std::string &Path,
                 bool IncludeTimings, std::string *Err = nullptr);

} // namespace sweep
} // namespace jrpm

#endif // JRPM_SWEEP_SWEEPRUNNER_H
