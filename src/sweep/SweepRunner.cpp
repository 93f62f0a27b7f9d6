//===- sweep/SweepRunner.cpp ----------------------------------------------==//

#include "sweep/SweepRunner.h"

#include "support/AtomicFile.h"
#include "support/Format.h"
#include "workloads/Workload.h"

#include <chrono>
#include <cstdio>
#include <exception>

#include <unistd.h>

using namespace jrpm;
using namespace jrpm::sweep;

const char *sweep::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok:
    return "ok";
  case JobStatus::Failed:
    return "failed";
  case JobStatus::TimedOut:
    return "timed_out";
  }
  return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

void appendError(SweepResult &R, const std::string &Msg) {
  if (!R.Error.empty())
    R.Error += "; ";
  R.Error += Msg;
}

/// Records the measurements of a job's Jrpm steps and every mismatch in
/// \p R. Only a conformance job reports the replayed digest.
void recordOutcome(SweepResult &R, pipeline::Jrpm::DifferentialOutcome &D,
                   const pipeline::Jrpm::TlsOutcome &Tls) {
  pipeline::PipelineResult P;
  P.PlainRun = D.PlainRun;
  P.ProfiledRun = D.Profile.Run;
  P.Selection = std::move(D.Profile.Selection);
  P.TlsRun = Tls.Run;
  R.PlainCycles = P.PlainRun.Cycles;
  R.ProfiledCycles = P.ProfiledRun.Cycles;
  R.TlsCycles = P.TlsRun.Cycles;
  R.Checksum = P.PlainRun.ReturnValue;
  R.Loops = P.Selection.Loops.size();
  R.SelectedLoops = P.Selection.SelectedLoops.size();
  R.PredictedSpeedup = P.Selection.PredictedSpeedup;
  R.ActualSpeedup = P.actualSpeedup();
  R.ProfilingSlowdown = P.profilingSlowdown();
  R.SelectionDigest = tracer::selectionDigest(P.Selection);
  if (R.Mode == JobMode::Conformance)
    R.ReplayDigest = tracer::selectionDigest(D.Replay.Selection);

  for (const std::string &M : D.ExecutionMismatches)
    appendError(R, M);
  if (P.TlsRun.ReturnValue != P.PlainRun.ReturnValue)
    appendError(R, formatString(
                       "speculative checksum %llu != sequential %llu",
                       (unsigned long long)P.TlsRun.ReturnValue,
                       (unsigned long long)P.PlainRun.ReturnValue));
  for (const std::string &M : D.ReplayMismatches)
    appendError(R, M);
}

} // namespace

SweepResult sweep::runJob(const SweepJob &Job) {
  SweepResult R;
  R.Index = Job.Index;
  R.Workload = Job.Workload;
  R.Level = Job.Level;
  R.ConfigName = Job.ConfigName;
  R.Mode = Job.Mode;

  Clock::time_point T0 = Clock::now();
  const workloads::Workload *W = workloads::findWorkload(Job.Workload);
  if (!W) {
    R.Error = "unknown workload '" + Job.Workload + "'";
    R.WallMs = msSince(T0);
    return R;
  }
  // A conformance job records through a trace file, so its check covers
  // the on-disk round trip; a pipeline job keeps the recording in memory.
  std::string TracePath;
  if (Job.Mode == JobMode::Conformance)
    TracePath = "/tmp/jrpm-sweep-" +
                std::to_string(static_cast<long>(getpid())) + "-" +
                std::to_string(Job.Index) + ".jtrace";
  // Removes the trace on every exit, a throwing pipeline step included.
  struct RemoveOnExit {
    const std::string &Path;
    ~RemoveOnExit() {
      if (!Path.empty())
        std::remove(Path.c_str());
    }
  } Cleanup{TracePath};
  try {
    pipeline::PipelineConfig Cfg = Job.Cfg;
    Cfg.RecordTracePath = TracePath;
    Cfg.Metrics = &R.Metrics;
    pipeline::Jrpm J(W->Build(), Cfg);
    pipeline::Jrpm::DifferentialOutcome D = J.runDifferential();
    recordOutcome(R, D, J.runSpeculative(D.Profile.Selection));
    R.Status = R.Error.empty() ? JobStatus::Ok : JobStatus::Failed;
  } catch (const std::exception &E) {
    appendError(R, E.what());
    R.Status = JobStatus::Failed;
  }
  R.WallMs = msSince(T0);
  if (R.Status == JobStatus::Ok && Job.TimeoutMs &&
      R.WallMs > static_cast<double>(Job.TimeoutMs)) {
    R.Status = JobStatus::TimedOut;
    appendError(R, formatString("exceeded soft timeout of %u ms",
                                Job.TimeoutMs));
  }
  return R;
}

SweepReport sweep::runSweep(const std::vector<SweepJob> &Jobs,
                            unsigned Threads,
                            metrics::Timeline *Timeline) {
  SweepReport Report;
  Report.Results.resize(Jobs.size());
  Report.Threads = parallelWidth(Jobs.size(), Threads);
  Clock::time_point T0 = Clock::now();
  auto NowUs = [T0] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              T0)
            .count());
  };
  // Worker tracks are registered before any job runs, in index order, so
  // the timeline's pid/tid assignment never depends on scheduling.
  std::vector<metrics::TrackId> WorkerTracks;
  if (Timeline)
    for (unsigned W = 0; W < Report.Threads; ++W)
      WorkerTracks.push_back(
          Timeline->track("sweep", W, "worker" + std::to_string(W)));
  // Each job writes its preassigned slot; completion order is free.
  parallelFor(Jobs.size(), Threads, [&](std::size_t I, unsigned W) {
    const SweepJob &Job = Jobs[I];
    if (Timeline)
      Timeline->begin(WorkerTracks[W],
                      "job#" + std::to_string(Job.Index) + " " + Job.Workload,
                      NowUs());
    Report.Results[Job.Index] = runJob(Job);
    if (Timeline)
      Timeline->end(WorkerTracks[W], NowUs());
  });
  Report.WallMs = msSince(T0);
  for (const SweepResult &R : Report.Results) {
    switch (R.Status) {
    case JobStatus::Ok:
      ++Report.OkCount;
      break;
    case JobStatus::Failed:
      ++Report.FailedCount;
      break;
    case JobStatus::TimedOut:
      ++Report.TimedOutCount;
      break;
    }
  }
  return Report;
}

metrics::Registry sweep::mergedMetrics(const SweepReport &R) {
  metrics::Registry Merged;
  for (const SweepResult &S : R.Results)
    Merged.merge(S.Metrics);
  Merged.counter("sweep.jobs").inc(R.Results.size());
  Merged.counter("sweep.jobs_ok").inc(R.OkCount);
  Merged.counter("sweep.jobs_failed").inc(R.FailedCount);
  Merged.counter("sweep.jobs_timed_out").inc(R.TimedOutCount);
  return Merged;
}

Json sweep::reportToJson(const SweepReport &R, bool IncludeTimings) {
  Json Root = Json::object();
  Root["schema"] = "jrpm-sweep-v1";
  Root["seed"] = R.Seed;

  Json Results = Json::array();
  for (const SweepResult &S : R.Results) {
    Json J = Json::object();
    J["index"] = S.Index;
    J["workload"] = S.Workload;
    J["level"] = annotationLevelName(S.Level);
    J["config"] = S.ConfigName;
    J["mode"] = S.Mode == JobMode::Conformance ? "conformance" : "pipeline";
    J["status"] = jobStatusName(S.Status);
    if (!S.Error.empty())
      J["error"] = S.Error;
    J["cycles_plain"] = S.PlainCycles;
    J["cycles_profiled"] = S.ProfiledCycles;
    J["cycles_tls"] = S.TlsCycles;
    J["checksum"] = S.Checksum;
    J["loops"] = S.Loops;
    J["selected"] = S.SelectedLoops;
    J["predicted_speedup"] = S.PredictedSpeedup;
    J["actual_speedup"] = S.ActualSpeedup;
    J["profiling_slowdown"] = S.ProfilingSlowdown;
    J["selection_digest"] = formatString(
        "%016llx", (unsigned long long)S.SelectionDigest);
    if (S.Mode == JobMode::Conformance)
      J["replay_digest"] = formatString(
          "%016llx", (unsigned long long)S.ReplayDigest);
    if (IncludeTimings)
      J["wall_ms"] = S.WallMs;
    Results.push(std::move(J));
  }
  Root["results"] = std::move(Results);

  Json Summary = Json::object();
  Summary["jobs"] = static_cast<std::uint64_t>(R.Results.size());
  Summary["ok"] = R.OkCount;
  Summary["failed"] = R.FailedCount;
  Summary["timed_out"] = R.TimedOutCount;
  Root["summary"] = std::move(Summary);

  if (IncludeTimings) {
    Json Timing = Json::object();
    Timing["threads"] = R.Threads;
    Timing["wall_ms"] = R.WallMs;
    Root["timing"] = std::move(Timing);
  }
  return Root;
}

bool sweep::writeReport(const SweepReport &R, const std::string &Path,
                        bool IncludeTimings, std::string *Err) {
  return writeFileAtomic(Path, reportToJson(R, IncludeTimings).dump(), Err);
}
