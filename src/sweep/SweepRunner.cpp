//===- sweep/SweepRunner.cpp ----------------------------------------------==//

#include "sweep/SweepRunner.h"

#include "support/AtomicFile.h"
#include "support/Format.h"
#include "trace/Replay.h"
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

void fillPipelineFields(SweepResult &R, const pipeline::PipelineResult &P) {
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
}

void appendError(SweepResult &R, const std::string &Msg) {
  if (!R.Error.empty())
    R.Error += "; ";
  R.Error += Msg;
}

/// The full five-step pipeline with a sequential-vs-speculative checksum
/// verification — the Pipeline job mode.
void runPipelineJob(const workloads::Workload &W, const SweepJob &Job,
                    SweepResult &R) {
  pipeline::PipelineConfig Cfg = Job.Cfg;
  Cfg.Metrics = &R.Metrics;
  pipeline::Jrpm J(W.Build(), Cfg);
  pipeline::PipelineResult P = J.runAll();
  fillPipelineFields(R, P);
  if (P.TlsRun.ReturnValue != P.PlainRun.ReturnValue)
    appendError(R, formatString(
                       "speculative checksum %llu != sequential %llu",
                       (unsigned long long)P.TlsRun.ReturnValue,
                       (unsigned long long)P.PlainRun.ReturnValue));
}

/// The differential conformance check: the same program is executed as (1)
/// a clean sequential interpretation, (2) an annotated profiling run
/// recorded to a trace and re-analyzed from that trace, and (3) native TLS
/// on the Hydra engine. All three checksums must be bit-identical and the
/// trace-replayed selection must reproduce the live digest exactly.
void runConformanceJob(const workloads::Workload &W, const SweepJob &Job,
                       SweepResult &R) {
  std::string TracePath = "/tmp/jrpm-sweep-" +
                          std::to_string(static_cast<long>(getpid())) + "-" +
                          std::to_string(Job.Index) + ".jtrace";
  // Removes the trace on every exit, a throwing pipeline step included.
  struct RemoveOnExit {
    const std::string &Path;
    ~RemoveOnExit() { std::remove(Path.c_str()); }
  } Cleanup{TracePath};
  pipeline::PipelineConfig Cfg = Job.Cfg;
  Cfg.RecordTracePath = TracePath;
  Cfg.Metrics = &R.Metrics;

  pipeline::Jrpm J(W.Build(), Cfg);
  interp::RunResult Plain = J.runPlain();
  pipeline::Jrpm::ProfileOutcome Profile = J.profileAndSelect();
  pipeline::Jrpm::TlsOutcome Tls = J.runSpeculative(Profile.Selection);

  pipeline::PipelineResult P;
  P.PlainRun = Plain;
  P.ProfiledRun = Profile.Run;
  P.Selection = Profile.Selection;
  P.TlsRun = Tls.Run;
  fillPipelineFields(R, P);

  if (Profile.Run.ReturnValue != Plain.ReturnValue)
    appendError(R, formatString(
                       "annotated checksum %llu != sequential %llu",
                       (unsigned long long)Profile.Run.ReturnValue,
                       (unsigned long long)Plain.ReturnValue));
  if (Tls.Run.ReturnValue != Plain.ReturnValue)
    appendError(R, formatString(
                       "speculative checksum %llu != sequential %llu",
                       (unsigned long long)Tls.Run.ReturnValue,
                       (unsigned long long)Plain.ReturnValue));

  // Leg 2b: the recorded trace, re-analyzed from scratch, must reproduce
  // the live selection bit-for-bit under the capture configuration.
  trace::CachedTrace Trace(TracePath);
  trace::ReplayConfig RC; // Metrics unset: tracer.* is exported live only
  trace::copyTracerConfig(Job.Cfg, RC);
  trace::ReplayOutcome Replayed = trace::selectFromTrace(Trace, RC);
  R.ReplayDigest = tracer::selectionDigest(Replayed.Selection);
  if (R.ReplayDigest != R.SelectionDigest)
    appendError(R, formatString(
                       "replayed selection digest %016llx != live %016llx",
                       (unsigned long long)R.ReplayDigest,
                       (unsigned long long)R.SelectionDigest));
  if (Replayed.Run.Cycles != Profile.Run.Cycles ||
      Replayed.Run.ReturnValue != Profile.Run.ReturnValue)
    appendError(R, "trace footer run diverged from live profiled run");
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
  try {
    if (Job.Mode == JobMode::Conformance)
      runConformanceJob(*W, Job, R);
    else
      runPipelineJob(*W, Job, R);
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
