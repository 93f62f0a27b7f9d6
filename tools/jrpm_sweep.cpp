//===- tools/jrpm_sweep.cpp - Parallel sweep & conformance driver ----------==//
//
// Usage:
//   jrpm-sweep run [options]
//       Expand the plan and execute every (workload x level x config) job
//       in parallel; print a summary table and optionally write the
//       structured JSON report.
//   jrpm-sweep plan [options]
//       Print the expanded job list without running anything.
//   jrpm-sweep conformance [options]
//       Differential conformance across the whole registry: sequential
//       interp vs annotated trace (captured + replayed) vs speculative
//       TLS, both annotation levels, a >= 3-point engine-config grid.
//       Exits nonzero on any checksum or selection-digest mismatch.
//
// Options:
//   --workloads a,b,c   workload subset (default: full Table 6 registry)
//   --levels l1,l2      base, optimized, or both (default: optimized;
//                       conformance always runs both)
//   --config k=v[,k=v]  add one configuration point (repeatable); knobs:
//                       assoc banks disable-after history line-grain
//                       load-lines pc-binning prefilter slots store-lines
//                       sync
//   --threads n         thread count, at most one per job (default 0:
//                       hardware concurrency)
//   --timeout-ms n      soft per-job wall-clock budget
//   --seed n            seed stamped into the report
//   -o file.json        write the JSON report (atomic rename)
//   --metrics file.json write the merged per-job instrumentation registry
//                       (deterministic: byte-identical for any --threads)
//   --timeline file.json write a Chrome trace_event timeline of worker
//                       occupancy (wall-clock; NOT deterministic)
//   --no-timings        deterministic JSON only: no wall-clock, no thread
//                       count (1-thread and N-thread runs byte-identical)
//   --quiet             suppress the per-job table, print the summary only
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"
#include "support/Format.h"
#include "support/Table.h"
#include "sweep/Conformance.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace jrpm;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: jrpm-sweep run|plan|conformance [options]\n"
      "  --workloads a,b,c  --levels base,optimized  --config k=v[,k=v]\n"
      "  --threads n  --timeout-ms n  --seed n  -o file.json\n"
      "  --metrics file.json  --timeline file.json  --no-timings  --quiet\n"
      "knobs:");
  for (const std::string &K : sweep::knownKnobs())
    std::fprintf(stderr, " %s", K.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

struct CliOptions {
  sweep::SweepPlan Plan;
  unsigned Threads = 0;
  std::string OutPath;
  std::string MetricsPath;
  std::string TimelinePath;
  bool IncludeTimings = true;
  bool Quiet = false;
  bool Ok = true;
};

CliOptions parseCli(int Argc, char **Argv, int First) {
  CliOptions O;
  for (int I = First; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NextArg = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "missing value for %s\n", A.c_str());
        O.Ok = false;
        return "";
      }
      return Argv[++I];
    };
    auto NextUnsigned = [&](std::uint64_t Max) {
      std::uint64_t V = 0;
      bool Given = I + 1 < Argc;
      const char *S = NextArg();
      if (Given && !parseUnsigned(S, Max, V)) {
        std::fprintf(stderr, "%s: expected an integer in [0, %llu], got '%s'\n",
                     A.c_str(), (unsigned long long)Max, S);
        O.Ok = false;
      }
      return V;
    };
    if (A == "--workloads") {
      O.Plan.Workloads = splitCommas(NextArg());
    } else if (A == "--levels") {
      for (const std::string &L : splitCommas(NextArg())) {
        if (L == "base")
          O.Plan.Levels.push_back(jit::AnnotationLevel::Base);
        else if (L == "optimized" || L == "opt")
          O.Plan.Levels.push_back(jit::AnnotationLevel::Optimized);
        else {
          std::fprintf(stderr, "unknown level '%s'\n", L.c_str());
          O.Ok = false;
        }
      }
    } else if (A == "--config") {
      sweep::ConfigPoint P;
      std::string Err;
      if (!sweep::parseConfigPoint(NextArg(), P, &Err)) {
        std::fprintf(stderr, "%s\n", Err.c_str());
        O.Ok = false;
      } else {
        O.Plan.Configs.push_back(std::move(P));
      }
    } else if (A == "--threads") {
      O.Threads = static_cast<unsigned>(NextUnsigned(sweep::MaxThreads));
    } else if (A == "--timeout-ms") {
      O.Plan.TimeoutMs = static_cast<std::uint32_t>(NextUnsigned(UINT32_MAX));
    } else if (A == "--seed") {
      O.Plan.Seed = NextUnsigned(UINT64_MAX);
    } else if (A == "-o") {
      O.OutPath = NextArg();
    } else if (A == "--metrics") {
      O.MetricsPath = NextArg();
    } else if (A == "--timeline") {
      O.TimelinePath = NextArg();
    } else if (A == "--no-timings") {
      O.IncludeTimings = false;
    } else if (A == "--quiet") {
      O.Quiet = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", A.c_str());
      O.Ok = false;
    }
  }
  return O;
}

void printJobsTable(const sweep::SweepReport &Report) {
  TextTable T;
  T.setHeader({"#", "workload", "level", "config", "status", "cycles",
               "sel", "pred", "actual", "digest"});
  for (const sweep::SweepResult &R : Report.Results)
    T.addRow({formatString("%u", R.Index), R.Workload,
              sweep::annotationLevelName(R.Level), R.ConfigName,
              sweep::jobStatusName(R.Status),
              withCommas(static_cast<std::int64_t>(R.PlainCycles)),
              formatString("%llu/%llu",
                           (unsigned long long)R.SelectedLoops,
                           (unsigned long long)R.Loops),
              formatString("%.2f", R.PredictedSpeedup),
              formatString("%.2f", R.ActualSpeedup),
              formatString("%016llx",
                           (unsigned long long)R.SelectionDigest)});
  T.print();
}

bool writeJsonFile(const Json &J, const std::string &Path,
                   const char *What) {
  std::string Err;
  if (writeFileAtomic(Path, J.dump(), &Err)) {
    std::printf("%s written to %s\n", What, Path.c_str());
    return true;
  }
  std::fprintf(stderr, "jrpm-sweep: %s\n", Err.c_str());
  return false;
}

int finishReport(const sweep::SweepReport &Report, const CliOptions &O) {
  if (!O.Quiet)
    printJobsTable(Report);
  std::printf("%llu jobs: %llu ok, %llu failed, %llu timed out "
              "(%u threads, %.1f ms)\n",
              (unsigned long long)Report.Results.size(),
              (unsigned long long)Report.OkCount,
              (unsigned long long)Report.FailedCount,
              (unsigned long long)Report.TimedOutCount, Report.Threads,
              Report.WallMs);
  for (const sweep::SweepResult &R : Report.Results)
    if (R.Status != sweep::JobStatus::Ok)
      std::fprintf(stderr, "  %s [%s, %s]: %s\n", R.Workload.c_str(),
                   sweep::annotationLevelName(R.Level), R.ConfigName.c_str(),
                   R.Error.c_str());
  if (!O.OutPath.empty()) {
    std::string Err;
    if (!sweep::writeReport(Report, O.OutPath, O.IncludeTimings, &Err)) {
      std::fprintf(stderr, "jrpm-sweep: %s\n", Err.c_str());
      return 1;
    }
    std::printf("report written to %s\n", O.OutPath.c_str());
  }
  if (!O.MetricsPath.empty() &&
      !writeJsonFile(sweep::mergedMetrics(Report).toJson(), O.MetricsPath,
                     "metrics"))
    return 1;
  return Report.allOk() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  if (Cmd != "run" && Cmd != "plan" && Cmd != "conformance")
    return usage();

  CliOptions O = parseCli(Argc, Argv, 2);
  if (!O.Ok)
    return usage();

  if (Cmd == "conformance") {
    std::vector<sweep::ConfigPoint> Grid = O.Plan.Configs.empty()
                                               ? sweep::defaultConformanceGrid()
                                               : O.Plan.Configs;
    sweep::SweepPlan Plan =
        sweep::conformancePlan(std::move(Grid), O.Plan.Workloads);
    Plan.TimeoutMs = O.Plan.TimeoutMs;
    Plan.Seed = O.Plan.Seed;
    O.Plan = std::move(Plan);
  }

  std::vector<sweep::SweepJob> Jobs;
  std::string Err;
  if (!O.Plan.expand(Jobs, &Err)) {
    std::fprintf(stderr, "jrpm-sweep: %s\n", Err.c_str());
    return 2;
  }
  for (const sweep::SweepJob &J : Jobs)
    if (!workloads::findWorkload(J.Workload))
      std::fprintf(stderr, "warning: unknown workload '%s' (job %u will "
                           "report as failed)\n",
                   J.Workload.c_str(), J.Index);

  if (Cmd == "plan") {
    TextTable T;
    T.setHeader({"#", "workload", "level", "config", "mode"});
    for (const sweep::SweepJob &J : Jobs)
      T.addRow({formatString("%u", J.Index), J.Workload,
                sweep::annotationLevelName(J.Level), J.ConfigName,
                J.Mode == sweep::JobMode::Conformance ? "conformance"
                                                      : "pipeline"});
    T.print();
    std::printf("%zu jobs\n", Jobs.size());
    return 0;
  }

  metrics::Timeline Timeline;
  sweep::SweepReport Report = sweep::runSweep(
      Jobs, O.Threads, O.TimelinePath.empty() ? nullptr : &Timeline);
  Report.Seed = O.Plan.Seed;
  if (Cmd == "conformance" && Report.allOk())
    std::printf("conformance: %llu jobs bit-identical across sequential, "
                "annotated-trace, and speculative execution\n",
                (unsigned long long)Report.OkCount);
  if (!O.TimelinePath.empty() &&
      !writeJsonFile(Timeline.toJson(), O.TimelinePath, "timeline"))
    return 1;
  return finishReport(Report, O);
}
