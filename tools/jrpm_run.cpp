//===- tools/jrpm_run.cpp - Command-line driver for the Jrpm pipeline ------==//
//
// Usage:
//   jrpm-run list
//       List the Table 6 workloads.
//   jrpm-run run <workload> [options]
//       Run the full pipeline (sequential baseline, TEST profiling, STL
//       selection, speculative execution) and print a summary.
//   jrpm-run report <workload> [options]
//       Like `run`, plus the per-loop TEST statistics, Equation 1
//       estimates, PC-binned dependency sites, and TLS engine counters.
//   jrpm-run dump-ir <workload>
//       Print the lowered IR of the workload.
//   jrpm-run trace <workload> [--events <n>]
//       Record the annotated run to a temporary .jtrace and pretty-print
//       the first n events (default 40). Thin wrapper over the trace
//       subsystem — `jrpm-trace` is the full record/replay tool.
//
// Options:
//   --base             use base (unoptimized) annotations
//   --sync             synchronize globalized loop locals (Section 3.2)
//   --line-grain       per-line violation detection instead of per-word
//   --banks <n>        number of comparator banks (default 8)
//   --history <n>      heap store-timestamp FIFO lines (default 192)
//   --disable-after <n> stop tracing a loop after n threads (default off)
//
//===----------------------------------------------------------------------===//

#include "jrpm/Pipeline.h"
#include "metrics/Metrics.h"
#include "metrics/Timeline.h"
#include "support/AtomicFile.h"
#include "support/Format.h"
#include "support/Table.h"
#include "trace/Dump.h"
#include "workloads/Workload.h"

#include "analysis/Candidates.h"
#include "jit/Annotator.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

using namespace jrpm;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: jrpm-run list\n"
               "       jrpm-run run <workload> [options]\n"
               "       jrpm-run report <workload> [options]\n"
               "       jrpm-run dump-ir <workload>\n"
               "       jrpm-run trace <workload> [--events <n>]\n"
               "options: --base --sync --line-grain --banks <n> "
               "--history <n> --disable-after <n>\n"
               "         --metrics <file.json> --timeline <file.json>\n");
  return 2;
}

int listWorkloads() {
  TextTable T;
  T.setHeader({"Name", "Category", "Description", "Data set"});
  for (const auto &W : workloads::allWorkloads())
    T.addRow({W.Name, W.Category, W.Description, W.DataSet});
  T.print();
  return 0;
}

struct Options {
  pipeline::PipelineConfig Cfg;
  std::string MetricsPath;
  std::string TimelinePath;
  bool Ok = true;
};

Options parseOptions(int Argc, char **Argv, int First) {
  Options O;
  O.Cfg.ExtendedPcBinning = true;
  for (int I = First; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NextInt = [&](std::uint32_t &Out) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "missing value for %s\n", A.c_str());
        O.Ok = false;
        return;
      }
      Out = static_cast<std::uint32_t>(std::atoi(Argv[++I]));
    };
    auto NextStr = [&](std::string &Out) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "missing value for %s\n", A.c_str());
        O.Ok = false;
        return;
      }
      Out = Argv[++I];
    };
    if (A == "--base")
      O.Cfg.Level = jit::AnnotationLevel::Base;
    else if (A == "--sync")
      O.Cfg.Hw.SyncCarriedLocals = true;
    else if (A == "--line-grain")
      O.Cfg.Hw.ViolationGrain = sim::ViolationGranularity::Line;
    else if (A == "--banks")
      NextInt(O.Cfg.Hw.ComparatorBanks);
    else if (A == "--history")
      NextInt(O.Cfg.Hw.HeapTimestampFifoLines);
    else if (A == "--disable-after") {
      std::uint32_t N = 0;
      NextInt(N);
      O.Cfg.DisableLoopAfterThreads = N;
    } else if (A == "--metrics")
      NextStr(O.MetricsPath);
    else if (A.rfind("--metrics=", 0) == 0)
      O.MetricsPath = A.substr(std::strlen("--metrics="));
    else if (A == "--timeline")
      NextStr(O.TimelinePath);
    else if (A.rfind("--timeline=", 0) == 0)
      O.TimelinePath = A.substr(std::strlen("--timeline="));
    else {
      std::fprintf(stderr, "unknown option: %s\n", A.c_str());
      O.Ok = false;
    }
  }
  return O;
}

/// Serializes \p J to \p Path; returns false (after reporting) on failure.
bool writeJsonFile(const Json &J, const std::string &Path) {
  std::string Err;
  if (writeFileAtomic(Path, J.dump(), &Err))
    return true;
  std::fprintf(stderr, "jrpm-run: %s\n", Err.c_str());
  return false;
}

void printSummary(const pipeline::PipelineResult &R) {
  std::printf("sequential   : %s cycles (checksum %llu)\n",
              withCommas(static_cast<std::int64_t>(R.PlainRun.Cycles))
                  .c_str(),
              (unsigned long long)R.PlainRun.ReturnValue);
  std::printf("profiling    : %s cycles (%.1f%% slowdown, peak banks %u, "
              "peak local slots %u)\n",
              withCommas(static_cast<std::int64_t>(R.ProfiledRun.Cycles))
                  .c_str(),
              (R.profilingSlowdown() - 1.0) * 100.0, R.PeakBanksInUse,
              R.PeakLocalSlots);
  std::printf("selection    : %zu of %zu loops, predicted speedup %.2fx\n",
              R.Selection.SelectedLoops.size(), R.Selection.Loops.size(),
              R.Selection.PredictedSpeedup);
  std::printf("speculative  : %s cycles (checksum %llu) -> %.2fx actual\n",
              withCommas(static_cast<std::int64_t>(R.TlsRun.Cycles)).c_str(),
              (unsigned long long)R.TlsRun.ReturnValue, R.actualSpeedup());
  std::printf("verification : %s\n",
              R.TlsRun.ReturnValue == R.PlainRun.ReturnValue
                  ? "speculative result identical to sequential"
                  : "MISMATCH — engine bug");
}

void printLoopReport(const pipeline::Jrpm &J,
                     const pipeline::PipelineResult &R) {
  TextTable T;
  T.setHeader({"loop", "state", "cov%", "threads", "thr size", "arcs(t-1)",
               "arc len", "ovf%", "Eq.1", "violations", "restarts"});
  for (const auto &Rep : R.Selection.Loops) {
    const analysis::CandidateStl &C = J.moduleAnalysis().candidate(
        Rep.LoopId);
    std::string State = C.Rejected ? "rejected"
                        : Rep.Stats.Threads == 0
                            ? "untraced"
                            : (Rep.Selected ? "SELECTED" : "candidate");
    std::uint64_t Violations = 0, Restarts = 0;
    auto It = R.TlsLoopStats.find(Rep.LoopId);
    if (It != R.TlsLoopStats.end()) {
      Violations = It->second.Violations;
      Restarts = It->second.Restarts;
    }
    T.addRow({formatString("#%u", Rep.LoopId), State,
              formatString("%.1f", Rep.Coverage * 100),
              formatString("%llu",
                           (unsigned long long)Rep.Stats.Threads),
              formatString("%.0f", Rep.Stats.avgThreadSize()),
              formatString("%llu",
                           (unsigned long long)Rep.Stats.CritArcsPrev),
              formatString("%.0f", Rep.Stats.avgArcPrev()),
              formatString("%.1f", Rep.Stats.overflowFreq() * 100),
              formatString("%.2f", Rep.Estimate.Speedup),
              formatString("%llu", (unsigned long long)Violations),
              formatString("%llu", (unsigned long long)Restarts)});
  }
  T.print();

  // PC-binned dependency sites of selected loops (extended mode).
  for (const auto &Rep : R.Selection.Loops) {
    if (!Rep.Selected || Rep.Stats.PcBins.empty())
      continue;
    std::printf("\nloop #%u dependency sites (extended TEST):\n",
                Rep.LoopId);
    for (const auto &[Pc, Bin] : Rep.Stats.PcBins)
      std::printf("  load pc=%-6d critical arcs=%-8llu avg length=%.0f\n",
                  Pc, (unsigned long long)Bin.CriticalArcs,
                  Bin.averageLength());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  if (Cmd == "list") {
    if (Argc != 2)
      return usage();
    return listWorkloads();
  }
  if (Cmd != "run" && Cmd != "report" && Cmd != "dump-ir" && Cmd != "trace")
    return usage();
  if (Argc < 3)
    return usage();

  const workloads::Workload *W = workloads::findWorkload(Argv[2]);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s' (try: jrpm-run list)\n",
                 Argv[2]);
    return 2;
  }

  if (Cmd == "dump-ir") {
    if (Argc != 3)
      return usage();
    std::string Text = W->Build().dump();
    std::fputs(Text.c_str(), stdout);
    return 0;
  }

  if (Cmd == "trace") {
    std::uint64_t Events = 40;
    for (int I = 3; I < Argc; ++I) {
      std::string A = Argv[I];
      if (A == "--events") {
        if (I + 1 >= Argc) {
          std::fprintf(stderr, "missing value for --events\n");
          return usage();
        }
        Events = static_cast<std::uint64_t>(std::atoll(Argv[++I]));
      } else if (A.rfind("--events=", 0) == 0) {
        Events = static_cast<std::uint64_t>(
            std::atoll(A.c_str() + std::strlen("--events=")));
      } else {
        std::fprintf(stderr, "unknown option: %s\n", A.c_str());
        return usage();
      }
    }
    // Thin wrapper over the trace subsystem: record the annotated run to a
    // temporary .jtrace, then pretty-print it with the one shared event
    // formatter (trace::dumpTrace).
    std::string TmpPath = "/tmp/jrpm-run-trace-" +
                          std::to_string(static_cast<long>(getpid())) +
                          ".jtrace";
    pipeline::PipelineConfig Cfg;
    Cfg.WorkloadName = W->Name;
    Cfg.RecordTracePath = TmpPath;
    int Ret = 0;
    try {
      pipeline::Jrpm J(W->Build(), Cfg);
      J.profileAndSelect();
      trace::Reader R(TmpPath);
      trace::dumpTrace(R, stdout, Events);
    } catch (const trace::Error &E) {
      std::fprintf(stderr, "jrpm-run trace: %s\n", E.what());
      Ret = 1;
    }
    std::remove(TmpPath.c_str());
    return Ret;
  }

  Options O = parseOptions(Argc, Argv, 3);
  if (!O.Ok)
    return usage();

  metrics::Registry Reg;
  metrics::Timeline Timeline;
  if (!O.MetricsPath.empty())
    O.Cfg.Metrics = &Reg;
  if (!O.TimelinePath.empty())
    O.Cfg.Timeline = &Timeline;

  pipeline::Jrpm J(W->Build(), O.Cfg);
  pipeline::PipelineResult R = J.runAll();
  std::printf("== %s (%s) ==\n", W->Name.c_str(), W->Category.c_str());
  printSummary(R);
  if (Cmd == "report") {
    std::printf("\n");
    printLoopReport(J, R);
  }
  if (!O.MetricsPath.empty() && !writeJsonFile(Reg.toJson(), O.MetricsPath))
    return 1;
  if (!O.TimelinePath.empty() &&
      !writeJsonFile(Timeline.toJson(), O.TimelinePath))
    return 1;
  return R.TlsRun.ReturnValue == R.PlainRun.ReturnValue ? 0 : 1;
}
