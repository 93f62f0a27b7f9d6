//===- tools/jrpm_trace.cpp - Record/inspect/replay .jtrace files ----------==//
//
// Usage:
//   jrpm-trace record <workload> [-o <path>] [--base] [--config k=v[,k=v]]
//       Run the annotated profiling interpretation once, streaming the
//       event stream to disk, and print the capture summary.
//   jrpm-trace info <path>
//       Print the trace header and footer (O(1) — no event decoding).
//   jrpm-trace dump <path> [--events <n>]
//       Pretty-print the first n events (default 40).
//   jrpm-trace replay <path> [--config k=v[,k=v]]
//       Re-drive the TEST analysis from the trace (no interpretation) and
//       print the resulting STL selection. Defaults to the capture-time
//       configuration; --config overrides it, so one recorded trace
//       feeds arbitrarily many analysis configurations.
//   jrpm-trace diff <a> <b>
//       Event-by-event comparison for golden-trace regression. Exit 1 and
//       print the first divergence when the traces differ.
//
// Options: -o and --base (record), --events (dump), and --config k=v[,k=v]
// (record, replay; repeatable). --config sets the jrpm-sweep knobs on top of
// the jrpm-run defaults (record) or the recorded configuration (replay);
// replay rejects prefilter and oracle, which pick the candidate loops at
// record time. A subcommand rejects every option it does not list.
//
//===----------------------------------------------------------------------===//

#include "ToolCli.h"
#include "jrpm/Pipeline.h"
#include "support/Format.h"
#include "support/Table.h"
#include "sweep/SweepPlan.h"
#include "trace/Dump.h"
#include "trace/Replay.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

using namespace jrpm;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: jrpm-trace record <workload> [-o <path>] [--base] "
               "[--config k=v[,k=v]]\n"
               "       jrpm-trace info <path>\n"
               "       jrpm-trace dump <path> [--events <n>]\n"
               "       jrpm-trace replay <path> [--config k=v[,k=v]]\n"
               "       jrpm-trace diff <a> <b>\n"
               "knobs:");
  for (const std::string &K : sweep::knownKnobs())
    std::fprintf(stderr, " %s", K.c_str());
  std::fprintf(stderr, " (replay: not prefilter, oracle)\n");
  return 2;
}

struct Options {
  bool Ok = true;
  bool Base = false;
  std::string OutPath;
  std::uint64_t Events = 40;
  sweep::ConfigPoint Point; ///< every --config value, joined by commas
};

/// Parses the options after `jrpm-trace <cmd> <operand>`; any option not
/// in \p Allowed is rejected.
Options parseOptions(int Argc, char **Argv,
                     std::initializer_list<std::string_view> Allowed) {
  Options O;
  std::string Spec;
  tools::OptionReader R(Argc, Argv, 3);
  while (O.Ok && R.ok() && R.next()) {
    std::string A = R.option();
    if (std::find(Allowed.begin(), Allowed.end(), A) == Allowed.end()) {
      std::fprintf(stderr, "jrpm-trace %s: unsupported option %s\n",
                   Argv[1], A.c_str());
      O.Ok = false;
    } else if (A == "-o")
      O.OutPath = R.value();
    else if (A == "--base")
      O.Base = true;
    else if (A == "--config")
      Spec += (Spec.empty() ? "" : ",") + std::string(R.value());
    else
      O.Events = R.unsignedValue(UINT64_MAX);
  }
  O.Ok = O.Ok && R.ok();
  std::string Err;
  if (O.Ok && !sweep::parseConfigPoint(Spec, O.Point, &Err)) {
    std::fprintf(stderr, "jrpm-trace: %s\n", Err.c_str());
    O.Ok = false;
  }
  return O;
}

/// Applies \p O's knobs to \p Cfg; reports and returns false on failure.
bool applyPoint(const Options &O, pipeline::PipelineConfig &Cfg) {
  std::string Err;
  if (O.Point.apply(Cfg, &Err))
    return true;
  std::fprintf(stderr, "jrpm-trace: %s\n", Err.c_str());
  return false;
}

void printSelection(const tracer::SelectionResult &Selection) {
  TextTable T;
  T.setHeader({"loop", "state", "cov%", "threads", "thr size", "arcs(t-1)",
               "arc len", "ovf%", "Eq.1"});
  for (const auto &Rep : Selection.Loops) {
    std::string State = Rep.Stats.Threads == 0
                            ? "untraced"
                            : (Rep.Selected ? "SELECTED" : "candidate");
    T.addRow({formatString("#%u", Rep.LoopId), State,
              formatString("%.1f", Rep.Coverage * 100),
              formatString("%llu",
                           static_cast<unsigned long long>(
                               Rep.Stats.Threads)),
              formatString("%.0f", Rep.Stats.avgThreadSize()),
              formatString("%llu", static_cast<unsigned long long>(
                                       Rep.Stats.CritArcsPrev)),
              formatString("%.0f", Rep.Stats.avgArcPrev()),
              formatString("%.1f", Rep.Stats.overflowFreq() * 100),
              formatString("%.2f", Rep.Estimate.Speedup)});
  }
  T.print();
  std::printf("selected %zu of %zu loops, predicted speedup %.2fx\n",
              Selection.SelectedLoops.size(), Selection.Loops.size(),
              Selection.PredictedSpeedup);
}

int cmdRecord(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  const workloads::Workload *W = workloads::findWorkload(Argv[2]);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s' (try: jrpm-run list)\n",
                 Argv[2]);
    return 2;
  }
  Options O = parseOptions(Argc, Argv, {"-o", "--base", "--config"});
  if (!O.Ok)
    return usage();

  pipeline::PipelineConfig Cfg;
  Cfg.ExtendedPcBinning = true;
  if (O.Base)
    Cfg.Level = jit::AnnotationLevel::Base;
  if (!applyPoint(O, Cfg))
    return usage();
  Cfg.WorkloadName = W->Name;
  Cfg.RecordTracePath =
      O.OutPath.empty() ? W->Name + ".jtrace" : O.OutPath;

  pipeline::Jrpm J(W->Build(), Cfg);
  auto P = J.profileAndSelect();

  trace::Reader R(Cfg.RecordTracePath);
  const trace::TraceFooter &F = R.footer();
  std::printf("recorded %s -> %s\n", W->Name.c_str(),
              Cfg.RecordTracePath.c_str());
  std::printf("  events       : %s\n",
              withCommas(static_cast<std::int64_t>(F.TotalEvents)).c_str());
  std::printf("  cycles       : %s\n",
              withCommas(static_cast<std::int64_t>(F.Run.Cycles)).c_str());
  std::printf("  selected     : %zu of %zu loops, predicted %.2fx\n",
              P.Selection.SelectedLoops.size(), P.Selection.Loops.size(),
              P.Selection.PredictedSpeedup);
  return 0;
}

int cmdDump(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv, {"--events"});
  if (!O.Ok)
    return usage();
  trace::Reader R(Argv[2]);
  trace::dumpTrace(R, stdout, O.Events);
  return 0;
}

int cmdReplay(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv, {"--config"});
  if (!O.Ok)
    return usage();
  for (const auto &Knob : O.Point.Knobs)
    if (Knob.first == "prefilter" || Knob.first == "oracle") {
      std::fprintf(stderr,
                   "jrpm-trace replay: knob '%s' chooses the candidate loops "
                   "at record time; pass it to `jrpm-trace record`\n",
                   Knob.first.c_str());
      return usage();
    }
  trace::CachedTrace T(Argv[2]);
  pipeline::PipelineConfig Cfg;
  trace::copyTracerConfig(T.header(), Cfg);
  if (!applyPoint(O, Cfg))
    return usage();
  trace::ReplayConfig RC;
  trace::copyTracerConfig(Cfg, RC);

  trace::ReplayOutcome Out = trace::selectFromTrace(T, RC);
  std::printf("replayed %s events of %s (%s)\n",
              withCommas(static_cast<std::int64_t>(Out.EventsReplayed))
                  .c_str(),
              Argv[2],
              T.header().WorkloadName.empty()
                  ? "unnamed workload"
                  : T.header().WorkloadName.c_str());
  std::printf("peak banks %u, peak local slots %u, peak nest %u\n\n",
              Out.PeakBanksInUse, Out.PeakLocalSlots, Out.PeakDynamicNest);
  printSelection(Out.Selection);
  return 0;
}

int cmdDiff(const std::string &A, const std::string &B) {
  trace::Reader RA(A);
  trace::Reader RB(B);
  trace::DiffResult D = trace::diffTraces(RA, RB);
  if (D.Identical) {
    std::printf("traces identical: %s events\n",
                withCommas(static_cast<std::int64_t>(D.FirstDivergence))
                    .c_str());
    return 0;
  }
  std::printf("traces differ: %s\n", D.Detail.c_str());
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  try {
    if (Cmd == "record")
      return cmdRecord(Argc, Argv);
    if (Cmd == "info" && Argc == 3) {
      trace::Reader R(Argv[2]);
      trace::printInfo(R, stdout);
      return 0;
    }
    if (Cmd == "dump" && Argc >= 3)
      return cmdDump(Argc, Argv);
    if (Cmd == "replay" && Argc >= 3)
      return cmdReplay(Argc, Argv);
    if (Cmd == "diff" && Argc == 4)
      return cmdDiff(Argv[2], Argv[3]);
  } catch (const trace::Error &E) {
    std::fprintf(stderr, "jrpm-trace: %s\n", E.what());
    return 1;
  }
  return usage();
}
