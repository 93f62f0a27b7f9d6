//===- bench/bench_ablation_banks.cpp - Comparator bank count ablation -----==//
//
// Section 5.2 sizes the comparator array at eight banks and argues deep
// nests can still be analyzed by dynamically disabling converged loops.
// This ablation sweeps the bank count and reports how much of the analysis
// survives: traced entries, selected STLs, and the predicted speedup.
//
// Trace-driven: each workload is interpreted once into an in-memory capture
// (trace::CachedTrace); every bank configuration is then a replayed
// analysis over that event stream, not a fresh interpretation.
//
// Pooled: each workload's unit (record + replayed analyses) is one job. The
// job list runs serially first, then through sweep::parallelFor; both
// passes fill the same preassigned row slots and must agree exactly.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "trace/Replay.h"

using namespace jrpm;
using namespace jrpm::benchutil;

int main() {
  printBanner("Ablation - number of comparator banks",
              "Section 5.2 design choice (8 banks)");
  const std::uint32_t BankCounts[] = {1, 2, 4, 8};
  const char *Names[] = {"Assignment", "jess", "decJpeg", "mp3"};

  // Rows[workload][config], filled by the jobs; the table is rendered after
  // the passes so pooled scheduling order cannot reorder the output.
  std::vector<std::vector<std::vector<std::string>>> Rows(
      std::size(Names), std::vector<std::vector<std::string>>(
                            std::size(BankCounts)));

  std::vector<std::function<void()>> Jobs;
  for (std::size_t Wi = 0; Wi < std::size(Names); ++Wi) {
    Jobs.push_back([&, Wi]() {
      const char *Name = Names[Wi];
      const workloads::Workload *W = workloads::findWorkload(Name);

      // Record once under the reference configuration, then feed every
      // bank count from the same event stream.
      pipeline::PipelineConfig RecCfg;
      RecCfg.WorkloadName = Name;
      trace::CachedTrace Trace =
          pipeline::Jrpm(W->Build(), RecCfg).profileInMemory().Trace;
      for (std::size_t Ci = 0; Ci < std::size(BankCounts); ++Ci) {
        std::uint32_t Banks = BankCounts[Ci];
        trace::ReplayConfig Cfg = trace::recordedConfig(Trace.header());
        Cfg.Hw.ComparatorBanks = Banks;
        // Deep analysis relies on converged loops being disabled.
        Cfg.DisableLoopAfterThreads = Banks < 8 ? 2000 : 0;
        trace::ReplayOutcome P = trace::selectFromTrace(Trace, Cfg);
        std::uint64_t Untraced = 0;
        for (const auto &Rep : P.Selection.Loops)
          Untraced += Rep.Stats.UntracedEntries;
        Rows[Wi][Ci] = {Name, formatString("%u", Banks),
                        formatString("%u", P.PeakBanksInUse),
                        formatString("%llu", static_cast<unsigned long long>(
                                                 Untraced)),
                        formatString("%zu", P.Selection.SelectedLoops.size()),
                        fmt(P.Selection.PredictedSpeedup)};
      }
    });
  }

  for (const std::function<void()> &J : Jobs)
    J();
  std::vector<std::vector<std::vector<std::string>>> SerialRows = Rows;
  runOnPool(Jobs);

  TextTable T;
  T.setHeader({"Benchmark", "banks", "peak", "untraced entries", "selected",
               "pred speedup"});
  for (const auto &WorkloadRows : Rows) {
    for (const auto &Row : WorkloadRows)
      T.addRow(Row);
    T.addSeparator();
  }
  T.print();
  std::printf("\nWith eight banks virtually nothing goes untraced (the\n"
              "paper: 'eight comparator banks are sufficient to analyze\n"
              "most of the benchmark programs'); starving the array loses\n"
              "inner decompositions unless dynamic disabling frees banks.\n");
  printPoolVerdict("per-workload record+replay", Jobs.size(),
                   Rows == SerialRows);
  return Rows == SerialRows ? 0 : 1;
}
