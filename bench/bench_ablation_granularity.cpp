//===- bench/bench_ablation_granularity.cpp - Violation granularity --------==//
//
// Hydra detects RAW violations with per-word speculation bits; coarser
// per-line detection would be cheaper hardware but causes false
// violations. This ablation runs the speculative engine under both
// granularities (results must stay bit-identical; only performance moves).
//
// Trace-driven: the violation grain only affects the speculative (TLS)
// engine — profiling and STL selection are grain-independent — so the
// profiling phase is recorded once and its selection replayed once from
// the trace, shared by both grains. Only the speculative runs themselves
// stay live. The original methodology (full pipeline per grain) is run and
// timed as the baseline.
//
// Pooled: each workload's unit (live baseline, record+replay, two live
// speculative runs) is one job; the list runs serially and then through
// sweep::parallelFor into the same preassigned slots.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "trace/Replay.h"

#include <mutex>

using namespace jrpm;
using namespace jrpm::benchutil;

int main() {
  printBanner("Ablation - violation detection granularity (word vs line)",
              "Hydra design choice (Section 3.1)");
  const char *Names[] = {"moldyn", "BitOps", "shallow", "decJpeg", "Huffman"};

  std::mutex PhaseM;
  double LiveMs = 0, RecordMs = 0, AnalyzeMs = 0, SpecMs = 0;
  std::vector<std::vector<std::vector<std::string>>> Rows(
      std::size(Names), std::vector<std::vector<std::string>>(2));
  std::vector<char> Matched(std::size(Names), 0);

  std::vector<std::function<void()>> Jobs;
  for (std::size_t Wi = 0; Wi < std::size(Names); ++Wi) {
    Jobs.push_back([&, Wi]() {
      const char *Name = Names[Wi];
      const workloads::Workload *W = workloads::findWorkload(Name);

      // Old methodology, timed as the baseline: plain + annotated profiling
      // + speculative execution per grain.
      for (auto Grain : {sim::ViolationGranularity::Word,
                         sim::ViolationGranularity::Line}) {
        pipeline::PipelineConfig Cfg;
        Cfg.Hw.ViolationGrain = Grain;
        Stopwatch S;
        pipeline::Jrpm J(W->Build(), Cfg);
        J.runAll();
        std::lock_guard<std::mutex> L(PhaseM);
        LiveMs += S.ms();
      }

      // Profile once, recorded; the selection is replayed from the trace
      // and shared by both grains.
      std::string Path = benchTracePath(std::string("grain-") + Name);
      {
        Stopwatch S;
        pipeline::PipelineConfig Cfg;
        Cfg.WorkloadName = Name;
        Cfg.RecordTracePath = Path;
        pipeline::Jrpm J(W->Build(), Cfg);
        J.profileAndSelect();
        std::lock_guard<std::mutex> L(PhaseM);
        RecordMs += S.ms();
      }
      Stopwatch Analyze;
      trace::Reader R(Path);
      trace::ReplayOutcome Profile = trace::selectFromTrace(R);
      {
        std::lock_guard<std::mutex> L(PhaseM);
        AnalyzeMs += Analyze.ms();
      }
      std::remove(Path.c_str());

      // Only the speculative runs depend on the grain; they stay live, on
      // one program under each grain's engine configuration.
      bool AllMatch = true;
      pipeline::Jrpm J(W->Build(), pipeline::PipelineConfig{});
      interp::RunResult Plain = J.runPlain();
      int Gi = 0;
      for (auto Grain : {sim::ViolationGranularity::Word,
                         sim::ViolationGranularity::Line}) {
        sim::HydraConfig Hw;
        Hw.ViolationGrain = Grain;
        Stopwatch S;
        pipeline::Jrpm::TlsOutcome Tls =
            J.runSpeculative(Profile.Selection, Hw);
        {
          std::lock_guard<std::mutex> L(PhaseM);
          SpecMs += S.ms();
        }
        bool Match = Tls.Run.ReturnValue == Plain.ReturnValue;
        AllMatch &= Match;
        std::uint64_t Violations = 0, Restarts = 0;
        for (const auto &[LoopId, S2] : Tls.LoopStats) {
          Violations += S2.Violations;
          Restarts += S2.Restarts;
        }
        double Speedup = Tls.Run.Cycles
                             ? static_cast<double>(Plain.Cycles) /
                                   static_cast<double>(Tls.Run.Cycles)
                             : 1.0;
        Rows[Wi][Gi++] = {
            Name, Grain == sim::ViolationGranularity::Word ? "word" : "line",
            formatString("%llu",
                         static_cast<unsigned long long>(Violations)),
            formatString("%llu", static_cast<unsigned long long>(Restarts)),
            fmt(Speedup), Match ? "yes" : "NO"};
      }
      Matched[Wi] = AllMatch;
    });
  }

  Stopwatch Serial;
  for (const std::function<void()> &J : Jobs)
    J();
  double SerialMs = Serial.ms();
  double LiveSnap = LiveMs, RecordSnap = RecordMs, AnalyzeSnap = AnalyzeMs,
         SpecSnap = SpecMs;
  std::vector<std::vector<std::vector<std::string>>> SerialRows = Rows;

  PoolRun P = runOnPool(Jobs);

  TextTable T;
  T.setHeader({"Benchmark", "grain", "violations", "restarts",
               "actual speedup", "checksum ok"});
  bool AllMatch = true;
  for (std::size_t Wi = 0; Wi < std::size(Names); ++Wi) {
    for (const auto &Row : Rows[Wi])
      T.addRow(Row);
    T.addSeparator();
    AllMatch &= Matched[Wi] != 0;
  }
  T.print();
  if (!AllMatch)
    return 1;
  std::printf("\nLine-granular detection adds false sharing violations on\n"
              "loops whose neighbouring iterations touch adjacent words;\n"
              "correctness is unaffected (TLS restarts hide everything).\n");
  double NewMs = RecordSnap + AnalyzeSnap + SpecSnap;
  std::printf("\nrecord-once/replay-many, 2-configuration sweep:\n"
              "  2 full pipeline runs (one per grain)         %8.1f ms\n"
              "  1 recorded profile + 1 replayed selection\n"
              "  + 2 live speculative runs                    %8.1f ms "
              "(record %.1f, analyze %.1f, spec %.1f)\n"
              "  wall-clock reduction: %.2fx (the speculative engine must\n"
              "  still run under each grain; only profiling is amortized)\n",
              LiveSnap, NewMs, RecordSnap, AnalyzeSnap, SpecSnap,
              LiveSnap / NewMs);
  printPoolReduction("per-workload grain-comparison", Jobs.size(), SerialMs,
                     P, Rows == SerialRows);
  return Rows == SerialRows ? 0 : 1;
}
