//===- bench/bench_metrics_overhead.cpp - Observability cost ---------------==//
//
// The metrics layer's design contract: components accumulate into plain
// struct members on their hot paths and export to the registry once at
// end-of-run, so a disabled registry (null pointer) costs nothing
// measurable and an attached one stays within noise. This bench measures
// the simulation wall-clock of the full Table 6 registry pipeline (the
// same work bench_table6_benchmarks performs) in three configurations:
// detached (the default), metrics registry attached, and metrics plus
// timeline attached. Export/serialization happens outside the timed
// window — it is a once-per-run cost proportional to the output size, not
// a per-cycle tax on the simulators.
//
// Gate: metrics registry attached costs <= 5% aggregate wall-clock. Exit
// 0 only when that is measured. When the two detached passes differ by
// more than 5% and the gate is missed, the runner's own jitter hides the
// answer: the bench prints UNRESOLVED and exits 2. A measured overhead
// above 5% on a steady runner exits 1.
//
// The timeline row is informational: span recording takes a mutex per
// speculative-thread lifetime, which is orders of magnitude coarser than
// per-cycle work but not free; it is an opt-in diagnostic, not part of
// the <= 5% contract.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "metrics/Metrics.h"
#include "metrics/Timeline.h"

using namespace jrpm;
using namespace jrpm::benchutil;

namespace {

enum class Mode { Detached, Metrics, MetricsAndTimeline };

/// One full-registry pipeline pass; returns simulation-only wall-clock.
/// Exports (registry JSON, timeline JSON) happen after the stopwatch is
/// read and feed the checksum so they cannot be optimized away.
double runRegistry(Mode M, std::uint64_t &Checksum) {
  double Ms = 0;
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    metrics::Registry Reg;
    metrics::Timeline TL;
    pipeline::PipelineConfig Cfg;
    Cfg.ExtendedPcBinning = true;
    if (M != Mode::Detached)
      Cfg.Metrics = &Reg;
    if (M == Mode::MetricsAndTimeline)
      Cfg.Timeline = &TL;
    pipeline::Jrpm J(W.Build(), Cfg);
    Stopwatch S;
    pipeline::PipelineResult R = J.runAll();
    Ms += S.ms();
    Checksum += R.PlainRun.ReturnValue + R.TlsRun.Cycles;
    if (M != Mode::Detached)
      Checksum += Reg.counters().size();
    if (M == Mode::MetricsAndTimeline)
      Checksum += TL.droppedEvents();
  }
  return Ms;
}

} // namespace

int main() {
  printBanner("Metrics overhead - instrumented vs detached pipeline",
              "the observability layer for Table 2's overhead taxonomy");

  // Warm-up pass so code and workload data are resident for every timed
  // pass alike.
  std::uint64_t Sink = 0;
  runRegistry(Mode::Detached, Sink);

  std::uint64_t C1 = 0, C2 = 0, C3 = 0, C4 = 0;
  double DetachedMs = runRegistry(Mode::Detached, C1);
  double MetricsMs = runRegistry(Mode::Metrics, C2);
  double TimelineMs = runRegistry(Mode::MetricsAndTimeline, C3);
  double DetachedAgainMs = runRegistry(Mode::Detached, C4);

  if (C1 != C4 || C1 == 0) {
    std::printf("FAIL: detached passes diverged (checksums %llu vs %llu)\n",
                (unsigned long long)C1, (unsigned long long)C4);
    return 1;
  }

  double Base = std::min(DetachedMs, DetachedAgainMs);
  auto Pct = [&](double Ms) { return (Ms / Base - 1.0) * 100.0; };
  double MetricsPct = Pct(MetricsMs);
  double JitterPct = Pct(std::max(DetachedMs, DetachedAgainMs));

  TextTable T;
  T.setHeader({"Configuration", "wall ms", "vs baseline"});
  T.addRow({"detached (pass 1)", fmt(DetachedMs, 1),
            fmt(Pct(DetachedMs), 2) + "%"});
  T.addRow({"detached (pass 2)", fmt(DetachedAgainMs, 1),
            fmt(Pct(DetachedAgainMs), 2) + "%"});
  T.addRow({"metrics registry attached", fmt(MetricsMs, 1),
            fmt(MetricsPct, 2) + "%"});
  T.addRow({"metrics + timeline attached", fmt(TimelineMs, 1),
            fmt(Pct(TimelineMs), 2) + "% (informational)"});
  T.print();

  std::printf("\nmeasurement jitter between detached passes: %.2f%%\n",
              JitterPct);

  if (MetricsPct <= 5.0) {
    std::printf("PASS: attached metrics cost %.2f%% (<= 5%% gate)\n",
                MetricsPct);
    return 0;
  }
  if (JitterPct > 5.0) {
    std::printf("UNRESOLVED: runner jitter %.2f%% exceeds the 5%% gate; "
                "attached metrics measured %.2f%%, inconclusive\n",
                JitterPct, MetricsPct);
    return 2;
  }
  std::printf("FAIL: attached metrics cost %.2f%% (> 5%% gate)\n",
              MetricsPct);
  return 1;
}
