//===- bench/BenchUtil.h - Shared helpers for the bench harnesses ----------==//

#ifndef JRPM_BENCH_BENCHUTIL_H
#define JRPM_BENCH_BENCHUTIL_H

#include "jrpm/Pipeline.h"
#include "support/Format.h"
#include "support/Table.h"
#include "sweep/ParallelFor.h"
#include "workloads/Workload.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <unistd.h>
#include <vector>

namespace jrpm {
namespace benchutil {

inline void printBanner(const char *Title, const char *PaperRef) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", Title);
  std::printf("(reproduces %s of Chen & Olukotun, \"TEST: A Tracer for\n"
              " Extracting Speculative Threads\", CGO 2003)\n",
              PaperRef);
  std::printf("================================================================\n\n");
}

/// Runs the full pipeline for one workload with the given configuration.
inline pipeline::PipelineResult
runPipeline(const workloads::Workload &W,
            const pipeline::PipelineConfig &Cfg = {}) {
  pipeline::Jrpm J(W.Build(), Cfg);
  return J.runAll();
}

inline std::string fmt(double V, int Decimals = 2) {
  return formatString("%.*f", Decimals, V);
}

/// Wall-clock stopwatch for the record-once/replay-many comparisons.
class Stopwatch {
public:
  double ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - T0)
        .count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point T0 = Clock::now();
};

/// Scratch path for a bench-recorded trace. Includes the pid so concurrent
/// bench processes (and pooled jobs inside one process, via distinct tags)
/// never collide on a fixed /tmp name.
inline std::string benchTracePath(const std::string &Tag) {
  return "/tmp/jrpm-bench-" + std::to_string(getpid()) + "-" + Tag +
         ".jtrace";
}

/// Wall-clock of a job list executed by sweep::parallelFor.
struct PoolRun {
  double Ms = 0;
  unsigned Threads = 1;
};

/// Re-runs \p Jobs through sweep::parallelFor at hardware width. Jobs must
/// be idempotent and write their results into preassigned slots, so a
/// pooled re-execution reproduces the serial pass byte-for-byte regardless
/// of scheduling order.
inline PoolRun runOnPool(const std::vector<std::function<void()>> &Jobs) {
  PoolRun P;
  P.Threads = sweep::parallelWidth(Jobs.size(), 0);
  Stopwatch S;
  sweep::parallelFor(Jobs.size(), 0,
                     [&Jobs](std::size_t I, unsigned) { Jobs[I](); });
  P.Ms = S.ms();
  return P;
}

/// Prints the measured serial-vs-pooled wall-clock reduction for the same
/// job list (the acceptance metric for the sweep engine: >= 3x on a 4-core
/// runner; on fewer cores the reduction degrades proportionally).
inline void printPoolReduction(const char *What, std::size_t Jobs,
                               double SerialMs, const PoolRun &P,
                               bool SlotsIdentical) {
  std::printf("\nparallelFor, %zu %s jobs:\n"
              "  serial execution                             %8.1f ms\n"
              "  pooled execution (%u worker threads)         %8.1f ms\n"
              "  wall-clock reduction: %.2fx; pooled results %s\n",
              Jobs, What, SerialMs, P.Threads, P.Ms, SerialMs / P.Ms,
              SlotsIdentical ? "identical to serial"
                             : "DIFFER FROM SERIAL");
}

/// Prints the measured cost of a configuration sweep under the old
/// methodology (one live pipeline execution per configuration) against the
/// trace-driven one (one recorded capture, N replayed analyses), both
/// measured by this very bench run.
inline void printSweepRatio(const char *Baseline, int Configs, double LiveMs,
                            double RecordMs, double AnalyzeMs) {
  double NewMs = RecordMs + AnalyzeMs;
  std::printf("\nrecord-once/replay-many, %d-configuration sweep:\n"
              "  %-44s %8.1f ms\n"
              "  1 record + %d trace-driven analyses          %8.1f ms "
              "(record %.1f, analyze %.1f)\n"
              "  wall-clock reduction: %.2fx\n",
              Configs, Baseline, LiveMs, Configs, NewMs, RecordMs, AnalyzeMs,
              LiveMs / NewMs);
}

} // namespace benchutil
} // namespace jrpm

#endif // JRPM_BENCH_BENCHUTIL_H
