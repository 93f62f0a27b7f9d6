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

/// Wall-clock stopwatch.
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

/// Re-runs \p Jobs through sweep::parallelFor at hardware width. Jobs must
/// be idempotent and write their results into preassigned slots, so a
/// pooled re-execution reproduces the serial pass byte-for-byte regardless
/// of scheduling order.
inline void runOnPool(const std::vector<std::function<void()>> &Jobs) {
  sweep::parallelFor(Jobs.size(), 0,
                     [&Jobs](std::size_t I, unsigned) { Jobs[I](); });
}

/// Prints whether the pooled pass reproduced the serial one.
inline void printPoolVerdict(const char *What, std::size_t Jobs,
                             bool SlotsIdentical) {
  std::printf("\nparallelFor, %zu %s jobs: pooled results %s\n", Jobs, What,
              SlotsIdentical ? "identical to serial" : "DIFFER FROM SERIAL");
}

} // namespace benchutil
} // namespace jrpm

#endif // JRPM_BENCH_BENCHUTIL_H
