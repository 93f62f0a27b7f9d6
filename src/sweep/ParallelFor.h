//===- sweep/ParallelFor.h - Flat fan-out over a known job list -----------==//
//
// Every parallel caller in the project (sweeps, the corpus, jrpm-lint, the
// pooled benches, the concurrent fuzz test) submits a flat list of
// independent jobs that it knows up front. parallelFor runs such a list:
// it starts min(width, N) threads, hands out indices through one atomic
// counter, and joins before it returns. At width 1 every job runs inline
// on the calling thread.
//
// There are no fairness or ordering promises: determinism must come from
// jobs writing into preassigned result slots, never from completion order.
// Fn must not throw; an exception escaping a job terminates the process.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SWEEP_PARALLELFOR_H
#define JRPM_SWEEP_PARALLELFOR_H

#include <cstddef>
#include <cstdint>
#include <functional>

namespace jrpm {
namespace sweep {

/// Largest width the command-line tools accept for --threads / --jobs.
constexpr unsigned MaxThreads = 1024;

/// Largest corpus plan (templates x variants per template) jrpm-corpus run
/// accepts. The runner holds a result slot per variant from the start, so
/// this bounds its memory; the full registry plan is 87 x 25 = 2175.
constexpr std::uint64_t MaxVariants = std::uint64_t(1) << 18;

/// The number of threads parallelFor(N, Threads, ...) starts:
/// min(Threads, N), where Threads == 0 selects the hardware width.
unsigned parallelWidth(std::size_t N, unsigned Threads);

/// Calls Fn(Index, Worker) once for every Index in [0, N), with Worker in
/// [0, parallelWidth(N, Threads)) naming the thread that runs the job.
void parallelFor(std::size_t N, unsigned Threads,
                 const std::function<void(std::size_t, unsigned)> &Fn);

} // namespace sweep
} // namespace jrpm

#endif // JRPM_SWEEP_PARALLELFOR_H
