//===- sweep/Conformance.h - Whole-registry differential conformance -------==//
//
// The differential harness the sweep engine exists to feed: every Table 6
// workload is executed under sequential interpretation, an annotated
// profiling run captured to a .jtrace file and re-analyzed from it, and
// native speculative TLS (Jrpm::runDifferential with RecordTracePath set,
// then runSpeculative), across a grid of engine configurations and both
// annotation levels. Every leg must produce a bit-identical checksum, and
// the trace-replayed selection must reproduce the live selection digest
// exactly. This replaces the old hand-picked spot checks (a few workloads
// in pipeline_test / bench_ablation_granularity) with the full matrix:
// 26 workloads x 2 levels x >= 3 configs in one pooled sweep.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SWEEP_CONFORMANCE_H
#define JRPM_SWEEP_CONFORMANCE_H

#include "sweep/SweepRunner.h"

namespace jrpm {
namespace sweep {

/// The default conformance grid: the paper's reference hardware plus a
/// bank-starved point with dynamic disabling and a stressed point
/// (shallow history, line-granular violation detection, synchronized
/// carried locals). Each point reconfigures capture and replay together,
/// so digests must still match within a point.
std::vector<ConfigPoint> defaultConformanceGrid();

/// Builds the full-matrix conformance plan: every registry workload (or
/// \p Workloads when non-empty) x both annotation levels x \p Grid.
SweepPlan conformancePlan(std::vector<ConfigPoint> Grid,
                          std::vector<std::string> Workloads = {});

} // namespace sweep
} // namespace jrpm

#endif // JRPM_SWEEP_CONFORMANCE_H
