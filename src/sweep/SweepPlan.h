//===- sweep/SweepPlan.h - The sweep job model -----------------------------==//
//
// A SweepPlan is the cartesian product of workloads x annotation levels x
// named engine-configuration points. expand() flattens it into a vector of
// fully resolved, independent SweepJobs in a deterministic order (workload
// major, level middle, config minor) with exact duplicates removed, so a
// plan expands to the same job list on every machine and thread count —
// the anchor for the byte-identical-JSON determinism contract.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SWEEP_SWEEPPLAN_H
#define JRPM_SWEEP_SWEEPPLAN_H

#include "jrpm/Pipeline.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jrpm {
namespace sweep {

/// One named point in configuration space: an ordered list of knob
/// assignments applied on top of the default PipelineConfig. The canonical
/// name ("banks=2,history=48", knobs sorted by key; "default" when empty)
/// doubles as the dedup and JSON identity.
struct ConfigPoint {
  std::vector<std::pair<std::string, std::uint32_t>> Knobs;

  std::string name() const;
  /// Applies every knob to \p Cfg. Returns false (and sets *Err) on an
  /// unknown knob name or when the result fails
  /// sim::hasValidOverflowTables.
  bool apply(pipeline::PipelineConfig &Cfg, std::string *Err = nullptr) const;
};

/// Parses "key=value[,key=value...]" (or "default" / "" for the empty
/// point). Returns false and sets *Err on malformed input: a missing key or
/// value, a value that is not a decimal number up to UINT32_MAX, or a key
/// given twice. Unknown keys are caught later by apply() so plans can be
/// listed before being validated.
bool parseConfigPoint(const std::string &Spec, ConfigPoint &Out,
                      std::string *Err);

/// The knob names ConfigPoint::apply understands, for usage text.
const std::vector<std::string> &knownKnobs();

/// What a job executes.
enum class JobMode {
  Pipeline,    ///< all five Jrpm steps, differential-checked in memory
  Conformance, ///< the same through a .jtrace file; reports the replay
};

/// One fully resolved unit of work, independent of every other job.
struct SweepJob {
  std::uint32_t Index = 0; ///< position in plan order; result slot id
  std::string Workload;
  jit::AnnotationLevel Level = jit::AnnotationLevel::Optimized;
  std::string ConfigName;
  pipeline::PipelineConfig Cfg; ///< defaults + level + config point applied
  JobMode Mode = JobMode::Pipeline;
  /// Soft per-job wall-clock budget in milliseconds (0 = none). The
  /// simulator has no preemption point, so an overrunning job completes
  /// and is then *reported* as timed out rather than killed mid-run.
  std::uint32_t TimeoutMs = 0;
};

struct SweepPlan {
  /// Workload names; empty selects the full Table 6 registry.
  std::vector<std::string> Workloads;
  /// Annotation levels; empty selects {Optimized}.
  std::vector<jit::AnnotationLevel> Levels;
  /// Configuration points; empty selects {default}.
  std::vector<ConfigPoint> Configs;
  JobMode Mode = JobMode::Pipeline;
  std::uint32_t TimeoutMs = 0;
  /// Stamped into the JSON report; also the base seed for generated-program
  /// plans (the concurrent fuzz harness).
  std::uint64_t Seed = 0;

  /// Cartesian expansion in deterministic order with exact duplicates
  /// (same workload, level, and canonical config name) removed. Returns
  /// false and sets *Err when a config point carries an unknown knob.
  bool expand(std::vector<SweepJob> &Out, std::string *Err) const;
};

const char *annotationLevelName(jit::AnnotationLevel L);

} // namespace sweep
} // namespace jrpm

#endif // JRPM_SWEEP_SWEEPPLAN_H
