//===- corpus/Oracles.h - Differential oracle stack over variants ----------==//
//
// Three oracles decide whether a corpus variant exposes a bug. Each one
// compares two independent computations of the same fact, so a failure
// localizes the defect to a specific layer:
//
//   1. Execution: the plain sequential run vs the annotated run and vs
//      speculative TLS of every non-rejected candidate must be
//      bit-identical, TLS checked across a 3-point HydraConfig grid
//      (restart, carried-local sync, line-granular violations).
//   2. Static conformance: the static prefilter's and the affine oracle's
//      serial rejections are scored against the dynamic TEST selection;
//      a rejected-but-selected loop (false rejection) is a hard failure —
//      the zero-false-rejection gate from bench_static_vs_test, now
//      enforced per variant.
//   3. Replay: the profiling run is recorded into an in-memory
//      trace::CachedTrace and replayed; the replayed selection digest and
//      run must equal the live ones (record-once / replay-many identity).
//
// Oracles 1 and 3 are the registry sweep's own pipeline::Jrpm steps
// (runDifferential, and runSpeculative under everyCandidate), pipeline
// verifiers included. No files are involved, so the stack is cheap enough
// for thousands of variants and safe to run concurrently.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_CORPUS_ORACLES_H
#define JRPM_CORPUS_ORACLES_H

#include "corpus/Variant.h"
#include "sim/Config.h"
#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jrpm {
namespace corpus {

/// Which oracle flagged a divergence.
enum class OracleKind : std::uint8_t {
  Execution,         ///< sequential vs speculative checksum
  StaticConformance, ///< false static rejection vs dynamic TEST
  Replay,            ///< replayed selection digest diverged
  Injected,          ///< planted fault (testing the harness itself)
};

const char *oracleKindName(OracleKind K);

struct OracleFailure {
  OracleKind Kind = OracleKind::Execution;
  std::string Detail;
};

/// \p Failures as the JSON array [{oracle, detail}] that a variant's
/// outcome and a corpus report's failure record both carry.
Json failuresToJson(const std::vector<OracleFailure> &Failures);

/// Per-variant tallies plus the verdict.
struct OracleOutcome {
  bool Passed = true;
  std::vector<OracleFailure> Failures;

  std::uint64_t SeqReturn = 0;
  std::uint64_t SeqCycles = 0;
  std::uint64_t SelectionDigest = 0; ///< live selection digest
  std::uint64_t EventsReplayed = 0;
  std::uint32_t Candidates = 0;     ///< candidate loops in the variant
  std::uint32_t DynSelected = 0;    ///< loops dynamic TEST selected
  std::uint32_t StaticRejects = 0;  ///< serial rejections (both modes)
  std::uint32_t FalseRejects = 0;   ///< rejections TEST contradicts

  Json toJson() const;
};

/// Harness configuration. InjectTripAtLeast is the planted-fault knob the
/// shrinker tests and `jrpm-corpus shrink --inject-trip` use: when > 0,
/// any variant whose TripCount holes multiply to >= the threshold is
/// reported as failing (OracleKind::Injected). The product is monotone in
/// every hole, so hole-wise minimization provably converges to a smallest
/// failing assignment.
struct OracleConfig {
  sim::HydraConfig Hw;
  std::int64_t InjectTripAtLeast = 0;
};

/// Product of the clamped TripCount hole values of \p Spec under \p T
/// (1 when the template has none) — the planted-fault trigger metric.
std::int64_t tripProduct(const Template &T, const VariantSpec &Spec);

/// Runs the full oracle stack on one variant.
OracleOutcome runOracles(const Template &T, const Variant &V,
                         const OracleConfig &Cfg);

} // namespace corpus
} // namespace jrpm

#endif // JRPM_CORPUS_ORACLES_H
