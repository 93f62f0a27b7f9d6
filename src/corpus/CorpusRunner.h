//===- corpus/CorpusRunner.h - Deterministic corpus sweeps -----------------==//
//
// Runs the differential oracle stack over (template x seed) variant grids
// through sweep::parallelFor. Determinism follows the sweep engine's
// discipline: the variant plan is enumerated up front in template-major
// order, every job writes only its preassigned result slot, and the report
// is aggregated by walking the slots in plan order — so the report JSON
// (sorted keys, fixed float format) is byte-identical whether the corpus
// ran on 1 thread or N, and across reruns. The corpus digest (FNV-1a over
// every variant's program digest in plan order) is the one-line currency
// the golden gate and the CLI compare.
//
// Failures are auto-shrunk in place (Shrink.h) and reported with full
// {template_id, seed} provenance plus the minimized hole assignment, so a
// red report reproduces from the report alone.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_CORPUS_CORPUSRUNNER_H
#define JRPM_CORPUS_CORPUSRUNNER_H

#include "corpus/Shrink.h"
#include "metrics/Metrics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jrpm {
namespace corpus {

struct CorpusOptions {
  /// Variant seeds are BaseSeed .. BaseSeed + VariantsPerTemplate - 1,
  /// applied to every template (fillHoles keys the stream on the template
  /// id, so equal seeds still draw independently per template).
  std::uint64_t BaseSeed = 1;
  std::uint32_t VariantsPerTemplate = 25;
  /// parallelFor width; 0 selects the hardware width.
  std::uint32_t Threads = 1;
  OracleConfig Oracle;
  /// Auto-shrink failing variants (off for raw triage speed).
  bool ShrinkFailures = true;
  /// Optional corpus.* counters destination.
  metrics::Registry *Metrics = nullptr;
};

/// Plan-order aggregate for one template.
struct TemplateSummary {
  std::string Id;
  std::string Family;
  std::uint32_t Variants = 0;
  std::uint32_t Failed = 0;
  /// FNV-1a over the template's variant digests, in seed order.
  std::uint64_t Digest = 0;
  std::uint64_t Candidates = 0;
  std::uint64_t DynSelected = 0;
  std::uint64_t StaticRejects = 0;
  std::uint64_t FalseRejects = 0;
  std::uint64_t EventsReplayed = 0;
};

/// One failing variant, with provenance and its shrunk form.
struct FailureRecord {
  VariantSpec Spec;
  std::uint64_t Digest = 0;
  std::vector<OracleFailure> Failures;
  bool HasShrunk = false;
  VariantSpec ShrunkSpec;
  std::uint64_t ShrunkDigest = 0;
  std::int64_t ShrunkWeight = 0;
  std::uint32_t ShrinkSteps = 0;
  std::uint32_t ShrinkEvaluations = 0;
};

struct CorpusReport {
  std::uint64_t BaseSeed = 0;
  std::uint32_t VariantsPerTemplate = 0;
  std::uint64_t TotalVariants = 0;
  std::uint64_t Passed = 0;
  std::uint64_t Failed = 0;
  std::uint64_t FalseRejects = 0;
  /// FNV-1a over every variant digest in plan order — the whole-corpus
  /// determinism currency.
  std::uint64_t CorpusDigest = 0;
  std::vector<TemplateSummary> Templates; ///< in template plan order
  std::vector<FailureRecord> Failures;    ///< in plan order

  /// Deterministic report document. Thread count is deliberately not part
  /// of it: 1-thread and N-thread runs must serialize byte-identically.
  Json toJson() const;
};

/// Runs the corpus over \p Templates. Deterministic for fixed
/// (Templates, Opts.BaseSeed, Opts.VariantsPerTemplate, Opts.Oracle)
/// regardless of Opts.Threads.
CorpusReport runCorpus(const std::vector<Template> &Templates,
                       const CorpusOptions &Opts);

} // namespace corpus
} // namespace jrpm

#endif // JRPM_CORPUS_CORPUSRUNNER_H
