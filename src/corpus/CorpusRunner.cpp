//===- corpus/CorpusRunner.cpp ---------------------------------------------==//

#include "corpus/CorpusRunner.h"

#include "support/Fnv1a.h"
#include "support/Format.h"
#include "sweep/ParallelFor.h"

using namespace jrpm;
using namespace jrpm::corpus;

namespace {

/// One preassigned result slot; written by exactly one job.
struct VariantResult {
  VariantSpec Spec;
  std::uint64_t Digest = 0;
  OracleOutcome Outcome;
  bool HasShrunk = false;
  ShrinkResult Shrunk;
};

} // namespace

Json CorpusReport::toJson() const {
  Json J = Json::object();
  J["base_seed"] = BaseSeed;
  J["variants_per_template"] = VariantsPerTemplate;
  J["total_variants"] = TotalVariants;
  J["passed"] = Passed;
  J["failed"] = Failed;
  J["false_rejects"] = FalseRejects;
  J["corpus_digest"] =
      formatString("%016llx", (unsigned long long)CorpusDigest);

  Json TArr = Json::array();
  for (const TemplateSummary &T : Templates) {
    Json TJ = Json::object();
    TJ["id"] = T.Id;
    TJ["family"] = T.Family;
    TJ["variants"] = T.Variants;
    TJ["failed"] = T.Failed;
    TJ["digest"] = formatString("%016llx", (unsigned long long)T.Digest);
    TJ["candidates"] = T.Candidates;
    TJ["dyn_selected"] = T.DynSelected;
    TJ["static_rejects"] = T.StaticRejects;
    TJ["false_rejects"] = T.FalseRejects;
    TJ["events_replayed"] = T.EventsReplayed;
    TArr.push(std::move(TJ));
  }
  J["templates"] = std::move(TArr);

  Json FArr = Json::array();
  for (const FailureRecord &F : Failures) {
    Json FJ = F.Spec.toJson();
    FJ["digest"] = formatString("%016llx", (unsigned long long)F.Digest);
    FJ["failures"] = failuresToJson(F.Failures);
    if (F.HasShrunk) {
      Json SJ = F.ShrunkSpec.toJson();
      SJ["digest"] =
          formatString("%016llx", (unsigned long long)F.ShrunkDigest);
      SJ["weight"] = F.ShrunkWeight;
      SJ["steps"] = F.ShrinkSteps;
      SJ["evaluations"] = F.ShrinkEvaluations;
      FJ["shrunk"] = std::move(SJ);
    }
    FArr.push(std::move(FJ));
  }
  J["failures"] = std::move(FArr);
  return J;
}

CorpusReport corpus::runCorpus(const std::vector<Template> &Templates,
                               const CorpusOptions &Opts) {
  // The plan: template-major, seed-minor. Slot i*VPT+j belongs to
  // (Templates[i], BaseSeed+j), whatever thread runs it.
  const std::uint32_t Vpt = Opts.VariantsPerTemplate;
  std::vector<VariantResult> Slots(Templates.size() * Vpt);

  sweep::parallelFor(Slots.size(), Opts.Threads, [&](std::size_t I, unsigned) {
    const Template &T = Templates[I / Vpt];
    const std::uint32_t SIdx = static_cast<std::uint32_t>(I % Vpt);
    VariantResult &R = Slots[I];
    Variant V = instantiate(T, Opts.BaseSeed + SIdx);
    R.Spec = V.Spec;
    R.Digest = V.Digest;
    R.Outcome = runOracles(T, V, Opts.Oracle);
    if (!R.Outcome.Passed && Opts.ShrinkFailures) {
      R.Shrunk = shrinkVariant(T, V.Spec, Opts.Oracle);
      R.HasShrunk = R.Shrunk.StillFailing;
    }
  });

  // Aggregation walks the slots in plan order — completion order never
  // reaches the report.
  CorpusReport Report;
  Report.BaseSeed = Opts.BaseSeed;
  Report.VariantsPerTemplate = Vpt;
  Fnv1a CorpusH;
  std::uint32_t ShrinkSteps = 0, ShrinkEvals = 0;
  for (std::size_t TIdx = 0; TIdx < Templates.size(); ++TIdx) {
    const Template &T = Templates[TIdx];
    TemplateSummary S;
    S.Id = T.Id;
    S.Family = T.Family;
    Fnv1a TH;
    for (std::uint32_t SIdx = 0; SIdx < Vpt; ++SIdx) {
      const VariantResult &R = Slots[TIdx * Vpt + SIdx];
      ++S.Variants;
      ++Report.TotalVariants;
      TH.mix(R.Digest);
      CorpusH.mix(R.Digest);
      S.Candidates += R.Outcome.Candidates;
      S.DynSelected += R.Outcome.DynSelected;
      S.StaticRejects += R.Outcome.StaticRejects;
      S.FalseRejects += R.Outcome.FalseRejects;
      S.EventsReplayed += R.Outcome.EventsReplayed;
      Report.FalseRejects += R.Outcome.FalseRejects;
      if (R.Outcome.Passed) {
        ++Report.Passed;
        continue;
      }
      ++S.Failed;
      ++Report.Failed;
      FailureRecord F;
      F.Spec = R.Spec;
      F.Digest = R.Digest;
      F.Failures = R.Outcome.Failures;
      if (R.HasShrunk) {
        F.HasShrunk = true;
        F.ShrunkSpec = R.Shrunk.Minimized;
        F.ShrunkDigest = instantiate(T, R.Shrunk.Minimized).Digest;
        F.ShrunkWeight = R.Shrunk.Minimized.weight(T);
        F.ShrinkSteps = R.Shrunk.Steps;
        F.ShrinkEvaluations = R.Shrunk.Evaluations;
        ShrinkSteps += R.Shrunk.Steps;
        ShrinkEvals += R.Shrunk.Evaluations;
      }
      Report.Failures.push_back(std::move(F));
    }
    S.Digest = TH.value();
    Report.Templates.push_back(std::move(S));
  }
  Report.CorpusDigest = CorpusH.value();

  if (Opts.Metrics) {
    metrics::Registry &M = *Opts.Metrics;
    M.counter("corpus.templates").inc(Templates.size());
    M.counter("corpus.variants").inc(Report.TotalVariants);
    M.counter("corpus.failures").inc(Report.Failed);
    M.counter("corpus.false_rejects").inc(Report.FalseRejects);
    M.counter("corpus.shrink_steps").inc(ShrinkSteps);
    M.counter("corpus.shrink_evaluations").inc(ShrinkEvals);
    std::uint64_t Events = 0;
    for (const TemplateSummary &S : Report.Templates)
      Events += S.EventsReplayed;
    M.counter("corpus.events_replayed").inc(Events);
  }
  return Report;
}
