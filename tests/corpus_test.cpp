//===- tests/corpus_test.cpp - Template corpus subsystem tests -------------==//
//
// Holds the corpus engine to its contracts: extraction is deterministic
// and total over the workload registry, seeded instantiation is
// byte-identical across reruns and sweep thread counts, every variant is
// structurally clean (verifyModule + annotation lint), the oracle stack
// passes on clean variants with zero false static rejections, the
// shrinker converges on a planted divergence, and `.jrpm` repro documents
// round-trip with full {template_id, seed} provenance.
//
//===----------------------------------------------------------------------===//

#include "analysis/Candidates.h"
#include "corpus/CorpusRunner.h"
#include "ir/AnnotationVerifier.h"
#include "ir/Verifier.h"
#include "jit/Annotator.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace jrpm;
using namespace jrpm::corpus;

namespace {

/// A small deterministic template subset (every runner/oracle test uses
/// the same slice, keeping suite runtime bounded): one template per
/// distinct family, first occurrence in registry order.
std::vector<Template> familyRepresentatives() {
  std::vector<Template> All = extractRegistryTemplates();
  std::vector<Template> Out;
  std::set<std::string> Seen;
  for (Template &T : All)
    if (Seen.insert(T.Family).second)
      Out.push_back(std::move(T));
  return Out;
}

} // namespace

TEST(CorpusTemplates, ExtractionIsDeterministic) {
  std::vector<Template> A = extractRegistryTemplates();
  std::vector<Template> B = extractRegistryTemplates();
  ASSERT_EQ(A.size(), B.size());
  EXPECT_EQ(templatesToJson(A).dump(), templatesToJson(B).dump());
}

TEST(CorpusTemplates, ExtractionIsTotalOverRegistry) {
  std::vector<Template> All = extractRegistryTemplates();
  const auto &Registry = workloads::allWorkloads();
  ASSERT_GE(Registry.size(), 26u);
  // Every workload contributes at least one template.
  for (const workloads::Workload &W : Registry) {
    bool Found = false;
    for (const Template &T : All)
      Found |= T.Id.rfind(W.Name + "/", 0) == 0;
    EXPECT_TRUE(Found) << "no template extracted from " << W.Name;
  }
  // Every template is well formed: a known family, nonempty sane holes.
  const std::vector<std::string> &Families = templateFamilies();
  for (const Template &T : All) {
    EXPECT_NE(std::find(Families.begin(), Families.end(), T.Family),
              Families.end())
        << T.Id;
    ASSERT_FALSE(T.Holes.empty()) << T.Id;
    for (const Hole &H : T.Holes) {
      EXPECT_LE(H.Min, H.Max) << T.Id << "/" << H.Name;
      EXPECT_LE(H.Min, H.Observed) << T.Id << "/" << H.Name;
      EXPECT_LE(H.Observed, H.Max) << T.Id << "/" << H.Name;
    }
  }
  // The registry exercises more than one family.
  std::set<std::string> SeenFamilies;
  for (const Template &T : All)
    SeenFamilies.insert(T.Family);
  EXPECT_GE(SeenFamilies.size(), 3u);
}

TEST(CorpusTemplates, HoleKindNamesRoundTrip) {
  for (HoleKind K : AllHoleKinds) {
    HoleKind Back = HoleKind::TripCount;
    ASSERT_TRUE(holeKindFromName(holeKindName(K), Back)) << holeKindName(K);
    EXPECT_EQ(Back, K);
  }
  HoleKind Out;
  EXPECT_FALSE(holeKindFromName("no-such-kind", Out));
}

TEST(CorpusVariants, SameSeedIsByteIdentical) {
  for (const Template &T : familyRepresentatives()) {
    Variant A = instantiate(T, 7);
    Variant B = instantiate(T, 7);
    EXPECT_EQ(A.Source, B.Source) << T.Id;
    EXPECT_EQ(A.Digest, B.Digest) << T.Id;
    EXPECT_EQ(A.Spec, B.Spec) << T.Id;
    // Provenance is embedded in the spec itself.
    EXPECT_EQ(A.Spec.TemplateId, T.Id);
    EXPECT_EQ(A.Spec.Seed, 7u);
  }
}

TEST(CorpusVariants, EveryVariantVerifiesCleanly) {
  for (const Template &T : familyRepresentatives()) {
    for (std::uint64_t Seed : {1, 2, 3}) {
      Variant V = instantiate(T, Seed);
      std::vector<std::string> Structural = ir::verifyModule(V.Module);
      ASSERT_TRUE(Structural.empty())
          << T.Id << " seed " << Seed << ": " << Structural.front();
      analysis::ModuleAnalysis MA(V.Module);
      std::vector<ir::LoopAnnotationInfo> Infos;
      for (const analysis::CandidateStl &C : MA.candidates())
        Infos.push_back({C.AnnotatedLocals});
      jit::AnnotatedModule AM = jit::annotateModule(
          V.Module, MA, jit::AnnotationLevel::Optimized);
      std::vector<std::string> Lint = ir::verifyAnnotations(AM.Module, Infos);
      EXPECT_TRUE(Lint.empty())
          << T.Id << " seed " << Seed << ": "
          << (Lint.empty() ? "" : Lint.front());
    }
  }
}

TEST(CorpusOracles, CleanVariantsPassAllOracles) {
  // The execution oracle covers the restart, sync and line-grain TLS runs
  // of every variant against its sequential run.
  OracleConfig Cfg;
  for (const Template &T : familyRepresentatives()) {
    for (std::uint64_t Seed : {3, 11, 23}) {
      Variant V = instantiate(T, Seed);
      OracleOutcome O = runOracles(T, V, Cfg);
      EXPECT_TRUE(O.Passed)
          << T.Id << " seed " << Seed << ": "
          << (O.Failures.empty() ? "" : O.Failures.front().Detail);
      EXPECT_EQ(O.FalseRejects, 0u) << T.Id << " seed " << Seed;
      EXPECT_GT(O.EventsReplayed, 0u) << T.Id << " seed " << Seed;
    }
  }
}

TEST(CorpusShrink, ConvergesOnPlantedDivergence) {
  // Plant a fault that fires when the trip-count holes multiply to >= 12,
  // on a template with two such holes (loop-nest). The trigger is monotone
  // in every hole, so the minimizer must drive all non-trip holes to their
  // minima while keeping the product at or above the threshold.
  std::vector<Template> All = extractRegistryTemplates();
  const Template *Nest = nullptr;
  for (const Template &T : All)
    if (T.Family == "loop-nest") {
      Nest = &T;
      break;
    }
  ASSERT_NE(Nest, nullptr) << "registry lost its loop-nest shapes";

  OracleConfig Inject;
  Inject.InjectTripAtLeast = 12;

  VariantSpec Big = fillHoles(*Nest, 5);
  for (HoleValue &H : Big.Holes)
    if (const Hole *TH = Nest->findHole(H.Name))
      H.Value = TH->Max; // worst case: everything maxed
  ASSERT_GE(tripProduct(*Nest, Big), Inject.InjectTripAtLeast);
  OracleOutcome BigOutcome = runOracles(*Nest, instantiate(*Nest, Big),
                                        Inject);
  ASSERT_FALSE(BigOutcome.Passed);

  ShrinkResult R = shrinkVariant(*Nest, Big, Inject);
  EXPECT_TRUE(R.StillFailing);
  EXPECT_GT(R.Steps, 0u);
  EXPECT_LT(R.Evaluations, MaxShrinkEvaluations);
  // Strictly smaller, still failing, and minimal on every non-trigger hole.
  EXPECT_LT(R.Minimized.weight(*Nest), Big.weight(*Nest));
  EXPECT_GE(tripProduct(*Nest, R.Minimized), Inject.InjectTripAtLeast);
  for (const Hole &H : Nest->Holes) {
    if (H.Kind != HoleKind::TripCount) {
      EXPECT_EQ(R.Minimized.valueOf(H.Name, -1), H.Min)
          << H.Name << " not minimized";
    }
  }
  // The shrunk repro reproduces: same spec, same module, still failing.
  Variant Min = instantiate(*Nest, R.Minimized);
  EXPECT_FALSE(runOracles(*Nest, Min, Inject).Passed);

  // Without the planted fault the same variant passes and the shrinker
  // reports nothing to do.
  OracleConfig Clean;
  ShrinkResult None = shrinkVariant(*Nest, Big, Clean);
  EXPECT_FALSE(None.StillFailing);
  EXPECT_EQ(None.Steps, 0u);
}

TEST(CorpusRepro, DocumentRoundTripsWithProvenance) {
  std::vector<Template> Reps = familyRepresentatives();
  ASSERT_FALSE(Reps.empty());
  const Template &T = Reps.front();
  Variant V = instantiate(T, 42);
  std::string Doc = reproDocument(V);

  VariantSpec Back;
  std::uint64_t Digest = 0;
  std::string Err;
  ASSERT_TRUE(parseReproDocument(Doc, Back, &Digest, &Err)) << Err;
  EXPECT_EQ(Back, V.Spec);
  EXPECT_EQ(Digest, V.Digest);
  // The document alone rebuilds the exact module.
  Variant Again = instantiate(T, Back);
  EXPECT_EQ(Again.Source, V.Source);
  EXPECT_EQ(Again.Digest, Digest);

  VariantSpec Bad;
  EXPECT_FALSE(parseReproDocument("{}", Bad, nullptr, &Err));
  EXPECT_FALSE(parseReproDocument("not json", Bad, nullptr, &Err));
}

TEST(CorpusRepro, RejectsNonIntegralValuesAndBadDigests) {
  std::vector<Template> Reps = familyRepresentatives();
  ASSERT_FALSE(Reps.empty());
  Json Good;
  ASSERT_TRUE(Json::parse(reproDocument(instantiate(Reps.front(), 1)), Good));
  auto With = [&](const char *Key, Json Value) {
    Json Doc = Good;
    Doc[Key] = std::move(Value);
    return Doc.dump();
  };
  auto OneHole = [](Json Value) {
    Json H = Json::object();
    H["name"] = "n";
    H["value"] = std::move(Value);
    Json A = Json::array();
    A.push(std::move(H));
    return A;
  };
  const char *Hole = "hole value is not a 64-bit integer";
  const char *Seed = "seed is not an integer in [0, 2^64)";
  const char *Digest = "digest is not 16 hex digits";
  const std::pair<std::string, const char *> Cases[] = {
      {With("holes", OneHole(Json(1e30))), Hole},
      {With("holes", OneHole(Json(2.5))), Hole},
      {With("seed", Json(2.5e30)), Seed},
      {With("seed", Json(2.5)), Seed},
      {With("seed", Json(-3)), Seed},
      {With("digest", Json("0123abcd")), Digest},
      {With("digest", Json("0123456789abcdeg")), Digest},
      {With("digest", Json(12345u)), Digest},
  };
  for (const auto &[Doc, Want] : Cases) {
    VariantSpec Spec;
    std::string Err;
    EXPECT_FALSE(parseReproDocument(Doc, Spec, nullptr, &Err)) << Doc;
    EXPECT_EQ(Err, Want) << Doc;
  }
  // An integral double in range is an integer ("1e+17" parses as a double).
  VariantSpec Spec;
  std::string Err;
  EXPECT_TRUE(
      parseReproDocument(With("seed", Json(1e17)), Spec, nullptr, &Err))
      << Err;
  EXPECT_EQ(Spec.Seed, 100000000000000000u);
}

TEST(CorpusRepro, ReportFailuresReproduceFromReportAlone) {
  // A planted fault makes some variants fail; every failure record in the
  // report must carry enough provenance to rebuild the exact failing
  // variant: {template_id, seed} alone reproduces the digest.
  std::vector<Template> Reps = familyRepresentatives();
  CorpusOptions Opts;
  Opts.VariantsPerTemplate = 4;
  Opts.Oracle.InjectTripAtLeast = 16;
  CorpusReport Report = runCorpus(Reps, Opts);
  ASSERT_GT(Report.Failed, 0u) << "planted fault never fired";
  ASSERT_EQ(Report.Failures.size(), Report.Failed);
  for (const FailureRecord &F : Report.Failures) {
    const Template *T = findTemplate(Reps, F.Spec.TemplateId);
    ASSERT_NE(T, nullptr) << F.Spec.TemplateId;
    Variant Rebuilt = instantiate(*T, F.Spec.Seed);
    EXPECT_EQ(Rebuilt.Digest, F.Digest) << F.Spec.TemplateId;
    EXPECT_EQ(Rebuilt.Spec, F.Spec);
    if (F.HasShrunk) {
      EXPECT_LE(F.ShrunkWeight, F.Spec.weight(*T));
      Variant Min = instantiate(*T, F.ShrunkSpec);
      EXPECT_EQ(Min.Digest, F.ShrunkDigest);
    }
  }
}

TEST(ConcurrentCorpus, ReportByteIdenticalAcrossThreadCounts) {
  // The sweep-integration contract: plan-order slots mean the report JSON
  // never depends on scheduling. 1 thread vs 4 threads vs a rerun must
  // serialize byte-identically (this is also the suite ci_tsan.sh puts
  // under ThreadSanitizer).
  std::vector<Template> Reps = familyRepresentatives();
  CorpusOptions One;
  One.VariantsPerTemplate = 3;
  One.Threads = 1;
  CorpusOptions Four = One;
  Four.Threads = 4;

  std::string A = runCorpus(Reps, One).toJson().dump();
  std::string B = runCorpus(Reps, Four).toJson().dump();
  std::string C = runCorpus(Reps, Four).toJson().dump();
  EXPECT_EQ(A, B);
  EXPECT_EQ(B, C);

  metrics::Registry Metrics;
  CorpusOptions WithMetrics = One;
  WithMetrics.Metrics = &Metrics;
  CorpusReport R = runCorpus(Reps, WithMetrics);
  EXPECT_EQ(R.toJson().dump(), A);
  EXPECT_EQ(Metrics.counter("corpus.variants").value(),
            R.TotalVariants);
  EXPECT_EQ(Metrics.counter("corpus.failures").value(), R.Failed);
}
