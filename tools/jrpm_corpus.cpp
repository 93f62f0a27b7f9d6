//===- tools/jrpm_corpus.cpp - Template corpus driver ----------------------==//
//
// Usage:
//   jrpm-corpus extract [--workloads a,b,c] [-o file.json]
//       Extract the loop/dependence templates of the registry (or a
//       subset) and print/write the deterministic template manifest.
//   jrpm-corpus generate --template <id> [--seed n] [--count k] [-o f.jrpm]
//       Instantiate seeded variants of one template. With --count 1 (the
//       default) prints or writes the variant's `.jrpm` repro document;
//       with --count > 1 prints a seed/digest/weight table.
//   jrpm-corpus run [options]
//       Sweep the differential oracle stack over every (template x seed)
//       variant in parallel. The report JSON is byte-
//       identical for any --threads and across reruns. Exits 1 when any
//       variant fails (failures are auto-shrunk into the report).
//   jrpm-corpus shrink --repro file.jrpm [--inject-trip n] [-o min.jrpm]
//       Re-run the oracles on a repro document and minimize the failure
//       hole-wise. Exits 1 when the variant passes (nothing to shrink).
//   jrpm-corpus stats
//       Per-family template statistics over the registry.
//
// Options (run):
//   --workloads a,b,c        extract from a workload subset
//   --variants-per-template n  seeds per template (default 25)
//   --seed n                 base seed (default 1)
//   --threads n              thread count (default 1; 0 = hardware)
//   --quick                  cap the corpus at <= 200 variants (tier-1)
//   --inject-trip n          plant a fault: variants whose trip-count
//                            holes multiply to >= n are reported failing
//   --no-shrink              skip auto-shrinking failures
//   -o file.json             write the report (atomic rename)
//   --metrics file.json      write the corpus.* instrumentation registry
//   --quiet                  summary line only, no per-family table
//
//===----------------------------------------------------------------------===//

#include "corpus/CorpusRunner.h"
#include "support/AtomicFile.h"
#include "support/Format.h"
#include "support/Table.h"
#include "sweep/ParallelFor.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace jrpm;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: jrpm-corpus extract|generate|run|shrink|stats [options]\n"
      "  extract  [--workloads a,b,c] [-o file.json]\n"
      "  generate --template <id> [--seed n] [--count k] [-o file.jrpm]\n"
      "  run      [--workloads a,b,c] [--variants-per-template n]\n"
      "           [--seed n] [--threads n] [--quick] [--inject-trip n]\n"
      "           [--no-shrink] [-o file.json] [--metrics file.json]\n"
      "           [--quiet]\n"
      "  shrink   --repro file.jrpm [--inject-trip n] [-o min.jrpm]\n"
      "  stats\n");
  return 2;
}

struct CliOptions {
  std::vector<std::string> Workloads;
  std::string TemplateId;
  std::string ReproPath;
  std::string OutPath;
  std::string MetricsPath;
  std::uint64_t Seed = 1;
  std::uint32_t Count = 1;
  std::uint32_t VariantsPerTemplate = 25;
  std::uint32_t Threads = 1;
  std::int64_t InjectTrip = 0;
  bool Quick = false;
  bool NoShrink = false;
  bool Quiet = false;
  bool Ok = true;
};

CliOptions parseCli(int Argc, char **Argv, int First) {
  CliOptions O;
  for (int I = First; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NextArg = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "missing value for %s\n", A.c_str());
        O.Ok = false;
        return "";
      }
      return Argv[++I];
    };
    auto NextUnsigned = [&](std::uint64_t Max) {
      std::uint64_t V = 0;
      bool Given = I + 1 < Argc;
      const char *S = NextArg();
      if (Given && !parseUnsigned(S, Max, V)) {
        std::fprintf(stderr, "%s: expected an integer in [0, %llu], got '%s'\n",
                     A.c_str(), (unsigned long long)Max, S);
        O.Ok = false;
      }
      return V;
    };
    if (A == "--workloads") {
      O.Workloads = splitCommas(NextArg());
    } else if (A == "--template") {
      O.TemplateId = NextArg();
    } else if (A == "--repro") {
      O.ReproPath = NextArg();
    } else if (A == "--seed") {
      O.Seed = NextUnsigned(UINT64_MAX);
    } else if (A == "--count") {
      O.Count = static_cast<std::uint32_t>(NextUnsigned(UINT32_MAX));
    } else if (A == "--variants-per-template") {
      O.VariantsPerTemplate =
          static_cast<std::uint32_t>(NextUnsigned(UINT32_MAX));
    } else if (A == "--threads") {
      O.Threads = static_cast<std::uint32_t>(NextUnsigned(sweep::MaxThreads));
    } else if (A == "--inject-trip") {
      O.InjectTrip = static_cast<std::int64_t>(NextUnsigned(INT64_MAX));
    } else if (A == "--quick") {
      O.Quick = true;
    } else if (A == "--no-shrink") {
      O.NoShrink = true;
    } else if (A == "--quiet") {
      O.Quiet = true;
    } else if (A == "-o") {
      O.OutPath = NextArg();
    } else if (A == "--metrics") {
      O.MetricsPath = NextArg();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", A.c_str());
      O.Ok = false;
    }
  }
  return O;
}

/// Extracts templates from the selected workloads (all when the subset is
/// empty). Returns false on an unknown workload name.
bool extractSelected(const CliOptions &O, std::vector<corpus::Template> &Out) {
  if (O.Workloads.empty()) {
    Out = corpus::extractRegistryTemplates();
    return true;
  }
  for (const std::string &Name : O.Workloads) {
    const workloads::Workload *W = workloads::findWorkload(Name);
    if (!W) {
      std::fprintf(stderr, "unknown workload: %s\n", Name.c_str());
      return false;
    }
    std::vector<corpus::Template> Ts =
        corpus::extractTemplates(W->Name, W->Build());
    for (corpus::Template &T : Ts)
      Out.push_back(std::move(T));
  }
  return true;
}

bool writeOrPrint(const std::string &Content, const std::string &Path,
                  const char *What) {
  if (Path.empty()) {
    std::fputs(Content.c_str(), stdout);
    return true;
  }
  std::string Err;
  if (writeFileAtomic(Path, Content, &Err)) {
    std::printf("%s written to %s\n", What, Path.c_str());
    return true;
  }
  std::fprintf(stderr, "jrpm-corpus: %s\n", Err.c_str());
  return false;
}

int cmdExtract(const CliOptions &O) {
  std::vector<corpus::Template> Templates;
  if (!extractSelected(O, Templates))
    return 1;
  return writeOrPrint(corpus::templatesToJson(Templates).dump(), O.OutPath,
                      "template manifest")
             ? 0
             : 1;
}

int cmdGenerate(const CliOptions &O) {
  if (O.TemplateId.empty() || O.Count == 0)
    return usage();
  std::vector<corpus::Template> Templates =
      corpus::extractRegistryTemplates();
  const corpus::Template *T = corpus::findTemplate(Templates, O.TemplateId);
  if (!T) {
    std::fprintf(stderr, "unknown template: %s\n", O.TemplateId.c_str());
    return 1;
  }
  if (O.Count == 1) {
    corpus::Variant V = corpus::instantiate(*T, O.Seed);
    return writeOrPrint(corpus::reproDocument(V), O.OutPath,
                        "repro document")
               ? 0
               : 1;
  }
  TextTable Table;
  Table.setHeader({"seed", "digest", "weight", "holes"});
  for (std::uint32_t I = 0; I < O.Count; ++I) {
    corpus::Variant V = corpus::instantiate(*T, O.Seed + I);
    std::string Holes;
    for (const corpus::HoleValue &H : V.Spec.Holes) {
      if (!Holes.empty())
        Holes += " ";
      Holes += H.Name + "=" + std::to_string(H.Value);
    }
    Table.addRow({formatString("%llu", (unsigned long long)(O.Seed + I)),
                  formatString("%016llx", (unsigned long long)V.Digest),
                  formatString("%lld", (long long)V.Spec.weight(*T)),
                  Holes});
  }
  Table.print();
  return 0;
}

int cmdRun(const CliOptions &O) {
  std::vector<corpus::Template> Templates;
  if (!extractSelected(O, Templates))
    return 1;
  if (Templates.empty()) {
    std::fprintf(stderr, "no templates extracted\n");
    return 1;
  }

  corpus::CorpusOptions Opts;
  Opts.BaseSeed = O.Seed;
  Opts.VariantsPerTemplate = O.VariantsPerTemplate;
  Opts.Threads = O.Threads;
  Opts.Oracle.InjectTripAtLeast = O.InjectTrip;
  Opts.ShrinkFailures = !O.NoShrink;
  if (O.Quick) {
    std::uint32_t Cap = static_cast<std::uint32_t>(
        200 / Templates.size() ? 200 / Templates.size() : 1);
    if (Opts.VariantsPerTemplate > Cap)
      Opts.VariantsPerTemplate = Cap;
  }
  metrics::Registry Metrics;
  if (!O.MetricsPath.empty())
    Opts.Metrics = &Metrics;

  corpus::CorpusReport Report = corpus::runCorpus(Templates, Opts);

  if (!O.Quiet) {
    // Family-level table, aggregated in plan order.
    struct FamilyAgg {
      std::uint64_t Variants = 0, Failed = 0, Candidates = 0,
                    DynSelected = 0, StaticRejects = 0, FalseRejects = 0;
    };
    std::map<std::string, FamilyAgg> Families;
    for (const corpus::TemplateSummary &T : Report.Templates) {
      FamilyAgg &F = Families[T.Family];
      F.Variants += T.Variants;
      F.Failed += T.Failed;
      F.Candidates += T.Candidates;
      F.DynSelected += T.DynSelected;
      F.StaticRejects += T.StaticRejects;
      F.FalseRejects += T.FalseRejects;
    }
    TextTable Table;
    Table.setHeader({"family", "variants", "failed", "loops", "selected",
                     "static-rej", "false-rej"});
    for (const auto &[Name, F] : Families)
      Table.addRow({Name, formatString("%llu", (unsigned long long)F.Variants),
                    formatString("%llu", (unsigned long long)F.Failed),
                    formatString("%llu", (unsigned long long)F.Candidates),
                    formatString("%llu", (unsigned long long)F.DynSelected),
                    formatString("%llu",
                                 (unsigned long long)F.StaticRejects),
                    formatString("%llu",
                                 (unsigned long long)F.FalseRejects)});
    Table.print();
  }
  std::printf("%llu variants over %zu templates: %llu passed, %llu failed, "
              "%llu false rejects, digest %016llx\n",
              (unsigned long long)Report.TotalVariants, Templates.size(),
              (unsigned long long)Report.Passed,
              (unsigned long long)Report.Failed,
              (unsigned long long)Report.FalseRejects,
              (unsigned long long)Report.CorpusDigest);
  for (const corpus::FailureRecord &F : Report.Failures)
    std::fprintf(stderr, "  FAIL %s seed %llu: %s\n",
                 F.Spec.TemplateId.c_str(), (unsigned long long)F.Spec.Seed,
                 F.Failures.empty() ? "?" : F.Failures.front().Detail.c_str());

  if (!O.OutPath.empty()) {
    std::string Err;
    if (!writeFileAtomic(O.OutPath, Report.toJson().dump(), &Err)) {
      std::fprintf(stderr, "jrpm-corpus: %s\n", Err.c_str());
      return 1;
    }
    std::printf("report written to %s\n", O.OutPath.c_str());
  }
  if (!O.MetricsPath.empty()) {
    std::string Err;
    if (!writeFileAtomic(O.MetricsPath, Metrics.toJson().dump(), &Err)) {
      std::fprintf(stderr, "jrpm-corpus: %s\n", Err.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", O.MetricsPath.c_str());
  }
  return Report.Failed == 0 ? 0 : 1;
}

int cmdShrink(const CliOptions &O) {
  if (O.ReproPath.empty())
    return usage();
  std::string Text, Err;
  if (!readFileToString(O.ReproPath, Text, &Err)) {
    std::fprintf(stderr, "jrpm-corpus: %s\n", Err.c_str());
    return 1;
  }
  corpus::VariantSpec Spec;
  std::uint64_t RecordedDigest = 0;
  if (!corpus::parseReproDocument(Text, Spec, &RecordedDigest, &Err)) {
    std::fprintf(stderr, "jrpm-corpus: %s: %s\n", O.ReproPath.c_str(),
                 Err.c_str());
    return 1;
  }
  std::vector<corpus::Template> Templates =
      corpus::extractRegistryTemplates();
  const corpus::Template *T =
      corpus::findTemplate(Templates, Spec.TemplateId);
  if (!T) {
    std::fprintf(stderr, "unknown template: %s\n", Spec.TemplateId.c_str());
    return 1;
  }
  corpus::Variant V = corpus::instantiate(*T, Spec);
  if (RecordedDigest && V.Digest != RecordedDigest)
    std::fprintf(stderr,
                 "warning: rebuilt digest %016llx != recorded %016llx "
                 "(template drift?)\n",
                 (unsigned long long)V.Digest,
                 (unsigned long long)RecordedDigest);

  corpus::OracleConfig Cfg;
  Cfg.InjectTripAtLeast = O.InjectTrip;
  corpus::ShrinkResult R = corpus::shrinkVariant(*T, Spec, Cfg);
  if (!R.StillFailing) {
    std::printf("variant passes all oracles; nothing to shrink\n");
    return 1;
  }
  corpus::Variant Min = corpus::instantiate(*T, R.Minimized);
  std::printf("shrunk %s seed %llu: weight %lld -> %lld in %u steps "
              "(%u evaluations)\n",
              Spec.TemplateId.c_str(), (unsigned long long)Spec.Seed,
              (long long)Spec.weight(*T), (long long)R.Minimized.weight(*T),
              R.Steps, R.Evaluations);
  for (const corpus::OracleFailure &F : R.Outcome.Failures)
    std::printf("  %s: %s\n", corpus::oracleKindName(F.Kind),
                F.Detail.c_str());
  return writeOrPrint(corpus::reproDocument(Min), O.OutPath,
                      "minimized repro")
             ? 0
             : 1;
}

int cmdStats() {
  std::vector<corpus::Template> Templates =
      corpus::extractRegistryTemplates();
  struct FamilyAgg {
    std::uint64_t Templates = 0, SourceLoops = 0, Holes = 0;
  };
  std::map<std::string, FamilyAgg> Families;
  for (const corpus::Template &T : Templates) {
    FamilyAgg &F = Families[T.Family];
    ++F.Templates;
    F.SourceLoops += T.SourceLoops;
    F.Holes += T.Holes.size();
  }
  TextTable Table;
  Table.setHeader({"family", "templates", "source-loops", "holes"});
  for (const auto &[Name, F] : Families)
    Table.addRow({Name, formatString("%llu", (unsigned long long)F.Templates),
                  formatString("%llu", (unsigned long long)F.SourceLoops),
                  formatString("%llu", (unsigned long long)F.Holes)});
  Table.print();
  std::printf("%zu templates over %zu workloads\n", Templates.size(),
              workloads::allWorkloads().size());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  CliOptions O = parseCli(Argc, Argv, 2);
  if (!O.Ok)
    return usage();
  if (Cmd == "extract")
    return cmdExtract(O);
  if (Cmd == "generate")
    return cmdGenerate(O);
  if (Cmd == "run")
    return cmdRun(O);
  if (Cmd == "shrink")
    return cmdShrink(O);
  if (Cmd == "stats") {
    if (Argc > 2)
      return usage();
    return cmdStats();
  }
  return usage();
}
