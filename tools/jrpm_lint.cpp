//===- tools/jrpm_lint.cpp - Static checks over workload modules -----------==//
//
// Usage:
//   jrpm-lint all [options]
//       Lint every registry workload.
//   jrpm-lint <workload> [options]
//       Lint one workload: the structural/def-use/type module verifier on
//       the lowered IR, the annotation verifier at both annotation levels,
//       and the TLS plan verifier for every candidate loop.
//
// Options:
//   --prefilter   enable the static dependence pre-filter
//   --oracle      enable the affine speculation oracle (implies per-loop
//                 verdicts in the report)
//   --deps        print the per-loop memory dependence report
//   --json        emit one deterministic JSON document on stdout instead
//                 of the human report (diagnostics, loops, verdicts)
//   --jobs N      lint workloads on N threads (the report is identical
//                 for any N; the golden gate checks that)
//
// Exits nonzero if any verifier reports a violation.
//
//===----------------------------------------------------------------------===//

#include "ToolCli.h"
#include "jrpm/LintReport.h"
#include "support/Format.h"
#include "support/Table.h"
#include "sweep/ParallelFor.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace jrpm;

namespace {

int usage() {
  std::fprintf(stderr, "usage: jrpm-lint <workload>|all [--prefilter] "
                       "[--oracle] [--deps] [--json] [--jobs N]\n");
  return 2;
}

/// Renders the per-loop dependence table from the structured report.
void printDepReport(const Json &Doc) {
  const Json *Name = Doc.find("workload");
  const Json *Loops = Doc.find("loops");
  if (!Name || !Loops)
    return;
  std::printf("\n== %s: memory dependence report ==\n", Name->str().c_str());
  TextTable T;
  T.setHeader({"loop", "state", "loads", "stores", "RAW", "WAW", "may",
               "indep", "parallel", "serial window", "oracle"});
  for (const Json &L : Loops->items()) {
    auto Num = [&](const char *Key) -> std::uint64_t {
      const Json *V = L.find(Key);
      return V ? V->asUint() : 0;
    };
    const Json *Status = L.find("status");
    const Json *Reject = L.find("reject");
    bool Rejected = Status && Status->str() == "rejected";
    const Json *Serial = L.find("serial_window");
    const Json *Oracle = L.find("oracle");
    std::string Verdict = "-";
    if (Oracle)
      if (const Json *V = Oracle->find("verdict"))
        Verdict = V->str();
    const Json *Par = L.find("parallel");
    T.addRow({formatString("#%llu", (unsigned long long)Num("id")),
              Rejected && Reject ? Reject->str() : "candidate",
              formatString("%llu", (unsigned long long)Num("loads")),
              formatString("%llu", (unsigned long long)Num("stores")),
              formatString("%llu", (unsigned long long)Num("raw")),
              formatString("%llu", (unsigned long long)Num("waw")),
              formatString("%llu", (unsigned long long)Num("may")),
              formatString("%llu", (unsigned long long)Num("independent")),
              Par && Par->boolean() ? "yes" : "-",
              Serial ? formatString("%llu cyc",
                                    (unsigned long long)Serial->asUint())
                     : "-",
              Verdict});
  }
  T.print();
}

void printDiagnostics(const Json &Doc) {
  const Json *Name = Doc.find("workload");
  const Json *Diags = Doc.find("diagnostics");
  if (!Name || !Diags)
    return;
  for (const Json &D : Diags->items()) {
    const Json *Pass = D.find("pass");
    const Json *Msg = D.find("message");
    std::printf("%s: %s: %s\n", Name->str().c_str(),
                Pass ? Pass->str().c_str() : "?",
                Msg ? Msg->str().c_str() : "?");
  }
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Target = Argv[1];
  analysis::AnalysisOptions Opts;
  bool Deps = false;
  bool JsonMode = false;
  unsigned Jobs = 1;
  tools::OptionReader R(Argc, Argv, 2);
  while (R.next()) {
    std::string A = R.option();
    if (A == "--prefilter") {
      Opts.StaticPrefilter = true;
    } else if (A == "--oracle") {
      Opts.AffineOracle = true;
    } else if (A == "--deps") {
      Deps = true;
    } else if (A == "--json") {
      JsonMode = true;
    } else if (A == "--jobs") {
      Jobs = static_cast<unsigned>(R.unsignedValue(sweep::MaxThreads));
      if (!R.ok() || Jobs == 0)
        return usage();
    } else {
      return usage();
    }
  }

  std::vector<const workloads::Workload *> Targets;
  if (Target == "all") {
    for (const workloads::Workload &W : workloads::allWorkloads())
      Targets.push_back(&W);
  } else {
    const workloads::Workload *W = workloads::findWorkload(Target);
    if (!W) {
      std::fprintf(stderr, "unknown workload '%s' (try: jrpm-run list)\n",
                   Target.c_str());
      return 2;
    }
    Targets.push_back(W);
  }

  // Lint in parallel, report in registry order: the output is a pure
  // function of the workload set and options, never of the schedule.
  std::vector<lint::WorkloadLint> Results(Targets.size());
  sweep::parallelFor(Targets.size(), Jobs, [&](std::size_t I, unsigned) {
    ir::Module M = Targets[I]->Build();
    Results[I] = lint::lintWorkload(Targets[I]->Name, M, Opts);
  });

  std::uint32_t Errors = 0;
  for (const lint::WorkloadLint &R : Results)
    Errors += R.Violations;

  if (JsonMode) {
    if (Targets.size() == 1 && Target != "all") {
      std::fputs(Results.front().Doc.dump().c_str(), stdout);
    } else {
      Json Doc = Json::object();
      Json Arr = Json::array();
      for (lint::WorkloadLint &R : Results)
        Arr.push(std::move(R.Doc));
      Doc["workloads"] = std::move(Arr);
      Doc["violations"] = Errors;
      std::fputs(Doc.dump().c_str(), stdout);
    }
  } else {
    for (const lint::WorkloadLint &R : Results) {
      printDiagnostics(R.Doc);
      if (Deps)
        printDepReport(R.Doc);
    }
    std::printf("%u workload(s) linted, %u violation(s)\n",
                static_cast<std::uint32_t>(Targets.size()), Errors);
  }
  return Errors == 0 ? 0 : 1;
}
