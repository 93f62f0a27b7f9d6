//===- jrpm/LintReport.cpp ------------------------------------------------==//

#include "jrpm/LintReport.h"

#include "ir/AnnotationVerifier.h"
#include "ir/Verifier.h"
#include "jit/Annotator.h"
#include "jit/TlsPlan.h"

#include <vector>

using namespace jrpm;
using namespace jrpm::lint;

namespace {

void addDiagnostics(Json &Diags, std::uint32_t &Violations, const char *Pass,
                    const std::vector<std::string> &Errors) {
  for (const std::string &E : Errors) {
    Json D = Json::object();
    D["pass"] = Pass;
    D["severity"] = "error";
    D["message"] = E;
    Diags.push(std::move(D));
    ++Violations;
  }
}

Json oracleJson(const analysis::LoopOracleResult &R) {
  Json O = Json::object();
  O["verdict"] = analysis::oracleVerdictName(R.Verdict);
  O["test"] = analysis::depTestKindName(R.Test);
  O["distance"] = R.Distance;
  O["window"] = R.WindowCycles;
  Json Pairs = Json::object();
  Pairs["total"] = R.TotalPairs;
  Pairs["independent"] = R.IndependentPairs;
  Pairs["affine"] = R.AffinePairs;
  Pairs["may"] = R.MayPairs;
  O["pairs"] = std::move(Pairs);
  return O;
}

} // namespace

WorkloadLint lint::lintWorkload(const std::string &Name, const ir::Module &M,
                                const analysis::AnalysisOptions &Opts) {
  WorkloadLint Out;
  Out.Doc["workload"] = Name;
  Json Diags = Json::array();

  addDiagnostics(Diags, Out.Violations, "module-verifier", ir::verifyModule(M));

  analysis::ModuleAnalysis MA(M, Opts);
  for (jit::AnnotationLevel Level :
       {jit::AnnotationLevel::Base, jit::AnnotationLevel::Optimized}) {
    const char *Pass = Level == jit::AnnotationLevel::Base
                           ? "annotation-verifier-base"
                           : "annotation-verifier-optimized";
    jit::AnnotatedModule AM = jit::annotateModule(M, MA, Level);
    addDiagnostics(Diags, Out.Violations, Pass,
                   ir::verifyAnnotations(AM.Module, AM.LoopInfos));
    addDiagnostics(Diags, Out.Violations, "module-verifier-annotated",
                   ir::verifyModule(AM.Module));
  }

  for (const analysis::CandidateStl &C : MA.candidates()) {
    if (C.Rejected)
      continue;
    jit::TlsLoopPlan Plan = jit::buildTlsPlan(MA, C);
    addDiagnostics(Diags, Out.Violations, "tls-plan-verifier",
                   jit::verifyTlsPlan(M, Plan));
  }

  Json Loops = Json::array();
  for (const analysis::CandidateStl &C : MA.candidates()) {
    const analysis::LoopMemDep &MD =
        MA.func(C.FuncIndex).MemDep->loopDep(C.LoopIdx);
    Json L = Json::object();
    L["id"] = C.LoopId;
    L["function"] = C.FuncIndex;
    L["status"] = C.Rejected ? "rejected" : "candidate";
    L["reject"] = analysis::rejectKindName(C.Kind);
    L["loads"] = MD.NumLoads;
    L["stores"] = MD.NumStores;
    L["raw"] = MD.NumRaw;
    L["waw"] = MD.NumWaw;
    L["may"] = MD.NumMay;
    L["independent"] = MD.IndependentPairs;
    L["parallel"] = MD.ProvablyParallel;
    if (MD.Serial.Found)
      L["serial_window"] = MD.Serial.WindowCycles;
    if (const analysis::LoopOracleResult *R = MA.oracleResult(C.LoopId))
      L["oracle"] = oracleJson(*R);
    Loops.push(std::move(L));
  }

  Out.Doc["diagnostics"] = std::move(Diags);
  Out.Doc["loops"] = std::move(Loops);
  Out.Doc["violations"] = Out.Violations;
  return Out;
}
