//===- bench/bench_static_vs_test.cpp - Static analysis vs dynamic TEST ----==//
//
// Precision/recall conformance harness for the static speculation stack
// against the dynamic TEST tracer, over four corpora:
//
//   * the full 26-workload registry,
//   * a seeded pseudo-random program corpus (>= 200 programs),
//   * synthetic programs built around the shapes the static rules target,
//     and
//   * the template-extracted variant corpus (src/corpus): every registry
//     template instantiated at 25 seeds, >= 2000 variants, scored per
//     family.
//
// Two static modes are scored. The PR1 pre-filter recognises one shape —
// an invariant-addressed latch store reloaded by the header. The affine
// oracle runs the classical dependence tests (ZIV/SIV/GCD) over symbolic
// strides and proves serial recurrences the shape rule cannot see.
// Treating "dynamic TEST did not select the loop" as ground truth, the
// bench reports each mode's precision and recall and enforces two hard
// gates: zero false rejections (a statically rejected loop that dynamic
// TEST selects means lost speedup), and the oracle's true rejections must
// strictly exceed the pre-filter's — the oracle must pay for its
// machinery with coverage.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/Candidates.h"
#include "corpus/Generator.h"
#include "corpus/Variant.h"
#include "frontend/Ast.h"
#include "frontend/Lower.h"

#include <map>
#include <set>

using namespace jrpm;
using namespace jrpm::benchutil;

namespace {

/// One static mode's confusion-matrix tallies against dynamic TEST.
struct ModeStats {
  std::uint32_t Rejected = 0;
  std::uint32_t TrueRejections = 0;  // rejected, dynamically unselected
  std::uint32_t FalseRejections = 0; // rejected, dynamically selected

  void add(const ModeStats &O) {
    Rejected += O.Rejected;
    TrueRejections += O.TrueRejections;
    FalseRejections += O.FalseRejections;
  }
};

struct ProgramStats {
  std::uint32_t Loops = 0;
  std::uint32_t DynSelected = 0;
  std::uint32_t DynNotSelected = 0;
  ModeStats Pre, Orc;
  std::uint64_t CyclesOff = 0;   // profiled, no static screening
  std::uint64_t CyclesOrc = 0;   // profiled with the oracle rejects unplugged

  void add(const ProgramStats &O) {
    Loops += O.Loops;
    DynSelected += O.DynSelected;
    DynNotSelected += O.DynNotSelected;
    Pre.add(O.Pre);
    Orc.add(O.Orc);
    CyclesOff += O.CyclesOff;
    CyclesOrc += O.CyclesOrc;
  }
};

/// Scores one static mode's rejections against the dynamic selection.
ModeStats scoreMode(const analysis::ModuleAnalysis &Base,
                    const analysis::AnalysisOptions &Opts,
                    const std::set<std::uint32_t> &Selected) {
  ModeStats S;
  analysis::ModuleAnalysis MA(Base, Opts);
  for (const analysis::CandidateStl &C : MA.candidates()) {
    if (!C.rejectedAsSerial())
      continue;
    ++S.Rejected;
    if (Selected.count(C.LoopId))
      ++S.FalseRejections;
    else
      ++S.TrueRejections;
  }
  return S;
}

/// Full comparison for one module: dynamic ground truth plus both modes.
/// \p Profiled also measures the profiling cost with the oracle's rejects
/// unplugged (skipped for the random corpus, where only verdicts matter).
ProgramStats compare(const ir::Module &M, bool Profiled) {
  ProgramStats S;

  // Dynamic ground truth: the paper's optimistic policy, profiled by TEST.
  pipeline::PipelineConfig Off;
  pipeline::Jrpm JOff(M, Off);
  pipeline::Jrpm::ProfileOutcome POff = JOff.profileAndSelect();
  std::set<std::uint32_t> Selected(POff.Selection.SelectedLoops.begin(),
                                   POff.Selection.SelectedLoops.end());
  S.CyclesOff = POff.Run.Cycles;
  for (const analysis::CandidateStl &C : JOff.moduleAnalysis().candidates()) {
    ++S.Loops;
    bool DynSel = Selected.count(C.LoopId) != 0;
    S.DynSelected += DynSel;
    S.DynNotSelected += !DynSel;
  }

  analysis::AnalysisOptions PreOpts;
  PreOpts.StaticPrefilter = true;
  S.Pre = scoreMode(JOff.moduleAnalysis(), PreOpts, Selected);

  analysis::AnalysisOptions OrcOpts;
  OrcOpts.AffineOracle = true;
  S.Orc = scoreMode(JOff.moduleAnalysis(), OrcOpts, Selected);

  if (Profiled) {
    pipeline::PipelineConfig On;
    On.AffineOracle = true;
    pipeline::Jrpm JOn(M, On);
    S.CyclesOrc = JOn.profileAndSelect().Run.Cycles;
  }
  return S;
}

/// The textbook serial memory recurrence both static modes catch:
/// while (heap[p] < n) heap[p] = heap[p] + 1.
ir::Module serialWalkModule(std::int64_t Bound) {
  using namespace front;
  ProgramDef P;
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({
      assign("p", allocWords(c(8))),
      store(v("p"), Ex(), c(0)),
      whileLoop(lt(ld(v("p")), c(Bound)),
                store(v("p"), Ex(), 0, add(ld(v("p")), c(1)))),
      ret(ld(v("p"))),
  });
  P.Functions.push_back(std::move(Main));
  return front::lowerProgram(P);
}

/// The same recurrence with the store hoisted out of the latch block by a
/// trailing (never-taken) guard: the pre-filter's latch-seeded rule goes
/// blind, the oracle still proves the distance-1 arc.
ir::Module serialGuardedModule(std::int64_t Bound) {
  using namespace front;
  ProgramDef P;
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({
      assign("p", allocWords(c(8))),
      assign("g", c(0)),
      store(v("p"), Ex(), c(0)),
      whileLoop(lt(ld(v("p")), c(Bound)),
                seq({
                    store(v("p"), Ex(), 0, add(ld(v("p")), c(1))),
                    iff(v("g"), exprStmt(c(0))),
                })),
      ret(ld(v("p"))),
  });
  P.Functions.push_back(std::move(Main));
  return front::lowerProgram(P);
}

/// Provably parallel by strong SIV: writes a[2i], reads a[2i+1] — the
/// address lattices never meet. Nothing may be rejected here.
ir::Module parallelStride2Module(std::int64_t Trip) {
  using namespace front;
  ProgramDef P;
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({
      assign("a", allocWords(c(4096))),
      forLoop("i", c(0), lt(v("i"), c(Trip)), 1,
              seq({
                  assign("t", mul(v("i"), c(2))),
                  store(v("a"), v("t"), 0,
                        add(ld(v("a"), v("t"), 1), c(3))),
              })),
      ret(ld(v("a"), Ex(), 0)),
  });
  P.Functions.push_back(std::move(Main));
  return front::lowerProgram(P);
}

std::string ratioOrDash(std::uint32_t Num, std::uint32_t Den) {
  return Den ? fmt(static_cast<double>(Num) / Den, 2) : std::string("-");
}

void printModeSummary(const char *Corpus, const ProgramStats &T) {
  std::printf("%-22s %5u loops, %3u dyn-selected | prefilter: %2u rej, "
              "%u false | oracle: %2u rej, %u false\n",
              Corpus, T.Loops, T.DynSelected, T.Pre.Rejected,
              T.Pre.FalseRejections, T.Orc.Rejected,
              T.Orc.FalseRejections);
}

} // namespace

int main() {
  printBanner("Static affine oracle and pre-filter vs dynamic TEST",
              "the Section 4.1 candidate policy");

  //===------------------------------------------------------------------===//
  // Corpus 1: the workload registry (serial, then pooled; must agree).
  //===------------------------------------------------------------------===//
  const std::vector<workloads::Workload> &All = workloads::allWorkloads();
  std::vector<ProgramStats> Stats(All.size());
  std::vector<std::function<void()>> Jobs;
  for (std::size_t Wi = 0; Wi < All.size(); ++Wi)
    Jobs.push_back(
        [&, Wi]() { Stats[Wi] = compare(All[Wi].Build(), /*Profiled=*/true); });

  for (const std::function<void()> &J : Jobs)
    J();
  std::vector<ProgramStats> SerialStats = Stats;
  runOnPool(Jobs);
  bool SlotsIdentical = true;
  for (std::size_t Wi = 0; Wi < All.size(); ++Wi)
    SlotsIdentical &=
        Stats[Wi].CyclesOff == SerialStats[Wi].CyclesOff &&
        Stats[Wi].CyclesOrc == SerialStats[Wi].CyclesOrc &&
        Stats[Wi].Pre.Rejected == SerialStats[Wi].Pre.Rejected &&
        Stats[Wi].Orc.Rejected == SerialStats[Wi].Orc.Rejected &&
        Stats[Wi].DynSelected == SerialStats[Wi].DynSelected;

  TextTable T;
  T.setHeader({"Benchmark", "loops", "dyn sel", "pre rej", "orc rej",
               "false rej", "profiled off", "profiled orc"});
  ProgramStats Registry;
  std::string Category;
  for (std::size_t Wi = 0; Wi < All.size(); ++Wi) {
    const workloads::Workload &W = All[Wi];
    if (W.Category != Category) {
      Category = W.Category;
      T.addSeparator();
    }
    const ProgramStats &S = Stats[Wi];
    T.addRow({W.Name, formatString("%u", S.Loops),
              formatString("%u", S.DynSelected),
              formatString("%u", S.Pre.Rejected),
              formatString("%u", S.Orc.Rejected),
              formatString("%u",
                           S.Pre.FalseRejections + S.Orc.FalseRejections),
              formatString("%llu", (unsigned long long)S.CyclesOff),
              formatString("%llu", (unsigned long long)S.CyclesOrc)});
    Registry.add(S);
  }
  T.print();
  std::printf(
      "\nThe registry's hot loops keep their recurrences in registers, so\n"
      "conservative memory-shape screening rejects none of them; the\n"
      "synthetic programs below carry the recurrence through the heap.\n");

  //===------------------------------------------------------------------===//
  // Corpus 2: seeded pseudo-random programs (pooled, preassigned slots).
  //===------------------------------------------------------------------===//
  constexpr std::size_t NumRandom = 220;
  std::vector<ProgramStats> RandStats(NumRandom);
  std::vector<std::function<void()>> RandJobs;
  for (std::size_t Seed = 0; Seed < NumRandom; ++Seed)
    RandJobs.push_back([&RandStats, Seed]() {
      corpus::ProgramGenerator Gen(0xC0FFEE00 + Seed);
      RandStats[Seed] = compare(Gen.generate(), /*Profiled=*/false);
    });
  runOnPool(RandJobs);
  ProgramStats Random;
  for (const ProgramStats &S : RandStats)
    Random.add(S);

  //===------------------------------------------------------------------===//
  // Corpus 3: synthetic shape programs.
  //===------------------------------------------------------------------===//
  std::printf("\n== Synthetic shape programs ==\n\n");
  TextTable ST;
  ST.setHeader({"Program", "pre rej", "orc rej", "dyn sel", "false rej",
                "profiled off", "profiled orc"});
  ProgramStats Synth;
  bool SyntheticOk = true;
  std::uint32_t GuardedOracleOnly = 0;
  auto addSynthetic = [&](const std::string &Name, const ir::Module &M,
                          bool ExpectPre, bool ExpectOrc) {
    ProgramStats St = compare(M, /*Profiled=*/true);
    Synth.add(St);
    SyntheticOk &= St.Pre.FalseRejections + St.Orc.FalseRejections == 0;
    SyntheticOk &= (St.Pre.Rejected > 0) == ExpectPre;
    SyntheticOk &= (St.Orc.Rejected > 0) == ExpectOrc;
    if (ExpectOrc)
      SyntheticOk &= St.CyclesOrc <= St.CyclesOff;
    if (!ExpectPre && ExpectOrc)
      GuardedOracleOnly += St.Orc.Rejected;
    ST.addRow({Name, formatString("%u", St.Pre.Rejected),
               formatString("%u", St.Orc.Rejected),
               formatString("%u", St.DynSelected),
               formatString("%u",
                            St.Pre.FalseRejections + St.Orc.FalseRejections),
               formatString("%llu", (unsigned long long)St.CyclesOff),
               formatString("%llu", (unsigned long long)St.CyclesOrc)});
  };
  for (std::int64_t Bound : {50, 400, 3000}) {
    addSynthetic(formatString("serial-walk-%lld", (long long)Bound),
                 serialWalkModule(Bound), /*ExpectPre=*/true,
                 /*ExpectOrc=*/true);
    addSynthetic(formatString("serial-guarded-%lld", (long long)Bound),
                 serialGuardedModule(Bound), /*ExpectPre=*/false,
                 /*ExpectOrc=*/true);
  }
  addSynthetic("parallel-stride2", parallelStride2Module(512),
               /*ExpectPre=*/false, /*ExpectOrc=*/false);
  ST.print();
  std::printf("\nThe guarded variants hoist the store out of the latch "
              "block: only the\naffine oracle still proves the distance-1 "
              "arc, inside the same budget.\n");

  //===------------------------------------------------------------------===//
  // Corpus 4: template-extracted variants (pooled, preassigned slots).
  //===------------------------------------------------------------------===//
  std::vector<corpus::Template> Templates = corpus::extractRegistryTemplates();
  constexpr std::uint32_t VariantsPerTemplate = 25;
  const std::size_t NumVariants = Templates.size() * VariantsPerTemplate;
  std::vector<ProgramStats> CorpStats(NumVariants);
  std::vector<std::function<void()>> CorpJobs;
  for (std::size_t Ti = 0; Ti < Templates.size(); ++Ti)
    for (std::uint32_t S = 0; S < VariantsPerTemplate; ++S)
      CorpJobs.push_back([&CorpStats, &Templates, Ti, S]() {
        corpus::Variant V = corpus::instantiate(Templates[Ti], 1 + S);
        CorpStats[Ti * VariantsPerTemplate + S] =
            compare(V.Module, /*Profiled=*/false);
      });
  runOnPool(CorpJobs);

  std::printf("\n== Template-extracted variant corpus (%zu variants, %zu "
              "templates x %u seeds) ==\n\n",
              NumVariants, Templates.size(), VariantsPerTemplate);
  struct FamilyAgg {
    std::uint32_t Variants = 0;
    ProgramStats Stats;
  };
  std::map<std::string, FamilyAgg> Families;
  for (std::size_t Ti = 0; Ti < Templates.size(); ++Ti) {
    FamilyAgg &F = Families[Templates[Ti].Family];
    for (std::uint32_t S = 0; S < VariantsPerTemplate; ++S) {
      ++F.Variants;
      F.Stats.add(CorpStats[Ti * VariantsPerTemplate + S]);
    }
  }
  TextTable CT;
  CT.setHeader({"Family", "variants", "loops", "dyn sel", "pre rej",
                "orc rej", "false rej"});
  ProgramStats Corpus;
  for (const auto &[Family, F] : Families) {
    Corpus.add(F.Stats);
    CT.addRow({Family, formatString("%u", F.Variants),
               formatString("%u", F.Stats.Loops),
               formatString("%u", F.Stats.DynSelected),
               formatString("%u", F.Stats.Pre.Rejected),
               formatString("%u", F.Stats.Orc.Rejected),
               formatString("%u", F.Stats.Pre.FalseRejections +
                                      F.Stats.Orc.FalseRejections)});
  }
  CT.print();

  //===------------------------------------------------------------------===//
  // Conformance scorecard and hard gates.
  //===------------------------------------------------------------------===//
  ProgramStats Total;
  Total.add(Registry);
  Total.add(Random);
  Total.add(Synth);
  Total.add(Corpus);

  std::printf("\n== Conformance vs dynamic TEST (ground truth: loop not "
              "selected) ==\n\n");
  printModeSummary("registry (26)", Registry);
  printModeSummary(formatString("random corpus (%zu)", NumRandom).c_str(),
                   Random);
  printModeSummary("synthetics", Synth);
  printModeSummary(
      formatString("variant corpus (%zu)", NumVariants).c_str(), Corpus);
  printModeSummary("total", Total);

  std::printf("\n%-10s precision %-5s recall %-5s (of %u dynamically "
              "unselected loops)\n",
              "prefilter:",
              ratioOrDash(Total.Pre.TrueRejections, Total.Pre.Rejected)
                  .c_str(),
              ratioOrDash(Total.Pre.TrueRejections, Total.DynNotSelected)
                  .c_str(),
              Total.DynNotSelected);
  std::printf("%-10s precision %-5s recall %-5s (of %u dynamically "
              "unselected loops)\n",
              "oracle:",
              ratioOrDash(Total.Orc.TrueRejections, Total.Orc.Rejected)
                  .c_str(),
              ratioOrDash(Total.Orc.TrueRejections, Total.DynNotSelected)
                  .c_str(),
              Total.DynNotSelected);

  printPoolVerdict("per-program conformance", Jobs.size(), SlotsIdentical);

  bool ZeroFalse =
      Total.Pre.FalseRejections == 0 && Total.Orc.FalseRejections == 0;
  bool StrictGain = Total.Orc.TrueRejections > Total.Pre.TrueRejections;
  bool CorpusScale = NumVariants >= 2000;
  bool Pass = ZeroFalse && StrictGain && SyntheticOk &&
              GuardedOracleOnly > 0 && SlotsIdentical && CorpusScale;
  std::printf("\n%s: %u false rejection(s); oracle true rejections %u vs "
              "prefilter %u (%s); %u oracle-only shapes; %zu corpus "
              "variants.\n",
              Pass ? "PASS" : "FAIL",
              Total.Pre.FalseRejections + Total.Orc.FalseRejections,
              Total.Orc.TrueRejections, Total.Pre.TrueRejections,
              StrictGain ? "strictly more" : "NO GAIN", GuardedOracleOnly,
              NumVariants);
  return Pass ? 0 : 1;
}
