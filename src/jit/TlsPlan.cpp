//===- jit/TlsPlan.cpp ----------------------------------------------------==//

#include "jit/TlsPlan.h"

#include "support/Format.h"

#include <set>
#include <string>

using namespace jrpm;
using namespace jrpm::jit;

TlsLoopPlan jit::buildTlsPlan(const analysis::ModuleAnalysis &MA,
                              const analysis::CandidateStl &C) {
  const analysis::Loop &L = MA.loopOf(C);
  const analysis::InductionInfo &Scalars = MA.scalarsOf(C);

  TlsLoopPlan Plan;
  Plan.LoopId = C.LoopId;
  Plan.Func = C.FuncIndex;
  Plan.Header = L.Header;
  Plan.Blocks = L.Blocks;
  Plan.CarriedLocals = Scalars.OtherCarried;
  for (const auto &[Reg, Ind] : Scalars.Inductors)
    Plan.Inductors.emplace_back(Reg, Ind.Step);
  for (const auto &[Reg, Kind] : Scalars.Reductions)
    Plan.Reductions.emplace_back(Reg, Kind);
  Plan.NumInvariants = static_cast<std::uint32_t>(Scalars.Invariants.size());
  return Plan;
}

std::vector<std::string> jit::verifyTlsPlan(const ir::Module &M,
                                            const TlsLoopPlan &Plan) {
  std::vector<std::string> Errors;
  auto Report = [&](std::string Msg) { Errors.push_back(std::move(Msg)); };

  if (Plan.Func >= M.Functions.size()) {
    Report(formatString("plan %u: function index %u out of range", Plan.LoopId,
                        Plan.Func));
    return Errors;
  }
  const ir::Function &F = M.Functions[Plan.Func];

  if (!std::is_sorted(Plan.Blocks.begin(), Plan.Blocks.end()))
    Report(formatString("plan %u: body blocks not sorted", Plan.LoopId));
  if (Plan.Blocks.empty() || !Plan.containsBlock(Plan.Header))
    Report(formatString("plan %u: header bb%u not in body", Plan.LoopId,
                        Plan.Header));
  for (std::uint32_t B : Plan.Blocks)
    if (B >= F.numBlocks())
      Report(formatString("plan %u: body block bb%u out of range", Plan.LoopId,
                          B));

  std::set<std::uint16_t> Classes;
  auto CheckReg = [&](std::uint16_t Reg, const char *Class) {
    if (Reg >= F.NumRegs) {
      Report(formatString("plan %u: %s register r%u out of range",
                          Plan.LoopId, Class, Reg));
      return;
    }
    if (!Classes.insert(Reg).second)
      Report(formatString("plan %u: register r%u appears in two register "
                          "classes (%s and earlier)",
                          Plan.LoopId, Reg, Class));
  };
  for (std::uint16_t Reg : Plan.CarriedLocals)
    CheckReg(Reg, "globalized");
  for (const auto &[Reg, Step] : Plan.Inductors) {
    CheckReg(Reg, "inductor");
    (void)Step;
  }
  for (const auto &[Reg, Kind] : Plan.Reductions) {
    CheckReg(Reg, "reduction");
    (void)Kind;
  }

  for (std::uint32_t B : Plan.Blocks) {
    if (B >= F.numBlocks())
      continue;
    for (const ir::Instruction &I : F.Blocks[B].Instructions) {
      if (I.Op == ir::Opcode::Ret)
        Report(formatString("plan %u: body bb%u returns from the function",
                            Plan.LoopId, B));
      else if (I.Op == ir::Opcode::Alloc)
        Report(formatString("plan %u: body bb%u allocates heap memory",
                            Plan.LoopId, B));
    }
  }
  return Errors;
}
