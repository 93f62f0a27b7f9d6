//===- analysis/InductionInfo.cpp -----------------------------------------==//

#include "analysis/InductionInfo.h"

#include "ir/RegUse.h"

#include <algorithm>

using namespace jrpm;
using namespace jrpm::analysis;

bool InductionInfo::isInvariant(std::uint16_t Reg) const {
  return Reg == ir::NoReg ||
         std::binary_search(Invariants.begin(), Invariants.end(), Reg);
}

namespace {

struct DefSite {
  std::uint32_t Block;
  std::uint32_t Index;
};

} // namespace

InductionInfo analysis::analyzeLoopScalars(const ir::Function &F,
                                           const Loop &L,
                                           const DominatorTree &DT,
                                           const Liveness &LV) {
  InductionInfo Info;

  // Collect defs and use counts per register within the loop body.
  std::map<std::uint16_t, std::vector<DefSite>> Defs;
  std::map<std::uint16_t, std::uint32_t> UseCount;
  for (std::uint32_t B : L.Blocks) {
    const ir::BasicBlock &BB = F.Blocks[B];
    for (std::uint32_t Idx = 0; Idx < BB.Instructions.size(); ++Idx) {
      const ir::Instruction &I = BB.Instructions[Idx];
      ir::forEachUsedReg(I, [&](std::uint16_t R) { ++UseCount[R]; });
      std::uint16_t D = ir::definedReg(I);
      if (D != ir::NoReg)
        Defs[D].push_back({B, Idx});
    }
  }

  const BitVector &HeaderLive = LV.liveIn(L.Header);
  for (std::uint32_t R = 0; R < F.NumRegs; ++R) {
    if (!HeaderLive.test(R))
      continue;
    auto DefIt = Defs.find(static_cast<std::uint16_t>(R));
    if (DefIt == Defs.end()) {
      Info.Invariants.push_back(static_cast<std::uint16_t>(R));
      continue;
    }
    const std::vector<DefSite> &RegDefs = DefIt->second;
    std::uint16_t Reg = static_cast<std::uint16_t>(R);

    // Basic inductor: single def `AddImm r, r, c` whose block executes
    // exactly once per iteration: at least once because it dominates every
    // latch, at most once because no path inside one iteration leads from
    // it back to itself (an inner loop's block runs k times per iteration).
    if (RegDefs.size() == 1) {
      const DefSite &Site = RegDefs[0];
      const ir::Instruction &DefI =
          F.Blocks[Site.Block].Instructions[Site.Index];
      bool DominatesLatches = true;
      for (std::uint32_t Latch : L.Latches)
        DominatesLatches &= DT.dominates(Site.Block, Latch);
      if (DefI.Op == ir::Opcode::AddImm && DefI.A == Reg && DominatesLatches &&
          !L.reachesInIteration(F, Site.Block, Site.Block)) {
        Info.Inductors[Reg] = {DefI.Imm, Site.Block, Site.Index};
        continue;
      }
      // Sum reduction: single def `r = r (+|-) x` (or `x + r`) and the only
      // in-loop use of r is that def itself.
      bool IsIntSum =
          (DefI.Op == ir::Opcode::Add || DefI.Op == ir::Opcode::Sub) &&
          (DefI.A == Reg || (DefI.Op == ir::Opcode::Add && DefI.B == Reg));
      bool IsFloatSum =
          (DefI.Op == ir::Opcode::FAdd || DefI.Op == ir::Opcode::FSub) &&
          (DefI.A == Reg || (DefI.Op == ir::Opcode::FAdd && DefI.B == Reg));
      bool IsAddImmSelf = DefI.Op == ir::Opcode::AddImm && DefI.A == Reg;
      if ((IsIntSum || IsFloatSum || IsAddImmSelf) && UseCount[Reg] == 1) {
        // An AddImm on itself that is no inductor (it does not dominate the
        // latches, or sits on an inner cycle) is a counter that runs a
        // varying number of times per iteration; treat it as an integer sum
        // reduction (privatizable with a final combine).
        Info.Reductions[Reg] =
            IsFloatSum ? ReductionKind::SumFloat : ReductionKind::SumInt;
        continue;
      }
    }
    Info.OtherCarried.push_back(Reg);
  }
  return Info;
}
