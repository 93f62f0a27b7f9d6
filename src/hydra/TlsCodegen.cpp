//===- hydra/TlsCodegen.cpp -----------------------------------------------==//

#include "hydra/TlsCodegen.h"

#include "ir/RegUse.h"

#include <cassert>
#include <map>
#include <set>

using namespace jrpm;
using namespace jrpm::hydra;

ir::Function hydra::globalizeLoopBody(
    const ir::Function &F, const jit::TlsLoopPlan &Plan,
    const std::vector<std::uint32_t> &SpillAddrs) {
  assert(SpillAddrs.size() == Plan.CarriedLocals.size() &&
         "one spill slot per carried local");
  std::map<std::uint16_t, std::uint32_t> Spill;
  for (std::size_t K = 0; K < Plan.CarriedLocals.size(); ++K)
    Spill[Plan.CarriedLocals[K]] = SpillAddrs[K];

  ir::Function Out = F;
  for (std::uint32_t B : Plan.Blocks) {
    std::vector<ir::Instruction> NewInstrs;
    std::set<std::uint16_t> LiveInRegs; // carried locals already loaded
    for (const ir::Instruction &I : Out.Blocks[B].Instructions) {
      // Load each carried local before its first use in the block.
      ir::forEachUsedReg(I, [&](std::uint16_t R) {
        auto It = Spill.find(R);
        if (It == Spill.end() || LiveInRegs.count(R))
          return;
        LiveInRegs.insert(R);
        ir::Instruction Ld;
        Ld.Op = ir::Opcode::Load;
        Ld.Dst = R;
        Ld.Imm = It->second;
        NewInstrs.push_back(Ld);
      });
      NewInstrs.push_back(I);
      // Store each carried local right after it is defined so consuming
      // threads see the value as early as possible.
      std::uint16_t D = ir::definedReg(I);
      auto It = D != ir::NoReg ? Spill.find(D) : Spill.end();
      if (It != Spill.end()) {
        LiveInRegs.insert(D); // the register now holds the current value
        ir::Instruction St;
        St.Op = ir::Opcode::Store;
        St.Dst = D;
        St.Imm = It->second;
        NewInstrs.push_back(St);
      }
    }
    Out.Blocks[B].Instructions = std::move(NewInstrs);
  }
  Out.Name += "$tls" + std::to_string(Plan.LoopId);
  return Out;
}
