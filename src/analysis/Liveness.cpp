//===- analysis/Liveness.cpp ----------------------------------------------==//

#include "analysis/Liveness.h"

#include "ir/RegUse.h"

using namespace jrpm;
using namespace jrpm::analysis;

Liveness::Liveness(const ir::Function &F) {
  std::uint32_t N = F.numBlocks();
  std::uint32_t Regs = F.NumRegs;
  LiveIn.assign(N, BitVector(Regs));

  // Per-block USE (read before any write) and DEF sets.
  std::vector<BitVector> Use(N, BitVector(Regs));
  std::vector<BitVector> Def(N, BitVector(Regs));
  for (std::uint32_t B = 0; B < N; ++B) {
    for (const ir::Instruction &I : F.Blocks[B].Instructions) {
      ir::forEachUsedReg(I, [&](std::uint16_t R) {
        if (!Def[B].test(R))
          Use[B].set(R);
      });
      std::uint16_t D = ir::definedReg(I);
      if (D != ir::NoReg)
        Def[B].set(D);
    }
  }

  std::vector<std::uint32_t> Succs;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Iterate in reverse block order as a cheap approximation of reverse
    // topological order; the fixpoint loop handles the rest.
    for (std::uint32_t BI = N; BI-- > 0;) {
      Succs.clear();
      F.Blocks[BI].appendSuccessors(Succs);
      // LiveIn = Use | (LiveOut - Def), LiveOut = union of successors'
      // LiveIn; a pass that changes no LiveIn changes no LiveOut either.
      BitVector NewIn(Regs);
      for (std::uint32_t S : Succs)
        NewIn.unionWith(LiveIn[S]);
      NewIn.subtract(Def[BI]);
      NewIn.unionWith(Use[BI]);
      if (!(NewIn == LiveIn[BI])) {
        LiveIn[BI] = std::move(NewIn);
        Changed = true;
      }
    }
  }
}
