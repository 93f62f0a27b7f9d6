//===- analysis/Dominators.cpp --------------------------------------------==//

#include "analysis/Dominators.h"

#include <algorithm>
#include <cassert>

using namespace jrpm;
using namespace jrpm::analysis;

DominatorTree::DominatorTree(const ir::Function &F) {
  std::uint32_t N = F.numBlocks();
  Idom.assign(N, 0);
  Depth.assign(N, 0);
  Reachable.assign(N, false);

  std::vector<std::uint32_t> Rpo = F.reversePostOrder();
  for (std::uint32_t B : Rpo)
    Reachable[B] = true;
  std::vector<std::uint32_t> RpoIndex(N, 0);
  for (std::uint32_t I = 0; I < Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = I;

  auto Preds = F.computePredecessors();

  // Unreachable blocks dominate only themselves.
  for (std::uint32_t B = 0; B < N; ++B)
    Idom[B] = B;
  std::vector<bool> Defined(N, false);
  Defined[0] = true;

  auto Intersect = [&](std::uint32_t A, std::uint32_t B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = Idom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = Idom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::uint32_t B : Rpo) {
      if (B == 0)
        continue;
      std::uint32_t NewIdom = N; // sentinel: none yet
      for (std::uint32_t P : Preds[B]) {
        // Only predecessors whose idom is already defined participate.
        if (!Reachable[P] || !Defined[P])
          continue;
        if (NewIdom == N)
          NewIdom = P;
        else
          NewIdom = Intersect(P, NewIdom);
      }
      if (NewIdom != N && (!Defined[B] || Idom[B] != NewIdom)) {
        Idom[B] = NewIdom;
        Defined[B] = true;
        Changed = true;
      }
    }
  }

  // Compute dominator-tree depths for the dominance query.
  for (std::uint32_t B : Rpo) {
    if (B == 0) {
      Depth[B] = 0;
      continue;
    }
    Depth[B] = Depth[Idom[B]] + 1;
  }
}

bool DominatorTree::dominates(std::uint32_t A, std::uint32_t B) const {
  assert(A < Idom.size() && B < Idom.size() && "block out of range");
  if (!Reachable[A] || !Reachable[B])
    return A == B;
  while (Depth[B] > Depth[A])
    B = Idom[B];
  return A == B;
}
