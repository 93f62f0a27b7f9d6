//===- analysis/LoopInfo.cpp ----------------------------------------------==//

#include "analysis/LoopInfo.h"

#include <algorithm>
#include <map>
#include <set>

using namespace jrpm;
using namespace jrpm::analysis;

bool Loop::contains(std::uint32_t Block) const {
  return std::binary_search(Blocks.begin(), Blocks.end(), Block);
}

bool Loop::reachesInIteration(const ir::Function &F, std::uint32_t From,
                              std::uint32_t To) const {
  std::vector<bool> Seen(F.numBlocks(), false);
  std::vector<std::uint32_t> Work;
  F.Blocks[From].appendSuccessors(Work);
  while (!Work.empty()) {
    std::uint32_t B = Work.back();
    Work.pop_back();
    if (B == Header || !contains(B) || Seen[B])
      continue;
    if (B == To)
      return true;
    Seen[B] = true;
    F.Blocks[B].appendSuccessors(Work);
  }
  return false;
}

LoopInfo::LoopInfo(const ir::Function &F, const DominatorTree &DT) {
  std::uint32_t N = F.numBlocks();
  auto Preds = F.computePredecessors();

  // Collect backedges: u -> h where h dominates u.
  std::map<std::uint32_t, std::vector<std::uint32_t>> HeaderToLatches;
  std::vector<std::uint32_t> Succs;
  for (std::uint32_t B = 0; B < N; ++B) {
    if (!DT.isReachable(B))
      continue;
    Succs.clear();
    F.Blocks[B].appendSuccessors(Succs);
    for (std::uint32_t S : Succs)
      if (DT.dominates(S, B))
        HeaderToLatches[S].push_back(B);
  }

  // Build the natural loop for each header by walking predecessors
  // backwards from the latches without crossing the header.
  for (auto &[Header, Latches] : HeaderToLatches) {
    Loop L;
    L.Header = Header;
    L.Latches = Latches;
    std::set<std::uint32_t> Body = {Header};
    std::vector<std::uint32_t> Work = Latches;
    while (!Work.empty()) {
      std::uint32_t B = Work.back();
      Work.pop_back();
      if (!Body.insert(B).second)
        continue;
      for (std::uint32_t P : Preds[B])
        if (DT.isReachable(P))
          Work.push_back(P);
    }
    L.Blocks.assign(Body.begin(), Body.end());

    // Exit targets: successors outside the body.
    std::set<std::uint32_t> Exits;
    for (std::uint32_t B : L.Blocks) {
      Succs.clear();
      F.Blocks[B].appendSuccessors(Succs);
      for (std::uint32_t S : Succs)
        if (!Body.count(S))
          Exits.insert(S);
    }
    L.ExitTargets.assign(Exits.begin(), Exits.end());
    Loops.push_back(std::move(L));
  }

  // Nesting: loop A is the parent of B if A's body strictly contains B's
  // header and A != B. Pick the smallest such container.
  for (std::uint32_t I = 0; I < Loops.size(); ++I) {
    int Best = -1;
    size_t BestSize = 0;
    for (std::uint32_t J = 0; J < Loops.size(); ++J) {
      if (I == J || !Loops[J].contains(Loops[I].Header) ||
          Loops[J].Header == Loops[I].Header)
        continue;
      if (Best < 0 || Loops[J].Blocks.size() < BestSize) {
        Best = static_cast<int>(J);
        BestSize = Loops[J].Blocks.size();
      }
    }
    Loops[I].Parent = Best;
    if (Best >= 0)
      Loops[static_cast<std::uint32_t>(Best)].Children.push_back(I);
  }

  // Depths, top-down.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (Loop &L : Loops) {
      std::uint32_t Want =
          L.Parent < 0 ? 1
                       : Loops[static_cast<std::uint32_t>(L.Parent)].Depth + 1;
      if (L.Depth != Want) {
        L.Depth = Want;
        Changed = true;
      }
    }
  }
}

std::uint32_t LoopInfo::maxDepth() const {
  std::uint32_t Max = 0;
  for (const Loop &L : Loops)
    Max = std::max(Max, L.Depth);
  return Max;
}

std::uint32_t LoopInfo::heightOf(std::uint32_t LoopIdx) const {
  const Loop &L = Loops[LoopIdx];
  std::uint32_t Max = 0;
  for (std::uint32_t C : L.Children)
    Max = std::max(Max, heightOf(C));
  return Max + 1;
}
