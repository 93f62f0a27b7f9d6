//===- analysis/MemDep.cpp ------------------------------------------------==//

#include "analysis/MemDep.h"

#include "analysis/CycleEstimate.h"

#include <algorithm>
#include <utility>

using namespace jrpm;
using namespace jrpm::analysis;

namespace {

/// One heap access inside a loop: heap word R[BaseA] + R[BaseB] + Offset.
struct MemAccess {
  std::uint32_t Block = 0;
  std::uint32_t Index = 0;
  bool IsStore = false;
  std::uint16_t BaseA = ir::NoReg;
  std::uint16_t BaseB = ir::NoReg;
  std::int64_t Offset = 0;
};

/// Normalised unordered register pair of an address.
std::pair<std::uint16_t, std::uint16_t> regPair(std::uint16_t A,
                                                std::uint16_t B) {
  return A <= B ? std::make_pair(A, B) : std::make_pair(B, A);
}

enum class PairVerdict { Independent, Carried, May };

} // namespace

MemDepAnalysis::MemDepAnalysis(const ir::Function &F, const LoopInfo &LI,
                               const std::vector<InductionInfo> &Scalars)
    : AC(F) {
  Deps.resize(LI.loops().size());
  for (std::uint32_t L = 0; L < LI.loops().size(); ++L)
    analyzeLoop(F, LI.loops()[L], Scalars[L], Deps[L]);
}

void MemDepAnalysis::analyzeLoop(const ir::Function &F, const Loop &L,
                                 const InductionInfo &Scalars,
                                 LoopMemDep &Out) {
  std::vector<MemAccess> Accesses;
  for (std::uint32_t B : L.Blocks) {
    const auto &Instrs = F.Blocks[B].Instructions;
    for (std::uint32_t I = 0; I < Instrs.size(); ++I) {
      const ir::Instruction &Ins = Instrs[I];
      if (Ins.Op == ir::Opcode::Call)
        Out.HasCall = true;
      else if (Ins.Op == ir::Opcode::Alloc)
        Out.HasAlloc = true;
      if (Ins.Op != ir::Opcode::Load && Ins.Op != ir::Opcode::Store)
        continue;
      MemAccess A;
      A.Block = B;
      A.Index = I;
      A.IsStore = Ins.Op == ir::Opcode::Store;
      A.BaseA = Ins.A;
      A.BaseB = Ins.B;
      A.Offset = Ins.Imm;
      Accesses.push_back(A);
      if (A.IsStore)
        ++Out.NumStores;
      else
        ++Out.NumLoads;
    }
  }

  // Whether an access can execute after the inductor update within the
  // same iteration, where the register already holds the next value.
  auto MayRunAfter = [&](const BasicInductor &Update, const MemAccess &A) {
    if (A.Block == Update.Block)
      return A.Index > Update.Index;
    return L.reachesInIteration(F, Update.Block, A.Block);
  };

  auto Classify = [&](const MemAccess &X, const MemAccess &Y) {
    AliasSet AX = AC.addressSet(X.BaseA, X.BaseB);
    AliasSet AY = AC.addressSet(Y.BaseA, Y.BaseB);
    if (AX.disjointFrom(AY))
      return PairVerdict::Independent;

    if (regPair(X.BaseA, X.BaseB) != regPair(Y.BaseA, Y.BaseB))
      return PairVerdict::May;

    if (Scalars.isInvariant(X.BaseA) && Scalars.isInvariant(X.BaseB)) {
      if (X.Offset == Y.Offset)
        return PairVerdict::Carried; // the same fixed cell every iteration
      return PairVerdict::Independent;
    }

    // One shared inductor, remaining register invariant: the address walks
    // by the step each iteration, so the offset gap decides everything.
    std::uint16_t Ind = ir::NoReg;
    bool OtherInvariant = true;
    for (std::uint16_t R : {X.BaseA, X.BaseB}) {
      if (R == ir::NoReg)
        continue;
      if (Scalars.Inductors.count(R)) {
        if (Ind != ir::NoReg && Ind != R)
          return PairVerdict::May; // two inductors: out of scope
        Ind = R;
      } else if (!Scalars.isInvariant(R)) {
        OtherInvariant = false;
      }
    }
    if (Ind == ir::NoReg || !OtherInvariant)
      return PairVerdict::May;
    const BasicInductor &Update = Scalars.Inductors.at(Ind);
    if (Update.Step == 0)
      return PairVerdict::May;
    std::int64_t Gap = X.Offset - Y.Offset;
    if (Gap % Update.Step != 0)
      return PairVerdict::Independent; // the address lattices never meet
    // A zero gap is the same cell only within one iteration, provided
    // neither access can land on the far side of the inductor update,
    // where the register already holds the next iteration's value.
    if (Gap == 0 && !MayRunAfter(Update, X) && !MayRunAfter(Update, Y))
      return PairVerdict::Independent;
    return PairVerdict::Carried;
  };

  for (std::size_t I = 0; I < Accesses.size(); ++I) {
    for (std::size_t J = I + 1; J < Accesses.size(); ++J) {
      const MemAccess &X = Accesses[I];
      const MemAccess &Y = Accesses[J];
      if (!X.IsStore && !Y.IsStore)
        continue;
      switch (Classify(X, Y)) {
      case PairVerdict::Independent:
        ++Out.IndependentPairs;
        break;
      case PairVerdict::Carried:
        ++(X.IsStore && Y.IsStore ? Out.NumWaw : Out.NumRaw);
        break;
      case PairVerdict::May:
        ++Out.NumMay;
        break;
      }
    }
  }

  Out.ProvablyParallel = Out.NumRaw == 0 && Out.NumWaw == 0 &&
                         Out.NumMay == 0 && !Out.HasCall &&
                         Scalars.OtherCarried.empty();

  if (L.Children.empty() && !Out.HasCall && !Out.HasAlloc)
    findSerialRecurrence(F, L, Scalars, Out);
}

void MemDepAnalysis::findSerialRecurrence(const ir::Function &F, const Loop &L,
                                          const InductionInfo &Scalars,
                                          LoopMemDep &Out) {
  if (L.Latches.empty())
    return;
  std::vector<bool> Named = namedLocalRegs(F);
  auto AnnotatedCost = [&](const ir::Instruction &I) {
    return annotatedCostEstimate(F, Named, I);
  };

  auto ExactCell = [&](const ir::Instruction &I, const MemAccess &Cell) {
    return regPair(I.A, I.B) == regPair(Cell.BaseA, Cell.BaseB) &&
           I.Imm == Cell.Offset;
  };
  auto MayAliasCell = [&](const ir::Instruction &I, const MemAccess &Cell,
                          const AliasSet &CellSet) {
    AliasSet S = AC.addressSet(I.A, I.B);
    if (S.disjointFrom(CellSet))
      return false;
    // Same invariant address registers, different offset: a distinct cell.
    if (regPair(I.A, I.B) == regPair(Cell.BaseA, Cell.BaseB) &&
        Scalars.isInvariant(I.A) && Scalars.isInvariant(I.B) &&
        I.Imm != Cell.Offset)
      return false;
    return true;
  };

  const auto &Header = F.Blocks[L.Header].Instructions;

  // Candidate cells: invariant-addressed stores in the first latch.
  const auto &Latch0 = F.Blocks[L.Latches[0]].Instructions;
  for (std::uint32_t SI = 0; SI < Latch0.size(); ++SI) {
    const ir::Instruction &Seed = Latch0[SI];
    if (Seed.Op != ir::Opcode::Store || !Scalars.isInvariant(Seed.A) ||
        !Scalars.isInvariant(Seed.B))
      continue;
    MemAccess Cell;
    Cell.BaseA = Seed.A;
    Cell.BaseB = Seed.B;
    Cell.Offset = Seed.Imm;
    AliasSet CellSet = AC.addressSet(Cell.BaseA, Cell.BaseB);

    // The reload: a header load of exactly this cell with no possibly
    // aliasing store before it — an earlier same-thread store would
    // swallow the cross-iteration arc the rejection argument relies on.
    std::int64_t LoadIdx = -1;
    std::uint32_t HeadCost = 0;
    for (std::uint32_t HI = 0; HI < Header.size(); ++HI) {
      const ir::Instruction &I = Header[HI];
      HeadCost += AnnotatedCost(I);
      if (I.Op == ir::Opcode::Store && MayAliasCell(I, Cell, CellSet))
        break;
      if (I.Op == ir::Opcode::Load && ExactCell(I, Cell)) {
        LoadIdx = HI;
        break;
      }
    }
    if (LoadIdx < 0)
      continue;

    // Every latch must end its iteration with a store to the cell; the
    // window tail is the worst case across latches. Later aliasing stores
    // are harmless — they only move the arc's source closer to the load.
    bool AllLatches = true;
    std::uint32_t WorstTail = 0;
    std::uint32_t RepBlock = 0, RepIndex = 0;
    for (std::uint32_t Latch : L.Latches) {
      const auto &Instrs = F.Blocks[Latch].Instructions;
      std::int64_t Last = -1;
      for (std::uint32_t I = 0; I < Instrs.size(); ++I)
        if (Instrs[I].Op == ir::Opcode::Store && ExactCell(Instrs[I], Cell))
          Last = I;
      if (Last < 0) {
        AllLatches = false;
        break;
      }
      std::uint32_t Tail = 0;
      for (std::uint32_t I = static_cast<std::uint32_t>(Last);
           I < Instrs.size(); ++I)
        Tail += AnnotatedCost(Instrs[I]);
      Tail += StaticEoiCost;
      // A conditional latch gets its eoi in a split block with its own
      // branch back to the header.
      if (Instrs.back().Op == ir::Opcode::CondBr)
        Tail += staticOpCost(ir::Opcode::Br);
      WorstTail = std::max(WorstTail, Tail);
      if (Latch == L.Latches[0]) {
        RepBlock = Latch;
        RepIndex = static_cast<std::uint32_t>(Last);
      }
    }
    if (!AllLatches)
      continue;

    std::uint32_t Window = WorstTail + HeadCost;
    if (!Out.Serial.Found || Window < Out.Serial.WindowCycles) {
      Out.Serial.Found = true;
      Out.Serial.LoadBlock = L.Header;
      Out.Serial.LoadIndex = static_cast<std::uint32_t>(LoadIdx);
      Out.Serial.StoreBlock = RepBlock;
      Out.Serial.StoreIndex = RepIndex;
      Out.Serial.WindowCycles = Window;
    }
  }
}
