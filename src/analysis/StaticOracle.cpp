//===- analysis/StaticOracle.cpp ------------------------------------------==//

#include "analysis/StaticOracle.h"

#include "analysis/CycleEstimate.h"
#include "analysis/ScalarEvolution.h"

#include <algorithm>
#include <map>
#include <vector>

using namespace jrpm;
using namespace jrpm::analysis;

const char *analysis::oracleVerdictName(OracleVerdict V) {
  switch (V) {
  case OracleVerdict::Unknown:
    return "unknown";
  case OracleVerdict::ProvablySerial:
    return "provably-serial";
  case OracleVerdict::ProvablyParallel:
    return "provably-parallel";
  }
  return "unknown";
}

namespace {

/// One heap access with its affine and alias summaries.
struct Access {
  std::uint32_t Block = 0;
  std::uint32_t Index = 0;
  bool IsStore = false;
  AffineExpr Addr;
  AliasSet Set;
};

/// True when X and Y provably never address the same heap word in any
/// iteration pair — including the same iteration, which is what makes
/// this strong enough to exclude an interfering store outright.
bool neverSameCell(const AffineExpr &X, const AffineExpr &Y) {
  if (!X.sameBase(Y))
    return false;
  if (X.IterCoeff != Y.IterCoeff)
    return false; // unequal strides can collide at some iteration pair
  std::int64_t Gap = 0;
  if (__builtin_sub_overflow(X.Const, Y.Const, &Gap) || Gap == INT64_MIN)
    return false;
  if (X.IterCoeff == 0)
    return Gap != 0;
  return Gap % X.IterCoeff != 0;
}

/// Longest intra-iteration path costs over the loop body with backedges
/// removed. Innermost loops give a DAG; anything cyclic reports failure
/// and the serial verdict is withheld.
class WindowModel {
public:
  WindowModel(const ir::Function &Fn, const Loop &Lp)
      : F(Fn), L(Lp), Named(namedLocalRegs(Fn)) {
    std::uint32_t N = static_cast<std::uint32_t>(L.Blocks.size());
    for (std::uint32_t I = 0; I < N; ++I)
      LocalId[L.Blocks[I]] = I;

    std::vector<std::vector<std::uint32_t>> Succ(N);
    std::vector<std::uint32_t> InDeg(N, 0);
    Cost.assign(N, 0);
    IsLatch.assign(N, false);
    SplitCost.assign(N, 0);
    std::vector<std::uint32_t> Targets;
    for (std::uint32_t I = 0; I < N; ++I) {
      const ir::BasicBlock &BB = F.Blocks[L.Blocks[I]];
      for (const ir::Instruction &Ins : BB.Instructions)
        Cost[I] += annotatedCostEstimate(F, Named, Ins);
      if (!BB.Instructions.empty() &&
          BB.Instructions.back().Op == ir::Opcode::CondBr)
        SplitCost[I] = staticOpCost(ir::Opcode::Br);
      Targets.clear();
      BB.appendSuccessors(Targets);
      for (std::uint32_t T : Targets) {
        if (!L.contains(T))
          continue;
        if (T == L.Header) {
          IsLatch[I] = true;
          continue;
        }
        Succ[I].push_back(LocalId.at(T));
        ++InDeg[LocalId.at(T)];
      }
    }

    // Kahn's topological order; a leftover block means a nested cycle.
    std::vector<std::uint32_t> Order;
    Order.reserve(N);
    for (std::uint32_t I = 0; I < N; ++I)
      if (InDeg[I] == 0)
        Order.push_back(I);
    for (std::uint32_t Head = 0; Head < Order.size(); ++Head)
      for (std::uint32_t S : Succ[Order[Head]])
        if (--InDeg[S] == 0)
          Order.push_back(S);
    Acyclic = Order.size() == N;
    if (!Acyclic)
      return;

    // Longest path from the header's entry to each block's entry.
    std::uint32_t HeaderId = LocalId.at(L.Header);
    HeadIn.assign(N, -1);
    HeadIn[HeaderId] = 0;
    for (std::uint32_t B : Order) {
      if (HeadIn[B] < 0)
        continue;
      for (std::uint32_t S : Succ[B])
        HeadIn[S] = std::max(HeadIn[S], HeadIn[B] + Cost[B]);
    }

    // Longest path from each block's entry to an iteration end (the eoi
    // after a latch, plus the split-block branch a conditional latch
    // pays on the way back to the header).
    TailIn.assign(N, -1);
    for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
      std::uint32_t B = *It;
      std::int64_t Cont = -1;
      if (IsLatch[B])
        Cont = StaticEoiCost + SplitCost[B];
      for (std::uint32_t S : Succ[B])
        if (TailIn[S] >= 0)
          Cont = std::max(Cont, TailIn[S]);
      if (Cont >= 0)
        TailIn[B] = Cost[B] + Cont;
    }
  }

  bool ok() const { return Acyclic; }

  /// Worst-case cycles from iteration start to the instruction at
  /// (\p Block, \p Index), that instruction included.
  bool headTo(std::uint32_t Block, std::uint32_t Index,
              std::int64_t &Out) const {
    auto It = LocalId.find(Block);
    if (It == LocalId.end() || HeadIn[It->second] < 0)
      return false;
    Out = HeadIn[It->second];
    const auto &Instrs = F.Blocks[Block].Instructions;
    for (std::uint32_t I = 0; I <= Index && I < Instrs.size(); ++I)
      Out += annotatedCostEstimate(F, Named, Instrs[I]);
    return true;
  }

  /// Worst-case cycles from the instruction at (\p Block, \p Index),
  /// that instruction included, to the end of the iteration.
  bool tailFrom(std::uint32_t Block, std::uint32_t Index,
                std::int64_t &Out) const {
    auto It = LocalId.find(Block);
    if (It == LocalId.end())
      return false;
    std::uint32_t B = It->second;
    const ir::BasicBlock &BB = F.Blocks[Block];
    std::int64_t Rest = 0;
    for (std::uint32_t I = Index; I < BB.Instructions.size(); ++I)
      Rest += annotatedCostEstimate(F, Named, BB.Instructions[I]);
    std::int64_t Cont = -1;
    if (IsLatch[B])
      Cont = StaticEoiCost + SplitCost[B];
    std::vector<std::uint32_t> Targets;
    BB.appendSuccessors(Targets);
    for (std::uint32_t T : Targets)
      if (L.contains(T) && T != L.Header && TailIn[LocalId.at(T)] >= 0)
        Cont = std::max(Cont, TailIn[LocalId.at(T)]);
    if (Cont < 0)
      return false;
    Out = Rest + Cont;
    return true;
  }

private:
  const ir::Function &F;
  const Loop &L;
  std::vector<bool> Named;
  std::map<std::uint32_t, std::uint32_t> LocalId;
  std::vector<std::int64_t> Cost;
  std::vector<bool> IsLatch;
  std::vector<std::int64_t> SplitCost;
  std::vector<std::int64_t> HeadIn, TailIn;
  bool Acyclic = false;
};

} // namespace

LoopOracleResult analysis::runStaticOracle(
    const ir::Function &F, const Loop &L, const DominatorTree &DT,
    const InductionInfo &Scalars, const AliasClasses &AC,
    const std::vector<FuncMemEffects> &Effects,
    std::uint32_t SerialArcBudget) {
  LoopOracleResult R;
  LoopScev Scev(F, L, DT, Scalars);

  bool HasAlloc = false;
  bool HasCall = false;
  bool CalleesPure = true;
  bool CalleesReadOnly = true;
  std::vector<Access> Accesses;
  for (std::uint32_t B : L.Blocks) {
    const auto &Instrs = F.Blocks[B].Instructions;
    for (std::uint32_t I = 0; I < Instrs.size(); ++I) {
      const ir::Instruction &Ins = Instrs[I];
      if (Ins.Op == ir::Opcode::Alloc) {
        HasAlloc = true;
      } else if (Ins.Op == ir::Opcode::Call) {
        HasCall = true;
        std::uint32_t Callee = static_cast<std::uint32_t>(Ins.Imm);
        if (Callee < Effects.size()) {
          CalleesPure &= Effects[Callee].pure();
          CalleesReadOnly &= Effects[Callee].readOnly();
        } else {
          CalleesPure = CalleesReadOnly = false;
        }
      }
      if (Ins.Op != ir::Opcode::Load && Ins.Op != ir::Opcode::Store)
        continue;
      Access A;
      A.Block = B;
      A.Index = I;
      A.IsStore = Ins.Op == ir::Opcode::Store;
      A.Addr = Scev.addressAt(Ins, B, I);
      A.Set = AC.addressSet(Ins.A, Ins.B);
      Accesses.push_back(std::move(A));
    }
  }

  // Pair census over store-involving pairs, the lattice the verdicts sit
  // on: affine tests first, alias classes as the fallback.
  std::uint32_t NumStores = 0;
  for (const Access &A : Accesses)
    NumStores += A.IsStore;
  bool AllIndependent = true;
  for (std::size_t I = 0; I < Accesses.size(); ++I) {
    for (std::size_t J = I + 1; J < Accesses.size(); ++J) {
      const Access &X = Accesses[I];
      const Access &Y = Accesses[J];
      if (!X.IsStore && !Y.IsStore)
        continue;
      ++R.TotalPairs;
      DepTestResult T = testWithFallback(X.Addr, Y.Addr, X.Set, Y.Set);
      switch (T.Test) {
      case DepTestKind::Ziv:
      case DepTestKind::StrongSiv:
      case DepTestKind::WeakZeroSiv:
      case DepTestKind::Gcd:
        ++R.AffinePairs;
        break;
      case DepTestKind::AliasClass:
      case DepTestKind::MayFallback:
        break;
      }
      switch (T.Outcome) {
      case DepOutcome::Independent:
        ++R.IndependentPairs;
        break;
      case DepOutcome::Carried:
        AllIndependent = false;
        break;
      case DepOutcome::May:
        ++R.MayPairs;
        AllIndependent = false;
        break;
      }
    }
  }

  // Provably-serial: see the header comment for the full proof checklist.
  if (L.Children.empty() && !HasCall && !HasAlloc && !L.Latches.empty()) {
    WindowModel Window(F, L);
    auto DominatesLatches = [&](std::uint32_t Block) {
      for (std::uint32_t Latch : L.Latches)
        if (!DT.dominates(Block, Latch))
          return false;
      return true;
    };
    for (const Access &S : Accesses) {
      if (!S.IsStore || !S.Addr.Valid || !Window.ok())
        continue;
      if (!DominatesLatches(S.Block))
        continue;
      for (const Access &Ld : Accesses) {
        if (Ld.IsStore || !Ld.Addr.Valid)
          continue;
        if (!DominatesLatches(Ld.Block))
          continue;
        if (!Scev.mustFollow(Ld.Block, Ld.Index, S.Block, S.Index))
          continue;
        if (!S.Addr.sameBase(Ld.Addr))
          continue;
        DepTestResult T = testAffinePair(S.Addr, Ld.Addr);
        if (T.Outcome != DepOutcome::Carried || !T.DistanceExact ||
            T.Distance != 1)
          continue;
        // No other store may ever touch the cell: an aliasing store
        // before the load would satisfy it within the iteration and
        // dissolve the cross-iteration arc the rejection relies on.
        bool CellExclusive = true;
        for (const Access &O : Accesses) {
          if (!O.IsStore || (O.Block == S.Block && O.Index == S.Index))
            continue;
          if (O.Set.disjointFrom(Ld.Set))
            continue;
          if (O.Addr.Valid && neverSameCell(O.Addr, Ld.Addr))
            continue;
          CellExclusive = false;
          break;
        }
        if (!CellExclusive)
          continue;
        std::int64_t Tail = 0, Head = 0;
        if (!Window.tailFrom(S.Block, S.Index, Tail) ||
            !Window.headTo(Ld.Block, Ld.Index, Head))
          continue;
        std::int64_t Cycles = Tail + Head;
        if (Cycles > SerialArcBudget)
          continue;
        if (R.Verdict != OracleVerdict::ProvablySerial ||
            Cycles < R.WindowCycles) {
          R.Verdict = OracleVerdict::ProvablySerial;
          R.Test = T.Test;
          R.Distance = 1;
          R.WindowCycles = static_cast<std::uint32_t>(Cycles);
        }
      }
    }
  }

  // Provably-parallel: every pair independent, no carried scalars beyond
  // inductors and reductions, and any calls harmless against this body.
  if (R.Verdict == OracleVerdict::Unknown && AllIndependent && !HasAlloc &&
      Scalars.OtherCarried.empty()) {
    bool CallsOk =
        !HasCall || CalleesPure || (CalleesReadOnly && NumStores == 0);
    if (CallsOk)
      R.Verdict = OracleVerdict::ProvablyParallel;
  }
  return R;
}
