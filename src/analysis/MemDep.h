//===- analysis/MemDep.h - Loop-carried memory dependence analysis ---------==//
//
// Static memory dependence analysis over the mini IR, the compile-time
// counterpart of the TEST tracer's dynamic arc measurement: allocation-site
// alias classes (AliasClasses.h) and, per natural loop, counts of the
// cross-iteration heap access pairs that are independent, carried (RAW or
// WAW) or possibly dependent.
//
// Address algebra: an access reads/writes heap word R[A] + R[B] + Imm.
// Two accesses over the same unordered register pair compare exactly:
//   - all regs loop-invariant:   same cell iff the immediates match;
//   - one shared basic inductor (step s), rest invariant: the address gap
//     is (Imm1 - Imm2) plus a multiple of s, so the accesses collide in
//     some iteration pair iff s divides the immediate gap.
// Everything else falls back to the alias classes, and to "may depend"
// when those cannot separate the accesses.
//
// The analysis also detects the *serial memory recurrence* shape used by
// the static pre-filter: a store to one loop-invariant cell in every latch
// whose value is reloaded at the top of the header, with so few cycles
// between store and reload that the resulting inter-thread arc can never
// beat the Hydra store-to-load communication delay. Such a loop is as
// serial as memory can make it.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_ANALYSIS_MEMDEP_H
#define JRPM_ANALYSIS_MEMDEP_H

#include "analysis/AliasClasses.h"
#include "analysis/InductionInfo.h"
#include "analysis/LoopInfo.h"
#include "ir/IR.h"

#include <cstdint>
#include <vector>

namespace jrpm {
namespace analysis {

/// The pre-filter's target shape: see file comment.
struct SerialRecurrence {
  bool Found = false;
  std::uint32_t LoadBlock = 0, LoadIndex = 0;
  std::uint32_t StoreBlock = 0, StoreIndex = 0; // representative latch store
  /// Worst-case profiled cycles from the latch store to the next
  /// iteration's header reload, annotation overheads included.
  std::uint32_t WindowCycles = 0;
};

/// Memory dependence summary of one natural loop.
struct LoopMemDep {
  /// Cross-iteration pairs by verdict. A store/load pair over one cell
  /// realises both the flow and the anti direction depending on which
  /// iteration runs first; it counts once, under Raw. Waw counts
  /// store/store pairs, May the pairs the analysis cannot separate.
  std::uint32_t NumRaw = 0, NumWaw = 0, NumMay = 0;
  /// Cross-iteration pairs proven independent (the static win).
  std::uint32_t IndependentPairs = 0;
  std::uint32_t NumLoads = 0, NumStores = 0;
  bool HasCall = false;
  bool HasAlloc = false;
  /// No carried or may memory dependences, no carried scalars beyond
  /// inductors/reductions, and no calls: a compiler could parallelise this
  /// loop outright, no speculation needed.
  bool ProvablyParallel = false;
  SerialRecurrence Serial;
};

/// Memory dependence analysis of one function, per natural loop.
class MemDepAnalysis {
public:
  MemDepAnalysis(const ir::Function &F, const LoopInfo &LI,
                 const std::vector<InductionInfo> &Scalars);

  const LoopMemDep &loopDep(std::uint32_t LoopIdx) const {
    return Deps[LoopIdx];
  }
  const AliasClasses &aliases() const { return AC; }

private:
  void analyzeLoop(const ir::Function &F, const Loop &L,
                   const InductionInfo &Scalars, LoopMemDep &Out);
  void findSerialRecurrence(const ir::Function &F, const Loop &L,
                            const InductionInfo &Scalars, LoopMemDep &Out);

  AliasClasses AC;
  std::vector<LoopMemDep> Deps;
};

} // namespace analysis
} // namespace jrpm

#endif // JRPM_ANALYSIS_MEMDEP_H
