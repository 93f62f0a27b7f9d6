//===- analysis/MemDep.h - Loop-carried memory dependence analysis ---------==//
//
// Static memory dependence analysis over the mini IR, the compile-time
// counterpart of the TEST tracer's dynamic arc measurement: def-use chains
// over registers (reaching definitions), allocation-site alias classes
// (AliasClasses.h), and per-natural-loop classification of cross-iteration
// RAW/WAR/WAW dependences between heap accesses.
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
#include "support/BitVector.h"

#include <cstdint>
#include <vector>

namespace jrpm {
namespace analysis {

/// One register definition site.
struct DefSite {
  std::uint32_t Block = 0;
  std::uint32_t Index = 0; // instruction index within the block
  std::uint16_t Reg = 0;
};

/// Reaching definitions over virtual registers: for any use, the set of
/// definition sites whose value may still be live there.
class DefUseChains {
public:
  explicit DefUseChains(const ir::Function &F);

  const std::vector<DefSite> &defSites() const { return Sites; }

  /// Definition sites of \p Reg that may reach the use at instruction
  /// \p Index of \p Block. Function parameters reach as an implicit site
  /// not listed here; `mayReadParam` reports that case.
  std::vector<std::uint32_t> reachingDefs(std::uint32_t Block,
                                          std::uint32_t Index,
                                          std::uint16_t Reg) const;

  /// True if the use may still observe the register's initial (parameter
  /// or zero-initialised) value.
  bool mayReadParam(std::uint32_t Block, std::uint32_t Index,
                    std::uint16_t Reg) const;

private:
  BitVector liveSitesAt(std::uint32_t Block, std::uint32_t Index,
                        bool &ParamReaches, std::uint16_t Reg) const;

  const ir::Function &F;
  std::vector<DefSite> Sites;
  std::vector<std::vector<std::uint32_t>> SitesOfReg; // reg -> site ids
  std::vector<BitVector> In;    // per block: sites reaching block entry
  std::vector<bool> ParamIn;    // per block x reg flattened: initial value
};

/// One heap access inside a loop.
struct MemAccess {
  std::uint32_t Block = 0;
  std::uint32_t Index = 0;
  bool IsStore = false;
  std::uint16_t BaseA = ir::NoReg;
  std::uint16_t BaseB = ir::NoReg;
  std::int64_t Offset = 0;
};

/// Kind of a cross-iteration dependence. A store/load pair over a fixed
/// cell realises both the flow (RAW) and anti (WAR) direction depending on
/// which iteration runs first, so such pairs are reported under Raw. `May`
/// marks pairs the analysis cannot separate.
enum class DepKind : std::uint8_t { Raw, War, Waw, May };

/// Returns a short stable name for \p Kind (tables, JSON).
const char *depKindName(DepKind Kind);

/// One classified cross-iteration dependence between two accesses.
struct CarriedDep {
  DepKind Kind = DepKind::May;
  MemAccess Src; // the store (for Raw/War); either access for May/Waw
  MemAccess Dst;
  /// Iteration distance when known, 0 when unknown/any.
  std::int64_t Distance = 0;
};

/// The pre-filter's target shape: see file comment.
struct SerialRecurrence {
  bool Found = false;
  std::uint16_t BaseA = ir::NoReg;
  std::uint16_t BaseB = ir::NoReg;
  std::int64_t Offset = 0;
  std::uint32_t LoadBlock = 0, LoadIndex = 0;
  std::uint32_t StoreBlock = 0, StoreIndex = 0; // representative latch store
  /// Worst-case profiled cycles from the latch store to the next
  /// iteration's header reload, annotation overheads included.
  std::uint32_t WindowCycles = 0;
};

/// Memory dependence summary of one natural loop.
struct LoopMemDep {
  std::vector<CarriedDep> Carried;
  std::uint32_t NumRaw = 0, NumWar = 0, NumWaw = 0, NumMay = 0;
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
