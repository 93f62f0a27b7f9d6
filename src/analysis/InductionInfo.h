//===- analysis/InductionInfo.h - Inductors, reductions, carried scalars ---==//
//
// Scalar analysis of one loop (Section 4.1): recognises loop inductors
// (`r = r + c` once per iteration) and sum reductions, and classifies the
// remaining loop-carried scalars. "Loop inductors, which are dependencies
// that can be eliminated by the compiler, are ignored so that potentially
// parallel loops are not overlooked." Each inductor's update site is
// recorded here, so the passes that position a use against the update ask
// this analysis instead of rescanning the loop body.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_ANALYSIS_INDUCTIONINFO_H
#define JRPM_ANALYSIS_INDUCTIONINFO_H

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"

#include <cstdint>
#include <map>
#include <vector>

namespace jrpm {
namespace analysis {

/// The kind of reduction a register participates in.
enum class ReductionKind { SumInt, SumFloat };

/// A basic inductor: its only in-loop definition is `r = r + Step` at
/// (Block, Index), and that block runs exactly once per iteration.
struct BasicInductor {
  std::int64_t Step = 0;
  std::uint32_t Block = 0;
  std::uint32_t Index = 0;
};

/// Scalar classification of one loop's registers.
struct InductionInfo {
  /// Basic inductors: register -> step and update site.
  std::map<std::uint16_t, BasicInductor> Inductors;
  /// Sum reductions: register -> kind.
  std::map<std::uint16_t, ReductionKind> Reductions;
  /// Loop-carried registers that are neither inductors nor reductions.
  std::vector<std::uint16_t> OtherCarried;
  /// Registers live into the loop header but never defined inside the loop
  /// (loop invariants; register-allocated by the TLS compiler). Ascending.
  std::vector<std::uint16_t> Invariants;

  /// True when \p Reg is a loop invariant or ir::NoReg (no register reads
  /// as the constant zero).
  bool isInvariant(std::uint16_t Reg) const;
};

/// Computes the scalar classification of loop \p L.
InductionInfo analyzeLoopScalars(const ir::Function &F, const Loop &L,
                                 const DominatorTree &DT,
                                 const Liveness &LV);

} // namespace analysis
} // namespace jrpm

#endif // JRPM_ANALYSIS_INDUCTIONINFO_H
