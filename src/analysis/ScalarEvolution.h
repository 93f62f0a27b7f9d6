//===- analysis/ScalarEvolution.h - Affine evolution of loop scalars -------==//
//
// Symbolic stride analysis over one innermost loop: expresses register
// values and effective addresses as affine functions of the iteration
// counter,
//
//   value(i) = Const + sum_r Coeff[r] * sym(r) + IterCoeff * i
//
// where every sym(r) is the (unknown but fixed) value of a loop-invariant
// register — or, for a basic inductor, its value on loop entry — and i
// counts completed iterations from 0. The builder walks the in-loop def
// chains (constants, moves, add/sub, multiply and shift by constants,
// inductor steps) and refuses anything else: conditional definitions,
// carried scalars, values escaping through memory, and any coefficient
// arithmetic that could wrap 64-bit signed range all yield the invalid
// form, so a Valid AffineExpr is a proof, not a guess.
//
// Positioning matters for inductors: the same register reads as
// base + step*i before its update and base + step*(i+1) after it. The
// builder resolves the use site against the update site (recorded by
// analyzeLoopScalars) with the function's dominator tree, and bails when
// the relative order is path-dependent. For two blocks of one natural loop
// function dominance is exactly intra-iteration dominance: every path into
// the loop passes the header, and no path re-enters the body except
// through it, so the part of a path after its last header visit decides.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_ANALYSIS_SCALAREVOLUTION_H
#define JRPM_ANALYSIS_SCALAREVOLUTION_H

#include "analysis/Dominators.h"
#include "analysis/InductionInfo.h"
#include "analysis/LoopInfo.h"
#include "ir/IR.h"

#include <cstdint>
#include <map>
#include <vector>

namespace jrpm {
namespace analysis {

/// An affine form over the loop's iteration counter. `Symbols` maps a
/// register to its coefficient; a key that is a loop invariant denotes the
/// register's (constant) value, a key that is a basic inductor denotes its
/// value on loop entry. Invalid means "not provably affine".
struct AffineExpr {
  bool Valid = false;
  std::int64_t Const = 0;
  std::int64_t IterCoeff = 0;
  std::map<std::uint16_t, std::int64_t> Symbols;

  /// Two affine forms are comparable when their symbolic parts agree; the
  /// difference is then the constant/stride gap alone.
  bool sameBase(const AffineExpr &O) const {
    return Valid && O.Valid && Symbols == O.Symbols;
  }
};

/// Affine scalar evolution of one innermost loop.
class LoopScev {
public:
  LoopScev(const ir::Function &F, const Loop &L, const DominatorTree &DT,
           const InductionInfo &Scalars);

  /// Affine form of the value \p Reg holds when read by the instruction at
  /// (\p Block, \p Index) inside the loop. ir::NoReg reads as zero.
  AffineExpr valueAt(std::uint16_t Reg, std::uint32_t Block,
                     std::uint32_t Index) const;

  /// Affine form of the effective address R[A]+R[B]+Imm of the memory
  /// access at (\p Block, \p Index).
  AffineExpr addressAt(const ir::Instruction &I, std::uint32_t Block,
                       std::uint32_t Index) const;

  /// True when the instruction at (DefB, DefI) is guaranteed to have
  /// executed before (UseB, UseI) runs within the same iteration.
  bool mustFollow(std::uint32_t DefB, std::uint32_t DefI, std::uint32_t UseB,
                  std::uint32_t UseI) const;

private:
  AffineExpr valueAtImpl(std::uint16_t Reg, std::uint32_t Block,
                         std::uint32_t Index, unsigned Depth) const;

  const ir::Function &F;
  const Loop &L;
  const DominatorTree &DT;
  const InductionInfo &Scalars;
  /// Per register: in-loop definition sites (at most the first two kept).
  std::map<std::uint16_t, std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      DefsIn;
};

/// Checked i64 helpers shared with the dependence tests: false on wrap.
bool affineAdd(std::int64_t A, std::int64_t B, std::int64_t &Out);
bool affineMul(std::int64_t A, std::int64_t B, std::int64_t &Out);

} // namespace analysis
} // namespace jrpm

#endif // JRPM_ANALYSIS_SCALAREVOLUTION_H
