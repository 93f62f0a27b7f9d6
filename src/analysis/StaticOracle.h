//===- analysis/StaticOracle.h - Static speculation oracle -----------------==//
//
// Per-loop static verdicts built on the affine dependence tests
// (DepTest.h): the static counterpart of the dynamic TEST selector.
//
//   provably-serial    the loop carries a distance-1 memory recurrence —
//                      every iteration reloads, before its own store, a
//                      cell the previous iteration stored — and the whole
//                      store-to-reload window fits inside the Hydra
//                      forwarding budget. The speedup model can never
//                      value such a loop above 1x, so profiling it is
//                      wasted work and the pre-filter may reject it.
//   provably-parallel  every cross-iteration access pair is proven
//                      independent, carried scalars beyond inductors and
//                      reductions are absent, and calls (if any) are pure
//                      or read-only against a store-free body: a compiler
//                      could parallelise the loop outright.
//   unknown            everything else; only dynamic tracing can tell.
//
// Verdicts feed the flag-gated static pre-filter (AnalysisOptions::
// AffineOracle) and the jrpm-lint diagnostics. A provably-serial verdict
// is a rejection promise — the conformance harness holds it to a hard
// zero-false-rejection bar against dynamic TEST — so every condition
// below is there to keep the proof airtight:
//
//   - the loop is innermost and free of calls and allocations (a call of
//     statically unknown length would invalidate the cycle window);
//   - store and load execute in every iteration (they intra-iteration
//     dominate every latch) with the load strictly before the store;
//   - both addresses are affine over the same symbolic base and the
//     store-to-load iteration distance is exactly +1;
//   - no other store in the loop can ever touch the cell (alias-disjoint,
//     or affine over the same base with no integer collision distance);
//   - the longest intra-iteration path from the store to any latch end
//     plus the path from the header to the load, profiling annotations
//     included, fits the forwarding budget.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_ANALYSIS_STATICORACLE_H
#define JRPM_ANALYSIS_STATICORACLE_H

#include "analysis/AliasClasses.h"
#include "analysis/DepTest.h"
#include "analysis/Dominators.h"
#include "analysis/InductionInfo.h"
#include "analysis/LoopInfo.h"
#include "ir/IR.h"

#include <cstdint>
#include <vector>

namespace jrpm {
namespace analysis {

/// The oracle's verdict on one loop.
enum class OracleVerdict : std::uint8_t {
  Unknown,
  ProvablySerial,
  ProvablyParallel,
};

/// Returns a short stable name for \p V (tables, JSON).
const char *oracleVerdictName(OracleVerdict V);

/// One loop's oracle result, with enough detail for diagnostics.
struct LoopOracleResult {
  OracleVerdict Verdict = OracleVerdict::Unknown;
  /// The test that proved the serial recurrence (Ziv or StrongSiv);
  /// MayFallback for non-serial verdicts.
  DepTestKind Test = DepTestKind::MayFallback;
  /// Proven store-to-load iteration distance (serial verdicts only).
  std::int64_t Distance = 0;
  /// Worst-case store-to-reload cycle window (serial verdicts only).
  std::uint32_t WindowCycles = 0;
  /// Access-pair census over store-involving pairs.
  std::uint32_t TotalPairs = 0;
  std::uint32_t IndependentPairs = 0;
  std::uint32_t AffinePairs = 0; ///< pairs decided by an affine test
  std::uint32_t MayPairs = 0;
};

/// Runs the oracle on loop \p L of \p F, whose dominator tree is \p DT.
/// \p Effects are the module-wide per-function memory summaries
/// (computeMemEffects); \p SerialArcBudget is the forwarding-delay bar a
/// serial window must fit (cycles).
LoopOracleResult runStaticOracle(const ir::Function &F, const Loop &L,
                                 const DominatorTree &DT,
                                 const InductionInfo &Scalars,
                                 const AliasClasses &AC,
                                 const std::vector<FuncMemEffects> &Effects,
                                 std::uint32_t SerialArcBudget);

} // namespace analysis
} // namespace jrpm

#endif // JRPM_ANALYSIS_STATICORACLE_H
