//===- analysis/LoopInfo.h - Natural loop discovery ------------------------==//
//
// Finds all natural loops of a function (Section 4.1: "the compiler chooses
// potential STLs by examining a method's control-flow graph to identify all
// natural loops") and arranges them into a nesting forest.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_ANALYSIS_LOOPINFO_H
#define JRPM_ANALYSIS_LOOPINFO_H

#include "analysis/Dominators.h"
#include "ir/IR.h"

#include <cstdint>
#include <vector>

namespace jrpm {
namespace analysis {

/// One natural loop. Loops sharing a header are merged.
struct Loop {
  std::uint32_t Header = 0;
  /// Sorted block indices belonging to the loop (header included).
  std::vector<std::uint32_t> Blocks;
  /// Source blocks of backedges into the header.
  std::vector<std::uint32_t> Latches;
  /// Blocks outside the loop reached by an edge leaving the loop.
  std::vector<std::uint32_t> ExitTargets;
  /// Index of the enclosing loop in the forest, or -1 for a top-level loop.
  int Parent = -1;
  std::vector<std::uint32_t> Children;
  /// Nesting depth: 1 for top-level loops.
  std::uint32_t Depth = 1;

  bool contains(std::uint32_t Block) const;

  /// True when \p To can run after \p From within one iteration: a path of
  /// in-loop edges leads from a successor of \p From to \p To without
  /// re-entering the header. With \p To == \p From, true when \p From lies
  /// on a cycle inside one iteration (an inner loop, reducible or not).
  bool reachesInIteration(const ir::Function &F, std::uint32_t From,
                          std::uint32_t To) const;
};

/// The loop forest of one function.
class LoopInfo {
public:
  LoopInfo(const ir::Function &F, const DominatorTree &DT);

  const std::vector<Loop> &loops() const { return Loops; }

  /// Maximum nesting depth across the function (0 when there are no loops).
  std::uint32_t maxDepth() const;

  /// Number of loop levels between \p LoopIdx and its innermost descendant
  /// (1 when the loop has no children), i.e. the paper's "loop height".
  std::uint32_t heightOf(std::uint32_t LoopIdx) const;

private:
  std::vector<Loop> Loops;
};

} // namespace analysis
} // namespace jrpm

#endif // JRPM_ANALYSIS_LOOPINFO_H
