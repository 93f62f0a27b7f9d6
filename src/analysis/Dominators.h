//===- analysis/Dominators.h - Dominator tree computation ------------------==//

#ifndef JRPM_ANALYSIS_DOMINATORS_H
#define JRPM_ANALYSIS_DOMINATORS_H

#include "ir/IR.h"

#include <cstdint>
#include <vector>

namespace jrpm {
namespace analysis {

/// Immediate-dominator tree of a function's CFG, computed with the
/// Cooper-Harvey-Kennedy iterative algorithm over reverse postorder.
class DominatorTree {
public:
  explicit DominatorTree(const ir::Function &F);

  /// Returns the immediate dominator of \p Block (the entry block's idom is
  /// itself). Unreachable blocks report themselves.
  std::uint32_t idom(std::uint32_t Block) const { return Idom[Block]; }

  /// Returns true if \p A dominates \p B (reflexive).
  bool dominates(std::uint32_t A, std::uint32_t B) const;

  /// Returns true if \p Block is reachable from the entry.
  bool isReachable(std::uint32_t Block) const { return Reachable[Block]; }

private:
  std::vector<std::uint32_t> Idom;
  std::vector<std::uint32_t> Depth;
  std::vector<bool> Reachable;
};

} // namespace analysis
} // namespace jrpm

#endif // JRPM_ANALYSIS_DOMINATORS_H
