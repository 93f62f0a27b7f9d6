//===- analysis/Liveness.h - Backward register liveness --------------------==//

#ifndef JRPM_ANALYSIS_LIVENESS_H
#define JRPM_ANALYSIS_LIVENESS_H

#include "ir/IR.h"
#include "support/BitVector.h"

#include <vector>

namespace jrpm {
namespace analysis {

/// Classic backward may-liveness over virtual registers.
class Liveness {
public:
  explicit Liveness(const ir::Function &F);

  /// Registers live on entry to \p Block.
  const BitVector &liveIn(std::uint32_t Block) const { return LiveIn[Block]; }

private:
  std::vector<BitVector> LiveIn;
};

} // namespace analysis
} // namespace jrpm

#endif // JRPM_ANALYSIS_LIVENESS_H
