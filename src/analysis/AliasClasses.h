//===- analysis/AliasClasses.h - Conservative allocation-site aliasing -----==//
//
// Flow-insensitive, intraprocedural points-to analysis over the bump
// allocator's Alloc sites. Every register is summarised by the set of
// allocation sites its value may be derived from; registers whose value can
// come from memory, calls, or parameters are Unknown. Two memory accesses
// whose address registers resolve to disjoint, fully known site sets can
// never touch the same heap word — the only "no alias" answer the
// dependence analysis trusts.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_ANALYSIS_ALIASCLASSES_H
#define JRPM_ANALYSIS_ALIASCLASSES_H

#include "ir/IR.h"
#include "support/BitVector.h"

#include <cstdint>
#include <vector>

namespace jrpm {
namespace analysis {

/// What a register's value may point into. `Unknown` subsumes everything;
/// otherwise `Sites` lists the Alloc instructions (by site id) the value
/// can be derived from. An empty, non-Unknown set means "provably not
/// derived from any allocation" (a pure scalar).
struct AliasSet {
  bool Unknown = false;
  BitVector Sites;

  bool disjointFrom(const AliasSet &Other) const;
};

/// Allocation-site points-to sets for one function.
class AliasClasses {
public:
  explicit AliasClasses(const ir::Function &F);

  /// The combined points-to set of an address formed from base registers
  /// \p A and \p B (either may be ir::NoReg). If neither register carries a
  /// known site, the address is treated as Unknown: an absolute address can
  /// land anywhere in the word-addressed heap.
  AliasSet addressSet(std::uint16_t A, std::uint16_t B) const;

private:
  std::uint32_t NumSites = 0;
  std::vector<AliasSet> Sets;
};

} // namespace analysis
} // namespace jrpm

#endif // JRPM_ANALYSIS_ALIASCLASSES_H
