//===- sim/CacheModel.h - Set-associative L1 timing model ------------------==//

#ifndef JRPM_SIM_CACHEMODEL_H
#define JRPM_SIM_CACHEMODEL_H

#include "sim/Config.h"
#include "support/FastDivMod.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace jrpm {
namespace sim {

/// Tag-only set-associative cache with LRU replacement, used to decide
/// whether a load hits the L1 (1 cycle) or pays the L2 penalty. The 2MB
/// on-chip L2 is modelled as always hitting: all working sets in this
/// reproduction fit comfortably within it.
///
/// Every simulated load and store of the sequential machine and of each
/// TLS core goes through access(), so the address is split into line, set
/// and tag with precomputed reciprocals (support/FastDivMod.h) instead of
/// hardware divides; any geometry hasValidCacheGeometry() accepts works,
/// not only powers of two. A set's ways sit next to each other, each tag
/// beside its LRU age.
class L1CacheModel {
public:
  explicit L1CacheModel(const HydraConfig &Cfg)
      : WordSplit(Cfg.WordsPerLine), SetSplit(Cfg.L1Lines / Cfg.L1Assoc),
        Assoc(Cfg.L1Assoc), Ways(Cfg.L1Lines) {
    assert(hasValidCacheGeometry(Cfg) && "invalid L1 geometry");
  }

  /// Touches the line containing word \p Addr; returns true on hit.
  bool access(std::uint32_t Addr) {
    std::uint32_t Line = WordSplit.div(Addr);
    std::uint64_t Tag = SetSplit.div(Line);
    Way *Set = &Ways[std::size_t(SetSplit.mod(Line)) * Assoc];
    ++Clock;
    for (std::uint32_t W = 0; W < Assoc; ++W) {
      if (Set[W].Tag == Tag) {
        Set[W].Age = Clock;
        return true;
      }
    }
    // Miss: replace the least recently used way.
    std::uint32_t Victim = 0;
    for (std::uint32_t W = 1; W < Assoc; ++W)
      if (Set[W].Age < Set[Victim].Age)
        Victim = W;
    Set[Victim] = {Tag, Clock};
    return false;
  }

private:
  static constexpr std::uint64_t EmptyTag = ~std::uint64_t(0);
  struct Way {
    std::uint64_t Tag = EmptyTag;
    std::uint64_t Age = 0;
  };
  FastDivMod WordSplit;
  FastDivMod SetSplit;
  std::uint32_t Assoc;
  std::vector<Way> Ways; ///< set-major: set S's ways start at S * Assoc
  std::uint64_t Clock = 0;
};

} // namespace sim
} // namespace jrpm

#endif // JRPM_SIM_CACHEMODEL_H
