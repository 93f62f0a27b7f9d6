//===- interp/MemoryPort.h - Sequential heap access ------------------------==//
//
// The memory a sequential ExecContext::run() executes against: the heap
// plus one core's L1 timing model. A concrete class, so the interpreter's
// loads and stores inline. Speculative threads never come here: the Hydra
// TLS engine executes their loads and stores itself, against its store
// buffers and speculative tag bits.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_INTERP_MEMORYPORT_H
#define JRPM_INTERP_MEMORYPORT_H

#include "interp/Heap.h"
#include "sim/CacheModel.h"
#include "sim/Config.h"

#include <cstdint>

namespace jrpm {
namespace interp {

class DirectMemoryPort final {
public:
  DirectMemoryPort(Heap &H, const sim::HydraConfig &Cfg)
      : H(H), L1(Cfg), MissCycles(Cfg.L2HitExtraCycles) {}

  /// Loads the word at \p Addr, adding an L1 miss's latency to \p Cost.
  std::uint64_t load(std::uint32_t Addr, std::uint32_t &Cost) {
    ++Loads;
    if (!L1.access(Addr)) {
      ++Misses;
      Cost += MissCycles;
    }
    return H.load(Addr);
  }

  /// Stores \p Value to \p Addr: write-through via the write buffer, so it
  /// costs nothing beyond the instruction.
  void store(std::uint32_t Addr, std::uint64_t Value) {
    ++Stores;
    L1.access(Addr);
    H.store(Addr, Value);
  }

  std::uint32_t allocWords(std::uint32_t Count) { return H.allocWords(Count); }

  std::uint64_t loads() const { return Loads; }
  std::uint64_t stores() const { return Stores; }
  std::uint64_t misses() const { return Misses; }

private:
  Heap &H;
  sim::L1CacheModel L1;
  std::uint32_t MissCycles;
  std::uint64_t Loads = 0;
  std::uint64_t Stores = 0;
  std::uint64_t Misses = 0;
};

} // namespace interp
} // namespace jrpm

#endif // JRPM_INTERP_MEMORYPORT_H
