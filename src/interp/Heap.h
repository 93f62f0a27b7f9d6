//===- interp/Heap.h - Word-addressed simulated heap -----------------------==//

#ifndef JRPM_INTERP_HEAP_H
#define JRPM_INTERP_HEAP_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace jrpm {
namespace interp {

/// The simulated program heap: a flat array of 8-byte words with a bump
/// allocator. Address 0 is reserved as null; allocations are cache-line
/// (4-word) aligned so the cache and tracer models see realistic layouts.
class Heap {
public:
  Heap() : Words(FirstAddress, 0) {}

  /// Allocates \p Count words and returns the base word address.
  std::uint32_t allocWords(std::uint32_t Count) {
    std::uint32_t Base = Bump;
    std::uint32_t Padded = (Count + 3) & ~3u;
    Bump += Padded;
    if (Bump > Words.size())
      Words.resize(Bump, 0);
    return Base;
  }

  /// Whether \p Addr is a word of the heap (allocated or the null line).
  bool contains(std::uint32_t Addr) const { return Addr < Words.size(); }

  std::uint64_t load(std::uint32_t Addr) const {
    assert(contains(Addr) && "heap load out of bounds");
    return Words[Addr];
  }

  void store(std::uint32_t Addr, std::uint64_t Value) {
    assert(contains(Addr) && "heap store out of bounds");
    assert(Addr >= FirstAddress && "store to the null line");
    Words[Addr] = Value;
  }

private:
  static constexpr std::uint32_t FirstAddress = 4;
  std::vector<std::uint64_t> Words;
  std::uint32_t Bump = FirstAddress;
};

} // namespace interp
} // namespace jrpm

#endif // JRPM_INTERP_HEAP_H
