//===- support/BitVector.h - Dense bit vector ------------------------------==//

#ifndef JRPM_SUPPORT_BITVECTOR_H
#define JRPM_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace jrpm {

/// Fixed-size dense bit vector with the set operations the dataflow
/// analyses need.
class BitVector {
public:
  BitVector() = default;
  explicit BitVector(std::uint32_t Size)
      : NumBits(Size), Words((Size + 63) / 64, 0) {}

  std::uint32_t size() const { return NumBits; }

  bool test(std::uint32_t Bit) const {
    assert(Bit < NumBits && "bit out of range");
    return (Words[Bit / 64] >> (Bit % 64)) & 1;
  }

  void set(std::uint32_t Bit) {
    assert(Bit < NumBits && "bit out of range");
    Words[Bit / 64] |= (std::uint64_t(1) << (Bit % 64));
  }

  void reset(std::uint32_t Bit) {
    assert(Bit < NumBits && "bit out of range");
    Words[Bit / 64] &= ~(std::uint64_t(1) << (Bit % 64));
  }

  void clear() {
    for (std::uint64_t &W : Words)
      W = 0;
  }

  /// this |= Other. Returns true if any bit changed.
  bool unionWith(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "size mismatch");
    bool Changed = false;
    for (std::size_t I = 0; I < Words.size(); ++I) {
      std::uint64_t Old = Words[I];
      Words[I] |= Other.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// this &= Other. Returns true if any bit changed.
  bool intersectWith(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "size mismatch");
    bool Changed = false;
    for (std::size_t I = 0; I < Words.size(); ++I) {
      std::uint64_t Old = Words[I];
      Words[I] &= Other.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// this &= ~Other.
  void subtract(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "size mismatch");
    for (std::size_t I = 0; I < Words.size(); ++I)
      Words[I] &= ~Other.Words[I];
  }

  bool operator==(const BitVector &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

  std::uint32_t count() const {
    std::uint32_t Total = 0;
    for (std::uint64_t W : Words)
      Total += static_cast<std::uint32_t>(__builtin_popcountll(W));
    return Total;
  }

private:
  std::uint32_t NumBits = 0;
  std::vector<std::uint64_t> Words;
};

} // namespace jrpm

#endif // JRPM_SUPPORT_BITVECTOR_H
