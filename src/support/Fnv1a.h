//===- support/Fnv1a.h - 64-bit FNV-1a hashing ----------------------------===//
//
// The one FNV-1a of the project. Selection digests, corpus program and
// report digests and the corpus' per-template seeds all hash through it,
// so every digest frozen in a golden depends on exactly this byte order.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SUPPORT_FNV1A_H
#define JRPM_SUPPORT_FNV1A_H

#include <bit>
#include <cstdint>
#include <string_view>

namespace jrpm {

/// 64-bit FNV-1a, fed byte by byte.
class Fnv1a {
public:
  /// \p V's eight bytes, low byte first.
  void mix(std::uint64_t V) {
    for (int I = 0; I < 8; ++I)
      mixByte(static_cast<std::uint8_t>(V >> (I * 8)));
  }
  void mixDouble(double V) { mix(std::bit_cast<std::uint64_t>(V)); }
  void mixBytes(std::string_view S) {
    for (char C : S)
      mixByte(static_cast<std::uint8_t>(C));
  }
  std::uint64_t value() const { return H; }

private:
  void mixByte(std::uint8_t B) { H = (H ^ B) * 0x100000001B3ull; }

  std::uint64_t H = 0xCBF29CE484222325ull;
};

/// FNV-1a of \p Text's bytes.
inline std::uint64_t fnv1a(std::string_view Text) {
  Fnv1a F;
  F.mixBytes(Text);
  return F.value();
}

} // namespace jrpm

#endif // JRPM_SUPPORT_FNV1A_H
