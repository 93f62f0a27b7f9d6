//===- support/FastDivMod.h - Divide-free division by a runtime constant ---==//
//
// The simulators split word addresses into (line, word) and lines into
// (tag, set) on every simulated memory access, with a geometry that is only
// known at configuration time, so the compiler cannot strength-reduce those
// divides itself. FastDivMod precomputes a reciprocal once per geometry.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SUPPORT_FASTDIVMOD_H
#define JRPM_SUPPORT_FASTDIVMOD_H

#include <cassert>
#include <cstdint>

namespace jrpm {

/// Exact 32-bit division and modulo by a runtime divisor without a divide
/// instruction (the Lemire/Kaser/Kurz reciprocal: M = ceil(2^64 / D) makes
/// both operations a pair of multiplies, exact for every 32-bit operand
/// and every divisor, not only powers of two).
class FastDivMod {
public:
  explicit FastDivMod(std::uint32_t Divisor = 1)
      : D(Divisor), M(Divisor > 1 ? ~std::uint64_t(0) / Divisor + 1 : 0) {
    assert(Divisor > 0 && "division by zero");
  }

  std::uint32_t div(std::uint32_t N) const {
    if (D == 1)
      return N;
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(M) * N) >> 64);
  }

  std::uint32_t mod(std::uint32_t N) const {
    if (D == 1)
      return 0;
    std::uint64_t Low = M * N;
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(Low) * D) >> 64);
  }

private:
  std::uint32_t D;
  std::uint64_t M;
};

} // namespace jrpm

#endif // JRPM_SUPPORT_FASTDIVMOD_H
