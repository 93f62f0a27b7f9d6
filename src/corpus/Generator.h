//===- corpus/Generator.h - Seeded structured-program generator ------------==//
//
// The shared seeded program generator: deterministic pseudo-random programs
// against the frontend DSL for property testing and corpus work. Every
// generated program terminates (constant loop bounds with a work budget),
// never traps (power-of-two-masked array indices, division by nonzero
// constants, bounded shifts), and returns an order-sensitive integer
// checksum, so sequential and speculative executions can be compared
// bit-for-bit.
//
// The fuzz suites and the corpus engine (Template.h / Variant.h) consume
// this one generator. The generation algorithm is frozen: a given seed must
// produce byte-identical modules forever, because recorded failure seeds
// (fuzz regressions, corpus repro files) reproduce from the seed alone.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_CORPUS_GENERATOR_H
#define JRPM_CORPUS_GENERATOR_H

#include "frontend/Ast.h"
#include "ir/IR.h"
#include "support/Prng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jrpm {
namespace corpus {

class ProgramGenerator {
public:
  explicit ProgramGenerator(std::uint64_t Seed) : Rng(Seed ^ 0xA5A5A5A5) {}

  ir::Module generate();

private:
  static std::string arrayName(int A) { return "arr" + std::to_string(A); }

  /// A small pure helper function over two integer parameters: a bounded
  /// mixing loop, so calls inside generated loops nest activations.
  front::FuncDef makeHelper(int Index);

  std::string freshLoopVar() { return "i" + std::to_string(NextLoopVar++); }

  front::Ex randLocal();

  /// Random integer expression of bounded depth; never traps.
  front::Ex genExpr(int Depth, const std::vector<std::string> &LoopVars);

  front::St genStmt(int Depth, std::uint64_t &Budget);

  static constexpr int NumArrays = 3;
  static constexpr std::int64_t ArraySize = 64; // power of two
  Prng Rng;
  std::vector<std::string> Locals;
  std::vector<std::string> ActiveLoopVars;
  int NextLocal = 0;
  int NextLoopVar = 0;
  int NumHelpers = 0;
};

} // namespace corpus
} // namespace jrpm

#endif // JRPM_CORPUS_GENERATOR_H
