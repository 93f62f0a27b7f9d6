//===- ir/IR.h - BasicBlock, Function, Module -----------------------------===//
//
// Container classes for the mini IR. A Function owns a vector of basic
// blocks; each block holds straight-line instructions ended by exactly one
// terminator. Branch targets are block indices within the function.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_IR_IR_H
#define JRPM_IR_IR_H

#include "ir/Instruction.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace jrpm {
namespace ir {

/// A straight-line sequence of instructions ending in a terminator.
class BasicBlock {
public:
  std::vector<Instruction> Instructions;

  bool hasTerminator() const {
    return !Instructions.empty() && isTerminator(Instructions.back().Op);
  }

  const Instruction &terminator() const {
    assert(hasTerminator() && "block has no terminator");
    return Instructions.back();
  }

  /// Appends the successor block indices of this block to \p Out.
  void appendSuccessors(std::vector<std::uint32_t> &Out) const;
};

/// A function: a CFG of basic blocks over a flat file of virtual registers
/// (the analog of a Java method's locals). Parameters arrive in registers
/// [0, NumParams).
class Function {
public:
  std::string Name;
  std::uint32_t NumParams = 0;
  std::uint32_t NumRegs = 0;
  std::vector<BasicBlock> Blocks;

  /// Registers that correspond to source-level named locals (set by the
  /// frontend). Only these are eligible for `lwl`/`swl` annotations; the
  /// compiler's expression temporaries never carry loop dependencies
  /// (Section 5.1: "block-local and temporary variables are not annotated").
  std::vector<std::pair<std::string, std::uint16_t>> NamedLocals;

  std::uint32_t numBlocks() const {
    return static_cast<std::uint32_t>(Blocks.size());
  }

  /// Computes the predecessor lists of every block.
  std::vector<std::vector<std::uint32_t>> computePredecessors() const;

  /// Returns the blocks reachable from the entry in reverse post-order of
  /// a depth-first search. Out-of-range branch targets are not followed.
  std::vector<std::uint32_t> reversePostOrder() const;
};

/// A whole program: functions plus the designated entry function.
class Module {
public:
  std::vector<Function> Functions;
  std::uint32_t EntryFunction = 0;

  /// Returns the index of the function named \p Name, or -1 if absent.
  int findFunction(const std::string &Name) const;

  /// Assigns module-global PCs to every instruction. Must be called after
  /// all passes that insert or remove instructions and before execution.
  void finalize();

  /// Total number of instructions across all functions (valid after
  /// finalize()).
  std::uint32_t totalInstructions() const { return NextPc; }

  /// Renders the module as text.
  std::string dump() const;

private:
  std::uint32_t NextPc = 0;
};

} // namespace ir
} // namespace jrpm

#endif // JRPM_IR_IR_H
