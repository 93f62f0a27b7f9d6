//===- ir/IRBuilder.h - Convenience construction of IR --------------------===//

#ifndef JRPM_IR_IRBUILDER_H
#define JRPM_IR_IRBUILDER_H

#include "ir/IR.h"

namespace jrpm {
namespace ir {

/// Builds functions instruction by instruction. The builder tracks a current
/// function and insertion block; register numbers are handed out on demand.
class IRBuilder {
public:
  explicit IRBuilder(Module &M) : M(M) {}

  /// Starts a new function and makes its entry block current. Parameters
  /// occupy registers [0, NumParams). Returns the function index.
  std::uint32_t createFunction(const std::string &Name,
                               std::uint32_t NumParams);

  /// Switches insertion to an existing function (and its given block).
  void setFunction(std::uint32_t FuncIndex, std::uint32_t BlockIndex = 0);

  Function &function() { return M.Functions[FuncIndex]; }
  std::uint32_t currentBlock() const { return BlockIndex; }

  /// Allocates a fresh virtual register.
  std::uint16_t newReg();

  /// Creates a new empty basic block; insertion point is unchanged.
  std::uint32_t newBlock();

  /// Moves the insertion point to \p Block.
  void setBlock(std::uint32_t Block);

  /// Appends \p I to the current block and returns a reference to it.
  Instruction &emit(const Instruction &I);

  // Typed emit helpers. Each returns the destination register where one
  // exists.
  std::uint16_t emitBinary(Opcode Op, std::uint16_t A, std::uint16_t B);
  void emitBinaryInto(Opcode Op, std::uint16_t Dst, std::uint16_t A,
                      std::uint16_t B);
  void emitAddImmInto(std::uint16_t Dst, std::uint16_t A, std::int64_t Imm);
  std::uint16_t emitConstI(std::int64_t Value);
  std::uint16_t emitConstF(double Value);
  void emitConstIInto(std::uint16_t Dst, std::int64_t Value);
  void emitMov(std::uint16_t Dst, std::uint16_t Src);

  /// Load from heap[R[Base] + R[Index] + Offset]; either register may be
  /// NoReg.
  std::uint16_t emitLoad(std::uint16_t Base, std::uint16_t Index,
                         std::int64_t Offset);
  void emitLoadInto(std::uint16_t Dst, std::uint16_t Base, std::uint16_t Index,
                    std::int64_t Offset);
  void emitStore(std::uint16_t Value, std::uint16_t Base, std::uint16_t Index,
                 std::int64_t Offset);

  void emitBr(std::uint32_t Target);
  void emitCondBr(std::uint16_t Cond, std::uint32_t TrueTarget,
                  std::uint32_t FalseTarget);
  void emitRet(std::uint16_t Value = NoReg);

  /// Calls function #Callee with \p Args; returns the result register (or
  /// NoReg for void calls when \p WantResult is false).
  std::uint16_t emitCall(std::uint32_t Callee,
                         const std::vector<std::uint16_t> &Args,
                         bool WantResult = true);

private:
  Module &M;
  std::uint32_t FuncIndex = 0;
  std::uint32_t BlockIndex = 0;
};

} // namespace ir
} // namespace jrpm

#endif // JRPM_IR_IRBUILDER_H
