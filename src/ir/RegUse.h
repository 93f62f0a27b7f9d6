//===- ir/RegUse.h - Per-instruction register use/def ----------------------==//
//
// Opcode-aware register use/def queries over single instructions. These
// live at the IR layer (rather than in analysis) so the verifier and the
// annotation linter can reason about data flow without a layering cycle.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_IR_REGUSE_H
#define JRPM_IR_REGUSE_H

#include "ir/Instruction.h"

namespace jrpm {
namespace ir {

/// Calls \p Fn for every register \p I reads. Annotation opcodes are
/// observers and report no uses.
template <typename FnT> void forEachUsedReg(const Instruction &I, FnT Fn) {
  switch (I.Op) {
  case Opcode::Store:
    if (I.Dst != NoReg)
      Fn(I.Dst); // the stored value
    if (I.A != NoReg)
      Fn(I.A);
    if (I.B != NoReg)
      Fn(I.B);
    return;
  case Opcode::CondBr:
  case Opcode::Arg:
    Fn(I.A);
    return;
  case Opcode::Ret:
    if (I.A != NoReg)
      Fn(I.A);
    return;
  case Opcode::Br:
  case Opcode::ConstI:
  case Opcode::ConstF:
  case Opcode::Call:
  case Opcode::SLoop:
  case Opcode::Eoi:
  case Opcode::ELoop:
  case Opcode::LwlAnno:
  case Opcode::SwlAnno:
  case Opcode::ReadStats:
  case Opcode::Nop:
    return;
  default:
    if (I.A != NoReg)
      Fn(I.A);
    if (I.B != NoReg)
      Fn(I.B);
    return;
  }
}

/// Returns the register \p I defines, or NoReg.
inline std::uint16_t definedReg(const Instruction &I) {
  if (!definesDst(I.Op))
    return NoReg;
  return I.Dst;
}

} // namespace ir
} // namespace jrpm

#endif // JRPM_IR_REGUSE_H
