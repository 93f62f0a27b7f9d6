//===- exec/CodeImage.h - Flattened, pre-decoded execution image -----------==//
//
// The nested ir::Module layout (Functions -> Blocks -> Instructions over
// std::vector) is ideal for the analysis and transformation passes but
// costs the interpreters a three-level pointer chase per simulated
// instruction. A CodeImage is compiled once per module: every function's
// blocks are flattened into one contiguous DecodedInst array addressed by
// an absolute flat program counter, branch and call targets are resolved
// to flat PCs at build time, and per-block / per-function metadata moves
// into dense side tables consulted only at control-flow boundaries. The
// hot loop of ExecContext is then a single indexed load plus an indirect
// jump on the opcode tag.
//
// Flattening is purely a layout change: instruction order, operand fields
// and the tracer's module-global Pc values are preserved exactly, so every
// consumer (sequential machine, Hydra TLS cores, tracer event emission)
// behaves bit-identically to the nested layout.
//
// An interp::Machine compiles the module it runs into one image and owns
// it. The machine's context and the cores of a Hydra TLS engine bound to
// the machine run on that image, and the engine installs each globalized
// loop clone into it with appendFunction(). An append lays out one
// function after the existing ones, so every flat PC handed out before it
// stays valid.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_EXEC_CODEIMAGE_H
#define JRPM_EXEC_CODEIMAGE_H

#include "ir/IR.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace jrpm {
namespace exec {

/// Absolute instruction index into a CodeImage. For a finalized module the
/// flat PC of an instruction equals its ir::Instruction::Pc (both number
/// instructions in function/block order), but the image does not rely on
/// the module having been finalized.
using FlatPc = std::uint32_t;

/// One pre-decoded instruction. Field meaning matches ir::Instruction
/// except that control-flow targets are resolved to flat PCs:
///   Br:     Imm  = target flat PC
///   CondBr: Imm  = taken flat PC, Imm2 = fall-through flat PC
///   Call:   Imm  = callee function index (entry PC via FuncDesc)
/// Everything else keeps its original operands. Pc is the module-global
/// tracer PC copied verbatim so event emission is unchanged.
struct DecodedInst {
  ir::Opcode Op = ir::Opcode::Nop;
  std::uint8_t Flags = 0;
  std::uint16_t Dst = ir::NoReg;
  std::uint16_t A = ir::NoReg;
  std::uint16_t B = ir::NoReg;
  std::int64_t Imm = 0;
  std::int32_t Imm2 = 0;
  std::int32_t Pc = -1;

  static constexpr std::uint8_t BlockStartFlag = 1;
  bool isBlockStart() const { return Flags & BlockStartFlag; }
};
static_assert(sizeof(DecodedInst) == 24, "hot struct stays 24 bytes");

/// Word address a Load or Store accesses: Imm plus the optional A and B
/// registers of \p Regs, truncated to the 32-bit heap address space.
inline std::uint32_t effectiveAddress(const DecodedInst &I,
                                      const std::uint64_t *Regs) {
  std::uint64_t Ea = static_cast<std::uint64_t>(I.Imm);
  if (I.A != ir::NoReg)
    Ea += Regs[I.A];
  if (I.B != ir::NoReg)
    Ea += Regs[I.B];
  return static_cast<std::uint32_t>(Ea);
}

/// Per-block metadata (cold; consulted at control-flow boundaries only).
struct BlockDesc {
  FlatPc StartPc = 0;
  std::uint32_t NumInsts = 0;
  std::uint32_t Func = 0;
  std::uint32_t BlockInFunc = 0;
};

/// Per-function metadata: entry PC plus the frame geometry the Call path
/// needs, in one compact record instead of the full ir::Function.
struct FuncDesc {
  FlatPc EntryPc = 0;
  std::uint32_t NumRegs = 0;
  std::uint32_t NumParams = 0;
  std::uint32_t FirstBlock = 0; ///< global block ordinal of block 0
  std::uint32_t NumBlocks = 0;
};

class CodeImage {
public:
  /// Compiles \p M into a flat image: appendFunction() over its functions
  /// in order.
  explicit CodeImage(const ir::Module &M);

  /// Lays out and decodes \p F after the existing functions and returns
  /// its function index. Existing flat PCs do not move, but the
  /// instruction array may reallocate, so insts() pointers go stale. Every
  /// block must carry a terminator (the IR verifier's contract); violations
  /// abort.
  std::uint32_t appendFunction(const ir::Function &F);

  // --- Hot-path access ----------------------------------------------------
  const DecodedInst *insts() const { return Insts.data(); }
  std::uint32_t numInsts() const {
    return static_cast<std::uint32_t>(Insts.size());
  }
  const DecodedInst &inst(FlatPc Pc) const {
    assert(Pc < Insts.size() && "flat PC out of range");
    return Insts[Pc];
  }
  bool isBlockStart(FlatPc Pc) const { return inst(Pc).isBlockStart(); }

  const FuncDesc &func(std::uint32_t F) const {
    assert(F < Funcs.size() && "function index out of range");
    return Funcs[F];
  }
  std::uint32_t numFuncs() const {
    return static_cast<std::uint32_t>(Funcs.size());
  }

  // --- Cold metadata (control-flow boundaries, diagnostics) ---------------
  const BlockDesc &blockDesc(std::uint32_t GlobalBlock) const {
    assert(GlobalBlock < Blocks.size() && "block ordinal out of range");
    return Blocks[GlobalBlock];
  }
  std::uint32_t numBlocks() const {
    return static_cast<std::uint32_t>(Blocks.size());
  }
  /// Global block ordinal containing \p Pc.
  std::uint32_t blockOrdinalOf(FlatPc Pc) const {
    assert(Pc < InstBlock.size() && "flat PC out of range");
    return InstBlock[Pc];
  }
  const BlockDesc &blockAt(FlatPc Pc) const {
    return Blocks[blockOrdinalOf(Pc)];
  }
  std::uint32_t funcOf(FlatPc Pc) const { return blockAt(Pc).Func; }
  std::uint32_t blockOf(FlatPc Pc) const { return blockAt(Pc).BlockInFunc; }

  /// Flat PC of the first instruction of \p Block in \p Func.
  FlatPc blockStart(std::uint32_t Func, std::uint32_t Block) const {
    const FuncDesc &F = func(Func);
    assert(Block < F.NumBlocks && "block index out of range");
    return Blocks[F.FirstBlock + Block].StartPc;
  }
  FlatPc entry(std::uint32_t Func) const { return func(Func).EntryPc; }

private:
  std::vector<DecodedInst> Insts;
  std::vector<std::uint32_t> InstBlock; ///< global block ordinal per PC
  std::vector<BlockDesc> Blocks;
  std::vector<FuncDesc> Funcs;
};

} // namespace exec
} // namespace jrpm

#endif // JRPM_EXEC_CODEIMAGE_H
