//===- ir/Verifier.cpp ----------------------------------------------------==//

#include "ir/Verifier.h"

#include "ir/RegUse.h"
#include "support/BitVector.h"
#include "support/Format.h"

using namespace jrpm;
using namespace jrpm::ir;

namespace {

class VerifierImpl {
public:
  explicit VerifierImpl(const Module &M) : M(M) {}

  std::vector<std::string> run() {
    for (std::uint32_t F = 0; F < M.Functions.size(); ++F)
      verifyFunction(F);
    if (M.EntryFunction >= M.Functions.size())
      report("module entry function index out of range");
    return std::move(Errors);
  }

private:
  void report(std::string Message) { Errors.push_back(std::move(Message)); }

  void checkReg(const Function &F, std::uint32_t FIdx, std::uint16_t Reg,
                const char *Which, bool AllowNone) {
    if (Reg == NoReg) {
      if (!AllowNone)
        report(formatString("func %u: %s operand missing", FIdx, Which));
      return;
    }
    if (Reg >= F.NumRegs)
      report(formatString("func %u: %s register r%u out of range (%u regs)",
                          FIdx, Which, Reg, F.NumRegs));
  }

  void checkTarget(const Function &F, std::uint32_t FIdx, std::int64_t Target,
                   const char *Which) {
    if (Target < 0 || Target >= static_cast<std::int64_t>(F.numBlocks()))
      report(formatString("func %u: %s branch target %lld out of range", FIdx,
                          Which, static_cast<long long>(Target)));
  }

  void verifyFunction(std::uint32_t FIdx) {
    const Function &F = M.Functions[FIdx];
    if (F.Blocks.empty()) {
      report(formatString("func %u (%s): no blocks", FIdx, F.Name.c_str()));
      return;
    }
    if (F.NumParams > F.NumRegs)
      report(formatString("func %u: more params than registers", FIdx));

    for (std::uint32_t B = 0; B < F.numBlocks(); ++B)
      verifyBlock(F, FIdx, B);

    bool Structural = true;
    for (const BasicBlock &BB : F.Blocks)
      Structural &= BB.hasTerminator();
    if (Structural && F.NumRegs > 0) {
      verifyDefBeforeUse(F, FIdx);
      verifyTypes(F, FIdx);
    }
  }

  /// Must-defined dataflow over compiler temporaries: every temporary read
  /// must be written on *every* path from the entry to the use. Parameters
  /// arrive defined, and named locals are zero-initialised by the machine
  /// (source programs may legally read a local before assigning it), so
  /// both count as defined at entry; only unnamed temporaries — which the
  /// frontend guarantees to define right before their uses — are checked.
  ///
  /// The sets only shrink from the universal one, so sweeps intersect in
  /// place. They visit the reachable blocks in reverse post-order: the
  /// annotator appends split blocks after their successors, and in index
  /// order each of them cost one more sweep. Unreachable blocks keep the
  /// universal set, which leaves an intersection unchanged, and stay
  /// silent: dead code cannot read anything at run time.
  void verifyDefBeforeUse(const Function &F, std::uint32_t FIdx) {
    std::uint32_t N = F.numBlocks();
    std::vector<std::uint32_t> Order = F.reversePostOrder();
    std::vector<bool> Seen(N, false);
    for (std::uint32_t B : Order)
      Seen[B] = true;
    // Predecessor lists over the reachable blocks; out-of-range targets
    // were reported by verifyBlock.
    std::vector<std::vector<std::uint32_t>> Preds(N);
    std::vector<std::uint32_t> Succs;
    for (std::uint32_t B : Order) {
      Succs.clear();
      F.Blocks[B].appendSuccessors(Succs);
      for (std::uint32_t S : Succs)
        if (S < N)
          Preds[S].push_back(B);
    }

    BitVector Entry(F.NumRegs), Universe(F.NumRegs);
    for (std::uint32_t R = 0; R < F.NumRegs; ++R)
      Universe.set(R);
    for (std::uint32_t P = 0; P < F.NumParams; ++P)
      Entry.set(P);
    for (const auto &[Name, Reg] : F.NamedLocals)
      if (Reg < F.NumRegs)
        Entry.set(Reg);
    std::vector<BitVector> Gen(N, BitVector(F.NumRegs)), Out(N, Universe);
    for (std::uint32_t B : Order)
      for (const Instruction &I : F.Blocks[B].Instructions) {
        std::uint16_t D = definedReg(I);
        if (D != NoReg && D < F.NumRegs)
          Gen[B].set(D);
      }

    // The entry's set is fixed: a back edge into it brings a superset.
    BitVector In(F.NumRegs);
    auto ComputeIn = [&](std::uint32_t B) {
      In = B == 0 ? Entry : Universe;
      if (B != 0)
        for (std::uint32_t P : Preds[B])
          In.intersectWith(Out[P]);
    };
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (std::uint32_t B : Order) {
        ComputeIn(B);
        In.unionWith(Gen[B]);
        Changed |= Out[B].intersectWith(In);
      }
    }

    for (std::uint32_t B = 0; B < N; ++B) {
      if (!Seen[B])
        continue;
      ComputeIn(B);
      for (std::uint32_t Idx = 0; Idx < F.Blocks[B].Instructions.size();
           ++Idx) {
        const Instruction &I = F.Blocks[B].Instructions[Idx];
        forEachUsedReg(I, [&](std::uint16_t R) {
          if (R < F.NumRegs && !In.test(R))
            report(formatString(
                "func %u bb%u i%u: r%u may be read before any definition",
                FIdx, B, Idx, R));
        });
        std::uint16_t D = definedReg(I);
        if (D != NoReg && D < F.NumRegs)
          In.set(D);
      }
    }
  }

  /// Flow-insensitive register typing. The IR stores doubles as bit
  /// patterns in the same registers as integers, so only two definite
  /// mismatches are flagged: an integer-only register fed to a floating
  /// point operation, and a float-only register used to address memory.
  /// Mixed (reinterpreting) registers and untyped sources (loads, calls,
  /// zero constants) are left alone.
  enum class RegType : std::uint8_t { Unknown, Int, Float, Mixed };

  void verifyTypes(const Function &F, std::uint32_t FIdx) {
    std::vector<RegType> Ty(F.NumRegs, RegType::Unknown);
    auto Join = [](RegType A, RegType B) {
      if (A == RegType::Unknown || A == B)
        return B == RegType::Unknown ? A : B;
      if (B == RegType::Unknown)
        return A;
      return RegType::Mixed;
    };
    auto DefType = [&](const Instruction &I) {
      switch (I.Op) {
      case Opcode::ConstI:
        return I.Imm == 0 ? RegType::Unknown : RegType::Int;
      case Opcode::ConstF:
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FNeg:
      case Opcode::FSqrt:
      case Opcode::IToF:
        return RegType::Float;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Rem:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::AddImm:
      case Opcode::CmpEQ:
      case Opcode::CmpNE:
      case Opcode::CmpLT:
      case Opcode::CmpLE:
      case Opcode::CmpGT:
      case Opcode::CmpGE:
      case Opcode::FCmpEQ:
      case Opcode::FCmpLT:
      case Opcode::FCmpLE:
      case Opcode::FToI:
      case Opcode::Alloc:
        return RegType::Int;
      case Opcode::Mov:
        return I.A < F.NumRegs ? Ty[I.A] : RegType::Unknown;
      default:
        return RegType::Unknown; // Load, Call: untyped sources
      }
    };

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const BasicBlock &BB : F.Blocks)
        for (const Instruction &I : BB.Instructions) {
          std::uint16_t D = definedReg(I);
          if (D == NoReg || D >= F.NumRegs)
            continue;
          RegType New = Join(Ty[D], DefType(I));
          if (New != Ty[D]) {
            Ty[D] = New;
            Changed = true;
          }
        }
    }

    auto CheckFloatUse = [&](std::uint16_t R, std::uint32_t B,
                             const char *Which) {
      if (R != NoReg && R < F.NumRegs && Ty[R] == RegType::Int)
        report(formatString(
            "func %u bb%u: integer register r%u used as %s operand", FIdx, B,
            R, Which));
    };
    auto CheckAddrUse = [&](std::uint16_t R, std::uint32_t B,
                            const char *Which) {
      if (R != NoReg && R < F.NumRegs && Ty[R] == RegType::Float)
        report(formatString(
            "func %u bb%u: float register r%u used as %s operand", FIdx, B, R,
            Which));
    };

    for (std::uint32_t B = 0; B < F.numBlocks(); ++B)
      for (const Instruction &I : F.Blocks[B].Instructions)
        switch (I.Op) {
        case Opcode::FAdd:
        case Opcode::FSub:
        case Opcode::FMul:
        case Opcode::FDiv:
        case Opcode::FCmpEQ:
        case Opcode::FCmpLT:
        case Opcode::FCmpLE:
          CheckFloatUse(I.A, B, "float");
          CheckFloatUse(I.B, B, "float");
          break;
        case Opcode::FNeg:
        case Opcode::FSqrt:
        case Opcode::FToI:
          CheckFloatUse(I.A, B, "float");
          break;
        case Opcode::Load:
        case Opcode::Store:
          CheckAddrUse(I.A, B, "address base");
          CheckAddrUse(I.B, B, "address index");
          break;
        case Opcode::Alloc:
          CheckAddrUse(I.A, B, "allocation size");
          break;
        default:
          break;
        }
  }

  void verifyBlock(const Function &F, std::uint32_t FIdx, std::uint32_t B) {
    const BasicBlock &BB = F.Blocks[B];
    if (!BB.hasTerminator()) {
      report(formatString("func %u bb%u: missing terminator", FIdx, B));
      return;
    }
    std::int64_t PendingArgSlot = 0;
    for (std::uint32_t Idx = 0; Idx < BB.Instructions.size(); ++Idx) {
      const Instruction &I = BB.Instructions[Idx];
      bool Last = Idx + 1 == BB.Instructions.size();
      if (isTerminator(I.Op) && !Last)
        report(formatString("func %u bb%u: terminator mid-block", FIdx, B));

      if (I.Op == Opcode::Arg) {
        if (I.Imm != PendingArgSlot)
          report(formatString("func %u bb%u: arg slot %lld out of order", FIdx,
                              B, static_cast<long long>(I.Imm)));
        ++PendingArgSlot;
        checkReg(F, FIdx, I.A, "arg", false);
        continue;
      }
      if (I.Op == Opcode::Call) {
        if (I.Imm < 0 ||
            I.Imm >= static_cast<std::int64_t>(M.Functions.size())) {
          report(formatString("func %u bb%u: call target out of range", FIdx,
                              B));
        } else {
          const Function &Callee = M.Functions[static_cast<size_t>(I.Imm)];
          if (PendingArgSlot != Callee.NumParams)
            report(formatString(
                "func %u bb%u: call to %s passes %lld args, expects %u", FIdx,
                B, Callee.Name.c_str(),
                static_cast<long long>(PendingArgSlot), Callee.NumParams));
        }
        checkReg(F, FIdx, I.Dst, "call dst", true);
        PendingArgSlot = 0;
        continue;
      }
      // Annotation instructions are observers and may be interleaved with
      // an Arg...Call sequence (the annotator marks locals used as call
      // arguments); anything else between args and their call is an error.
      if (PendingArgSlot != 0 && I.Op != Opcode::Arg && !isAnnotation(I.Op))
        report(formatString("func %u bb%u: args not followed by call", FIdx,
                            B));

      switch (I.Op) {
      case Opcode::Br:
        checkTarget(F, FIdx, I.Imm, "br");
        break;
      case Opcode::CondBr:
        checkReg(F, FIdx, I.A, "condbr cond", false);
        checkTarget(F, FIdx, I.Imm, "condbr true");
        checkTarget(F, FIdx, I.Imm2, "condbr false");
        break;
      case Opcode::Ret:
        checkReg(F, FIdx, I.A, "ret", true);
        break;
      case Opcode::Load:
        checkReg(F, FIdx, I.Dst, "load dst", false);
        checkReg(F, FIdx, I.A, "load base", true);
        checkReg(F, FIdx, I.B, "load index", true);
        break;
      case Opcode::Store:
        checkReg(F, FIdx, I.Dst, "store value", false);
        checkReg(F, FIdx, I.A, "store base", true);
        checkReg(F, FIdx, I.B, "store index", true);
        break;
      case Opcode::ConstI:
      case Opcode::ConstF:
        checkReg(F, FIdx, I.Dst, "const dst", false);
        break;
      case Opcode::Alloc:
        checkReg(F, FIdx, I.Dst, "alloc dst", false);
        checkReg(F, FIdx, I.A, "alloc size", true);
        break;
      case Opcode::Mov:
      case Opcode::FNeg:
      case Opcode::FSqrt:
      case Opcode::IToF:
      case Opcode::FToI:
      case Opcode::AddImm:
        checkReg(F, FIdx, I.Dst, "unary dst", false);
        checkReg(F, FIdx, I.A, "unary src", false);
        break;
      case Opcode::SLoop:
      case Opcode::Eoi:
      case Opcode::ELoop:
      case Opcode::ReadStats:
      case Opcode::Nop:
        break;
      case Opcode::LwlAnno:
      case Opcode::SwlAnno:
        checkReg(F, FIdx, I.A, "local annotation", false);
        break;
      default:
        // Remaining opcodes are three-address arithmetic/compares.
        checkReg(F, FIdx, I.Dst, "dst", false);
        checkReg(F, FIdx, I.A, "lhs", false);
        checkReg(F, FIdx, I.B, "rhs", false);
        break;
      }
    }
    if (PendingArgSlot != 0)
      report(formatString("func %u bb%u: dangling args at block end", FIdx,
                          B));
  }

  const Module &M;
  std::vector<std::string> Errors;
};

} // namespace

std::vector<std::string> ir::verifyModule(const Module &M) {
  return VerifierImpl(M).run();
}
