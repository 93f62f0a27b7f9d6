//===- analysis/ScalarEvolution.cpp ---------------------------------------==//

#include "analysis/ScalarEvolution.h"

#include "ir/RegUse.h"

#include <algorithm>

using namespace jrpm;
using namespace jrpm::analysis;

bool analysis::affineAdd(std::int64_t A, std::int64_t B, std::int64_t &Out) {
  return !__builtin_add_overflow(A, B, &Out);
}

bool analysis::affineMul(std::int64_t A, std::int64_t B, std::int64_t &Out) {
  return !__builtin_mul_overflow(A, B, &Out);
}

namespace {

const AffineExpr Invalid = {};

AffineExpr constant(std::int64_t C) {
  AffineExpr E;
  E.Valid = true;
  E.Const = C;
  return E;
}

AffineExpr symbol(std::uint16_t Reg) {
  AffineExpr E;
  E.Valid = true;
  E.Symbols[Reg] = 1;
  return E;
}

/// X + Scale * Y with wrap guards on every coefficient combination.
AffineExpr combine(const AffineExpr &X, const AffineExpr &Y,
                   std::int64_t Scale) {
  if (!X.Valid || !Y.Valid)
    return Invalid;
  AffineExpr Out = X;
  std::int64_t Term = 0;
  if (!affineMul(Y.Const, Scale, Term) ||
      !affineAdd(Out.Const, Term, Out.Const))
    return Invalid;
  if (!affineMul(Y.IterCoeff, Scale, Term) ||
      !affineAdd(Out.IterCoeff, Term, Out.IterCoeff))
    return Invalid;
  for (const auto &[Reg, Coeff] : Y.Symbols) {
    if (!affineMul(Coeff, Scale, Term))
      return Invalid;
    std::int64_t &Slot = Out.Symbols[Reg];
    if (!affineAdd(Slot, Term, Slot))
      return Invalid;
    if (Slot == 0)
      Out.Symbols.erase(Reg);
  }
  return Out;
}

/// X scaled by a compile-time constant.
AffineExpr scale(const AffineExpr &X, std::int64_t By) {
  AffineExpr Zero = constant(0);
  return combine(Zero, X, By);
}

constexpr unsigned MaxDepth = 16;

} // namespace

LoopScev::LoopScev(const ir::Function &Fn, const Loop &Lp,
                   const DominatorTree &Dt, const InductionInfo &Sc)
    : F(Fn), L(Lp), DT(Dt), Scalars(Sc) {
  // Definition sites (keep two per register: one is the interesting case,
  // more than one disqualifies the temp path anyway).
  for (std::uint32_t B : L.Blocks) {
    const auto &Instrs = F.Blocks[B].Instructions;
    for (std::uint32_t I = 0; I < Instrs.size(); ++I) {
      std::uint16_t D = ir::definedReg(Instrs[I]);
      if (D == ir::NoReg)
        continue;
      auto &Sites = DefsIn[D];
      if (Sites.size() < 2)
        Sites.push_back({B, I});
    }
  }
}

bool LoopScev::mustFollow(std::uint32_t DefB, std::uint32_t DefI,
                          std::uint32_t UseB, std::uint32_t UseI) const {
  if (DefB == UseB)
    return DefI < UseI;
  return DT.dominates(DefB, UseB);
}

AffineExpr LoopScev::valueAt(std::uint16_t Reg, std::uint32_t Block,
                             std::uint32_t Index) const {
  return valueAtImpl(Reg, Block, Index, 0);
}

AffineExpr LoopScev::valueAtImpl(std::uint16_t Reg, std::uint32_t Block,
                                 std::uint32_t Index, unsigned Depth) const {
  if (Reg == ir::NoReg)
    return constant(0);
  if (Depth > MaxDepth)
    return Invalid;

  // Loop invariant: a fixed symbolic value.
  if (Scalars.isInvariant(Reg))
    return symbol(Reg);

  // Basic inductor: entry value + step * i, plus one step once the use is
  // provably past the update. A path-dependent position is not affine.
  auto IndIt = Scalars.Inductors.find(Reg);
  if (IndIt != Scalars.Inductors.end()) {
    const BasicInductor &Up = IndIt->second;
    AffineExpr E = symbol(Reg);
    E.IterCoeff = Up.Step;
    if (mustFollow(Up.Block, Up.Index, Block, Index)) {
      if (!affineAdd(E.Const, Up.Step, E.Const))
        return Invalid;
      return E;
    }
    // Not past the update in its own block: only a path leaving the
    // update's block can still put the use after it.
    return L.reachesInIteration(F, Up.Block, Block) ? Invalid : E;
  }

  // Carried reductions and other carried scalars: not affine.
  if (Scalars.Reductions.count(Reg) ||
      std::find(Scalars.OtherCarried.begin(), Scalars.OtherCarried.end(),
                Reg) != Scalars.OtherCarried.end())
    return Invalid;

  // Iteration-local temporary: a single in-loop definition that must have
  // executed before the use, with affine-combinable operands.
  auto DefIt = DefsIn.find(Reg);
  if (DefIt == DefsIn.end() || DefIt->second.size() != 1)
    return Invalid;
  auto [DB, DI] = DefIt->second.front();
  if (!mustFollow(DB, DI, Block, Index))
    return Invalid;
  const ir::Instruction &Def = F.Blocks[DB].Instructions[DI];
  switch (Def.Op) {
  case ir::Opcode::ConstI:
    return constant(Def.Imm);
  case ir::Opcode::Mov:
    return valueAtImpl(Def.A, DB, DI, Depth + 1);
  case ir::Opcode::AddImm:
    return combine(valueAtImpl(Def.A, DB, DI, Depth + 1), constant(Def.Imm),
                   1);
  case ir::Opcode::Add:
    return combine(valueAtImpl(Def.A, DB, DI, Depth + 1),
                   valueAtImpl(Def.B, DB, DI, Depth + 1), 1);
  case ir::Opcode::Sub:
    return combine(valueAtImpl(Def.A, DB, DI, Depth + 1),
                   valueAtImpl(Def.B, DB, DI, Depth + 1), -1);
  case ir::Opcode::Mul: {
    AffineExpr A = valueAtImpl(Def.A, DB, DI, Depth + 1);
    AffineExpr B = valueAtImpl(Def.B, DB, DI, Depth + 1);
    if (A.Valid && A.IterCoeff == 0 && A.Symbols.empty())
      return scale(B, A.Const);
    if (B.Valid && B.IterCoeff == 0 && B.Symbols.empty())
      return scale(A, B.Const);
    return Invalid;
  }
  case ir::Opcode::Shl: {
    AffineExpr A = valueAtImpl(Def.A, DB, DI, Depth + 1);
    AffineExpr B = valueAtImpl(Def.B, DB, DI, Depth + 1);
    if (B.Valid && B.IterCoeff == 0 && B.Symbols.empty() && B.Const >= 0 &&
        B.Const < 62)
      return scale(A, std::int64_t(1) << B.Const);
    return Invalid;
  }
  default:
    return Invalid;
  }
}

AffineExpr LoopScev::addressAt(const ir::Instruction &I, std::uint32_t Block,
                               std::uint32_t Index) const {
  AffineExpr E = combine(valueAtImpl(I.A, Block, Index, 0),
                         valueAtImpl(I.B, Block, Index, 0), 1);
  return combine(E, constant(I.Imm), 1);
}
