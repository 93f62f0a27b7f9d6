//===- frontend/Lower.cpp -------------------------------------------------==//

#include "frontend/Lower.h"

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/Compiler.h"

#include <map>

using namespace jrpm;
using namespace jrpm::front;

namespace {

class FunctionLowering {
public:
  FunctionLowering(ir::IRBuilder &Builder,
                   const std::map<std::string, std::uint32_t> &FuncIndex)
      : B(Builder), FuncIndex(FuncIndex) {}

  void run(const FuncDef &Def) {
    for (std::uint32_t P = 0; P < Def.Params.size(); ++P)
      defineLocal(Def.Params[P], static_cast<std::uint16_t>(P));
    lowerStmt(Def.Body);
    // Fall-through return for functions whose body does not end in ret.
    if (!B.function().Blocks[B.currentBlock()].hasTerminator())
      B.emitRet();
  }

private:
  struct LoopContext {
    std::uint32_t ContinueBlock;
    std::uint32_t BreakBlock;
  };

  void defineLocal(const std::string &Name, std::uint16_t Reg) {
    Locals[Name] = Reg;
    B.function().NamedLocals.emplace_back(Name, Reg);
  }

  std::uint16_t localReg(const std::string &Name, bool DefineIfMissing) {
    auto It = Locals.find(Name);
    if (It != Locals.end())
      return It->second;
    if (!DefineIfMissing) {
      std::fprintf(stderr, "lowering %s: unknown local '%s'\n",
                   B.function().Name.c_str(), Name.c_str());
      std::abort();
    }
    std::uint16_t Reg = B.newReg();
    defineLocal(Name, Reg);
    return Reg;
  }

  std::uint16_t lowerExpr(const Ex &E) {
    const ExprNode &N = E.node();
    // Locals read in place; everything else goes through a temporary.
    if (N.Kind == ExKind::Local)
      return localReg(N.Name, /*DefineIfMissing=*/false);
    std::uint16_t Dst = B.newReg();
    lowerExprInto(E, Dst);
    return Dst;
  }

  void lowerExprInto(const Ex &E, std::uint16_t Dst) {
    const ExprNode &N = E.node();
    switch (N.Kind) {
    case ExKind::ConstInt:
      B.emitConstIInto(Dst, N.IntValue);
      return;
    case ExKind::ConstFloat: {
      ir::Instruction I;
      I.Op = ir::Opcode::ConstF;
      I.Dst = Dst;
      I.Imm = static_cast<std::int64_t>(
          std::bit_cast<std::uint64_t>(N.FloatValue));
      B.emit(I);
      return;
    }
    case ExKind::Local:
      B.emitMov(Dst, localReg(N.Name, false));
      return;
    case ExKind::Binary: {
      // `x + smallConst` lowers to the iinc-style immediate form so that
      // induction analysis sees `AddImm r, r, c` patterns.
      const ExprNode &L = N.Operands[0].node();
      const ExprNode &R = N.Operands[1].node();
      if (N.Op == ir::Opcode::Add && R.Kind == ExKind::ConstInt) {
        std::uint16_t A = lowerExpr(N.Operands[0]);
        B.emitAddImmInto(Dst, A, R.IntValue);
        return;
      }
      if (N.Op == ir::Opcode::Sub && R.Kind == ExKind::ConstInt) {
        std::uint16_t A = lowerExpr(N.Operands[0]);
        B.emitAddImmInto(Dst, A, -R.IntValue);
        return;
      }
      if (N.Op == ir::Opcode::Add && L.Kind == ExKind::ConstInt) {
        std::uint16_t A = lowerExpr(N.Operands[1]);
        B.emitAddImmInto(Dst, A, L.IntValue);
        return;
      }
      std::uint16_t A = lowerExpr(N.Operands[0]);
      std::uint16_t Rhs = lowerExpr(N.Operands[1]);
      B.emitBinaryInto(N.Op, Dst, A, Rhs);
      return;
    }
    case ExKind::Unary: {
      ir::Instruction I;
      I.Op = N.Op;
      I.Dst = Dst;
      I.A = lowerExpr(N.Operands[0]);
      B.emit(I);
      return;
    }
    case ExKind::Load: {
      std::uint16_t Base = lowerExpr(N.Operands[0]);
      std::uint16_t Index =
          N.Operands.size() > 1 ? lowerExpr(N.Operands[1]) : ir::NoReg;
      B.emitLoadInto(Dst, Base, Index, N.Offset);
      return;
    }
    case ExKind::Call: {
      auto It = FuncIndex.find(N.Name);
      if (It == FuncIndex.end()) {
        std::fprintf(stderr, "lowering %s: unknown function '%s'\n",
                     B.function().Name.c_str(), N.Name.c_str());
        std::abort();
      }
      std::vector<std::uint16_t> Args;
      Args.reserve(N.Operands.size());
      for (const Ex &Arg : N.Operands)
        Args.push_back(lowerExpr(Arg));
      // emitCall wants a fresh Dst; emit then move.
      std::uint16_t Result = B.emitCall(It->second, Args);
      B.emitMov(Dst, Result);
      return;
    }
    case ExKind::Alloc: {
      std::uint16_t Size = lowerExpr(N.Operands[0]);
      ir::Instruction I;
      I.Op = ir::Opcode::Alloc;
      I.Dst = Dst;
      I.A = Size;
      B.emit(I);
      return;
    }
    }
    JRPM_UNREACHABLE("unknown expression kind");
  }

  void lowerStmtList(const std::vector<St> &List) {
    for (const St &S : List)
      lowerStmt(S);
  }

  /// Lowers \p S into the current block; may create blocks and leaves the
  /// builder positioned at the fall-through block.
  void lowerStmt(const St &S) {
    const StmtNode &N = S.node();
    switch (N.Kind) {
    case StKind::Seq:
      lowerStmtList(N.Body);
      return;
    case StKind::Assign: {
      // Pre-registering the destination keeps `i = i + 1` a single AddImm
      // on one register, which induction analysis depends on.
      std::uint16_t Dst = localReg(N.Name, /*DefineIfMissing=*/true);
      lowerExprInto(N.Value, Dst);
      return;
    }
    case StKind::Store: {
      std::uint16_t Value = lowerExpr(N.Value);
      std::uint16_t Base = lowerExpr(N.Base);
      std::uint16_t Index = N.Index.valid() ? lowerExpr(N.Index) : ir::NoReg;
      B.emitStore(Value, Base, Index, N.Offset);
      return;
    }
    case StKind::If: {
      std::uint16_t Cond = lowerExpr(N.Cond);
      std::uint32_t ThenBlock = B.newBlock();
      std::uint32_t JoinBlock = B.newBlock();
      std::uint32_t ElseBlock = N.Else.empty() ? JoinBlock : B.newBlock();
      B.emitCondBr(Cond, ThenBlock, ElseBlock);
      B.setBlock(ThenBlock);
      lowerStmtList(N.Body);
      if (!B.function().Blocks[B.currentBlock()].hasTerminator())
        B.emitBr(JoinBlock);
      if (!N.Else.empty()) {
        B.setBlock(ElseBlock);
        lowerStmtList(N.Else);
        if (!B.function().Blocks[B.currentBlock()].hasTerminator())
          B.emitBr(JoinBlock);
      }
      B.setBlock(JoinBlock);
      return;
    }
    case StKind::While: {
      std::uint32_t Header = B.newBlock();
      std::uint32_t Body = B.newBlock();
      std::uint32_t Exit = B.newBlock();
      B.emitBr(Header);
      B.setBlock(Header);
      std::uint16_t Cond = lowerExpr(N.Cond);
      B.emitCondBr(Cond, Body, Exit);
      Loops.push_back({Header, Exit});
      B.setBlock(Body);
      lowerStmtList(N.Body);
      if (!B.function().Blocks[B.currentBlock()].hasTerminator())
        B.emitBr(Header);
      Loops.pop_back();
      B.setBlock(Exit);
      return;
    }
    case StKind::DoWhile: {
      std::uint32_t Body = B.newBlock();
      std::uint32_t Latch = B.newBlock();
      std::uint32_t Exit = B.newBlock();
      B.emitBr(Body);
      Loops.push_back({Latch, Exit});
      B.setBlock(Body);
      lowerStmtList(N.Body);
      if (!B.function().Blocks[B.currentBlock()].hasTerminator())
        B.emitBr(Latch);
      Loops.pop_back();
      B.setBlock(Latch);
      std::uint16_t Cond = lowerExpr(N.Cond);
      B.emitCondBr(Cond, Body, Exit);
      B.setBlock(Exit);
      return;
    }
    case StKind::For: {
      std::uint16_t IndVar = localReg(N.Name, /*DefineIfMissing=*/true);
      lowerExprInto(N.Init, IndVar);
      std::uint32_t Header = B.newBlock();
      std::uint32_t Body = B.newBlock();
      std::uint32_t Step = B.newBlock();
      std::uint32_t Exit = B.newBlock();
      B.emitBr(Header);
      B.setBlock(Header);
      std::uint16_t Cond = lowerExpr(N.Cond);
      B.emitCondBr(Cond, Body, Exit);
      Loops.push_back({Step, Exit});
      B.setBlock(Body);
      lowerStmtList(N.Body);
      if (!B.function().Blocks[B.currentBlock()].hasTerminator())
        B.emitBr(Step);
      Loops.pop_back();
      B.setBlock(Step);
      B.emitAddImmInto(IndVar, IndVar, N.Step);
      B.emitBr(Header);
      B.setBlock(Exit);
      return;
    }
    case StKind::Ret: {
      std::uint16_t Value = N.Value.valid() ? lowerExpr(N.Value) : ir::NoReg;
      B.emitRet(Value);
      // Statements after a ret in the same Seq would be unreachable; give
      // them a fresh block so the IR stays well formed.
      B.setBlock(B.newBlock());
      return;
    }
    case StKind::Break: {
      if (Loops.empty())
        JRPM_FATAL("break outside a loop");
      B.emitBr(Loops.back().BreakBlock);
      B.setBlock(B.newBlock());
      return;
    }
    case StKind::Continue: {
      if (Loops.empty())
        JRPM_FATAL("continue outside a loop");
      B.emitBr(Loops.back().ContinueBlock);
      B.setBlock(B.newBlock());
      return;
    }
    case StKind::ExprStmt:
      (void)lowerExpr(N.Value);
      return;
    }
    JRPM_UNREACHABLE("unknown statement kind");
  }

  ir::IRBuilder &B;
  const std::map<std::string, std::uint32_t> &FuncIndex;
  std::map<std::string, std::uint16_t> Locals;
  std::vector<LoopContext> Loops;
};

} // namespace

ir::Module front::lowerProgram(const ProgramDef &Program) {
  ir::Module M;
  ir::IRBuilder B(M);

  std::map<std::string, std::uint32_t> FuncIndex;
  for (const FuncDef &Def : Program.Functions) {
    std::uint32_t Index = B.createFunction(
        Def.Name, static_cast<std::uint32_t>(Def.Params.size()));
    FuncIndex[Def.Name] = Index;
  }

  for (std::uint32_t F = 0; F < Program.Functions.size(); ++F) {
    B.setFunction(F);
    FunctionLowering Lowering(B, FuncIndex);
    Lowering.run(Program.Functions[F]);
  }

  int Entry = M.findFunction("main");
  if (Entry < 0)
    JRPM_FATAL("program has no 'main' function");
  M.EntryFunction = static_cast<std::uint32_t>(Entry);
  M.finalize();

  std::vector<std::string> Errors = ir::verifyModule(M);
  if (!Errors.empty()) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "verifier: %s\n", E.c_str());
    JRPM_FATAL("lowered module failed verification");
  }
  return M;
}
