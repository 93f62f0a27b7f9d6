//===- frontend/Ast.h - Structured program AST -----------------------------==//
//
// Workloads are written against this small structured AST (the stand-in for
// Java source). Expressions and statements are immutable trees with cheap
// value-semantic handles; Lower.h translates them into the register IR.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_FRONTEND_AST_H
#define JRPM_FRONTEND_AST_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace jrpm {
namespace front {

enum class BinOpKind {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  FAdd,
  FSub,
  FMul,
  FDiv,
  CmpEQ,
  CmpNE,
  CmpLT,
  CmpLE,
  CmpGT,
  CmpGE,
  FCmpEQ,
  FCmpLT,
  FCmpLE,
};

enum class UnOpKind {
  FNeg,
  FSqrt,
  IToF,
  FToI,
  Not, // logical not of a 0/1 value
};

enum class ExKind {
  ConstInt,
  ConstFloat,
  Local,
  Binary,
  Unary,
  Load,
  Call,
  Alloc,
};

struct ExprNode;

/// Cheap value-semantic expression handle.
class Ex {
public:
  Ex() = default;
  explicit Ex(std::shared_ptr<const ExprNode> N) : Node(std::move(N)) {}
  const ExprNode &node() const { return *Node; }
  bool valid() const { return Node != nullptr; }

private:
  std::shared_ptr<const ExprNode> Node;
};

struct ExprNode {
  ExKind Kind;
  // ConstInt / ConstFloat
  std::int64_t IntValue = 0;
  double FloatValue = 0;
  // Local / Call
  std::string Name;
  // Binary / Unary
  BinOpKind BinOp = BinOpKind::Add;
  UnOpKind UnOp = UnOpKind::Not;
  // Operands: Binary uses [0]=lhs [1]=rhs; Unary/Alloc use [0]; Load uses
  // [0]=base, optional [1]=index; Call uses all as arguments.
  std::vector<Ex> Operands;
  // Load immediate word offset.
  std::int64_t Offset = 0;
};

enum class StKind {
  Seq,
  Assign,
  Store,
  If,
  While,
  DoWhile,
  For,
  Ret,
  Break,
  Continue,
  ExprStmt,
};

struct StmtNode;

/// Cheap value-semantic statement handle.
class St {
public:
  St() = default;
  explicit St(std::shared_ptr<const StmtNode> N) : Node(std::move(N)) {}
  const StmtNode &node() const { return *Node; }
  bool valid() const { return Node != nullptr; }

private:
  std::shared_ptr<const StmtNode> Node;
};

struct StmtNode {
  StKind Kind;
  std::string Name;        // Assign / For induction variable
  Ex Value;                // Assign value, Store value, Ret value, ExprStmt
  Ex Cond;                 // If / While / DoWhile / For condition
  Ex Base, Index;          // Store address parts
  std::int64_t Offset = 0; // Store immediate word offset
  Ex Init;                 // For initial value
  std::int64_t Step = 1;   // For induction step
  std::vector<St> Body;    // Seq body, loop body, If then-branch
  std::vector<St> Else;    // If else-branch
};

// --- Expression factories -------------------------------------------------

Ex c(std::int64_t Value);
Ex cf(double Value);
Ex v(const std::string &Name);
Ex bin(BinOpKind Op, Ex L, Ex R);
Ex un(UnOpKind Op, Ex E);
/// heap[base + index + offset]; pass an invalid Ex for no index.
Ex ld(Ex Base, Ex Index = Ex(), std::int64_t Offset = 0);
Ex call(const std::string &Callee, std::vector<Ex> Args);
Ex allocWords(Ex Size);

inline Ex add(Ex L, Ex R) { return bin(BinOpKind::Add, L, R); }
inline Ex sub(Ex L, Ex R) { return bin(BinOpKind::Sub, L, R); }
inline Ex mul(Ex L, Ex R) { return bin(BinOpKind::Mul, L, R); }
inline Ex sdiv(Ex L, Ex R) { return bin(BinOpKind::Div, L, R); }
inline Ex srem(Ex L, Ex R) { return bin(BinOpKind::Rem, L, R); }
inline Ex band(Ex L, Ex R) { return bin(BinOpKind::And, L, R); }
inline Ex bor(Ex L, Ex R) { return bin(BinOpKind::Or, L, R); }
inline Ex bxor(Ex L, Ex R) { return bin(BinOpKind::Xor, L, R); }
inline Ex shl(Ex L, Ex R) { return bin(BinOpKind::Shl, L, R); }
inline Ex shr(Ex L, Ex R) { return bin(BinOpKind::Shr, L, R); }
inline Ex fadd(Ex L, Ex R) { return bin(BinOpKind::FAdd, L, R); }
inline Ex fsub(Ex L, Ex R) { return bin(BinOpKind::FSub, L, R); }
inline Ex fmul(Ex L, Ex R) { return bin(BinOpKind::FMul, L, R); }
inline Ex fdiv(Ex L, Ex R) { return bin(BinOpKind::FDiv, L, R); }
inline Ex eq(Ex L, Ex R) { return bin(BinOpKind::CmpEQ, L, R); }
inline Ex ne(Ex L, Ex R) { return bin(BinOpKind::CmpNE, L, R); }
inline Ex lt(Ex L, Ex R) { return bin(BinOpKind::CmpLT, L, R); }
inline Ex le(Ex L, Ex R) { return bin(BinOpKind::CmpLE, L, R); }
inline Ex gt(Ex L, Ex R) { return bin(BinOpKind::CmpGT, L, R); }
inline Ex ge(Ex L, Ex R) { return bin(BinOpKind::CmpGE, L, R); }
inline Ex flt(Ex L, Ex R) { return bin(BinOpKind::FCmpLT, L, R); }
inline Ex fneg(Ex E) { return un(UnOpKind::FNeg, E); }
inline Ex fsqrt(Ex E) { return un(UnOpKind::FSqrt, E); }
inline Ex itof(Ex E) { return un(UnOpKind::IToF, E); }
inline Ex ftoi(Ex E) { return un(UnOpKind::FToI, E); }
inline Ex lnot(Ex E) { return un(UnOpKind::Not, E); }

// --- Statement factories ---------------------------------------------------

St seq(std::vector<St> Body);
St assign(const std::string &Name, Ex Value);
/// heap[base + index + offset] = value; pass an invalid Ex for no index.
St store(Ex Base, Ex Index, std::int64_t Offset, Ex Value);
inline St store(Ex Base, Ex Index, Ex Value) {
  return store(Base, Index, 0, Value);
}
St iff(Ex Cond, St Then);
St iffElse(Ex Cond, St Then, St Else);
St whileLoop(Ex Cond, St Body);
St doWhile(Ex Cond, St Body);
/// for (Name = Init; Cond; Name += Step) Body — Cond sees the updated Name.
St forLoop(const std::string &Name, Ex Init, Ex Cond, std::int64_t Step,
           St Body);
St ret(Ex Value = Ex());
St brk();
St cont();
St exprStmt(Ex Value);

/// A function definition: name, parameter names, body.
struct FuncDef {
  std::string Name;
  std::vector<std::string> Params;
  St Body;
};

/// A whole source program; the entry function must be named "main".
struct ProgramDef {
  std::vector<FuncDef> Functions;
};

} // namespace front
} // namespace jrpm

#endif // JRPM_FRONTEND_AST_H
