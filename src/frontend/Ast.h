//===- frontend/Ast.h - Structured program AST -----------------------------==//
//
// Workloads are written against this small structured AST (the stand-in for
// Java source). Expressions and statements are immutable trees with cheap
// value-semantic handles; Lower.h translates them into the register IR.
// An operator node holds the ir::Opcode it lowers to, so the operator set
// is the IR's and lowering maps none of them.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_FRONTEND_AST_H
#define JRPM_FRONTEND_AST_H

#include "ir/Opcode.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace jrpm {
namespace front {

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
  // Binary / Unary: the instruction the node lowers to.
  ir::Opcode Op = ir::Opcode::Nop;
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
/// \p Op is a two-operand (bin) or one-operand (un) value opcode.
Ex bin(ir::Opcode Op, Ex L, Ex R);
Ex un(ir::Opcode Op, Ex E);
/// heap[base + index + offset]; pass an invalid Ex for no index.
Ex ld(Ex Base, Ex Index = Ex(), std::int64_t Offset = 0);
Ex call(const std::string &Callee, std::vector<Ex> Args);
Ex allocWords(Ex Size);

inline Ex add(Ex L, Ex R) { return bin(ir::Opcode::Add, L, R); }
inline Ex sub(Ex L, Ex R) { return bin(ir::Opcode::Sub, L, R); }
inline Ex mul(Ex L, Ex R) { return bin(ir::Opcode::Mul, L, R); }
inline Ex sdiv(Ex L, Ex R) { return bin(ir::Opcode::Div, L, R); }
inline Ex srem(Ex L, Ex R) { return bin(ir::Opcode::Rem, L, R); }
inline Ex band(Ex L, Ex R) { return bin(ir::Opcode::And, L, R); }
inline Ex bor(Ex L, Ex R) { return bin(ir::Opcode::Or, L, R); }
inline Ex bxor(Ex L, Ex R) { return bin(ir::Opcode::Xor, L, R); }
inline Ex shl(Ex L, Ex R) { return bin(ir::Opcode::Shl, L, R); }
inline Ex shr(Ex L, Ex R) { return bin(ir::Opcode::Shr, L, R); }
inline Ex fadd(Ex L, Ex R) { return bin(ir::Opcode::FAdd, L, R); }
inline Ex fsub(Ex L, Ex R) { return bin(ir::Opcode::FSub, L, R); }
inline Ex fmul(Ex L, Ex R) { return bin(ir::Opcode::FMul, L, R); }
inline Ex fdiv(Ex L, Ex R) { return bin(ir::Opcode::FDiv, L, R); }
inline Ex eq(Ex L, Ex R) { return bin(ir::Opcode::CmpEQ, L, R); }
inline Ex ne(Ex L, Ex R) { return bin(ir::Opcode::CmpNE, L, R); }
inline Ex lt(Ex L, Ex R) { return bin(ir::Opcode::CmpLT, L, R); }
inline Ex le(Ex L, Ex R) { return bin(ir::Opcode::CmpLE, L, R); }
inline Ex gt(Ex L, Ex R) { return bin(ir::Opcode::CmpGT, L, R); }
inline Ex ge(Ex L, Ex R) { return bin(ir::Opcode::CmpGE, L, R); }
inline Ex flt(Ex L, Ex R) { return bin(ir::Opcode::FCmpLT, L, R); }
inline Ex fneg(Ex E) { return un(ir::Opcode::FNeg, E); }
inline Ex fsqrt(Ex E) { return un(ir::Opcode::FSqrt, E); }
inline Ex itof(Ex E) { return un(ir::Opcode::IToF, E); }
inline Ex ftoi(Ex E) { return un(ir::Opcode::FToI, E); }
/// Logical not of a 0/1 value.
inline Ex lnot(Ex E) { return eq(E, c(0)); }

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
