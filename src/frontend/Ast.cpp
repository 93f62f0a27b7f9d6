//===- frontend/Ast.cpp ---------------------------------------------------==//

#include "frontend/Ast.h"

using namespace jrpm;
using namespace jrpm::front;

static Ex makeEx(ExprNode N) {
  return Ex(std::make_shared<const ExprNode>(std::move(N)));
}

static St makeSt(StmtNode N) {
  return St(std::make_shared<const StmtNode>(std::move(N)));
}

Ex front::c(std::int64_t Value) {
  ExprNode N;
  N.Kind = ExKind::ConstInt;
  N.IntValue = Value;
  return makeEx(std::move(N));
}

Ex front::cf(double Value) {
  ExprNode N;
  N.Kind = ExKind::ConstFloat;
  N.FloatValue = Value;
  return makeEx(std::move(N));
}

Ex front::v(const std::string &Name) {
  ExprNode N;
  N.Kind = ExKind::Local;
  N.Name = Name;
  return makeEx(std::move(N));
}

Ex front::bin(ir::Opcode Op, Ex L, Ex R) {
  ExprNode N;
  N.Kind = ExKind::Binary;
  N.Op = Op;
  N.Operands = {std::move(L), std::move(R)};
  return makeEx(std::move(N));
}

Ex front::un(ir::Opcode Op, Ex E) {
  ExprNode N;
  N.Kind = ExKind::Unary;
  N.Op = Op;
  N.Operands = {std::move(E)};
  return makeEx(std::move(N));
}

Ex front::ld(Ex Base, Ex Index, std::int64_t Offset) {
  ExprNode N;
  N.Kind = ExKind::Load;
  N.Operands = {std::move(Base)};
  if (Index.valid())
    N.Operands.push_back(std::move(Index));
  N.Offset = Offset;
  return makeEx(std::move(N));
}

Ex front::call(const std::string &Callee, std::vector<Ex> Args) {
  ExprNode N;
  N.Kind = ExKind::Call;
  N.Name = Callee;
  N.Operands = std::move(Args);
  return makeEx(std::move(N));
}

Ex front::allocWords(Ex Size) {
  ExprNode N;
  N.Kind = ExKind::Alloc;
  N.Operands = {std::move(Size)};
  return makeEx(std::move(N));
}

St front::seq(std::vector<St> Body) {
  StmtNode N;
  N.Kind = StKind::Seq;
  N.Body = std::move(Body);
  return makeSt(std::move(N));
}

St front::assign(const std::string &Name, Ex Value) {
  StmtNode N;
  N.Kind = StKind::Assign;
  N.Name = Name;
  N.Value = std::move(Value);
  return makeSt(std::move(N));
}

St front::store(Ex Base, Ex Index, std::int64_t Offset, Ex Value) {
  StmtNode N;
  N.Kind = StKind::Store;
  N.Base = std::move(Base);
  N.Index = std::move(Index);
  N.Offset = Offset;
  N.Value = std::move(Value);
  return makeSt(std::move(N));
}

St front::iff(Ex Cond, St Then) {
  StmtNode N;
  N.Kind = StKind::If;
  N.Cond = std::move(Cond);
  N.Body = {std::move(Then)};
  return makeSt(std::move(N));
}

St front::iffElse(Ex Cond, St Then, St Else) {
  StmtNode N;
  N.Kind = StKind::If;
  N.Cond = std::move(Cond);
  N.Body = {std::move(Then)};
  N.Else = {std::move(Else)};
  return makeSt(std::move(N));
}

St front::whileLoop(Ex Cond, St Body) {
  StmtNode N;
  N.Kind = StKind::While;
  N.Cond = std::move(Cond);
  N.Body = {std::move(Body)};
  return makeSt(std::move(N));
}

St front::doWhile(Ex Cond, St Body) {
  StmtNode N;
  N.Kind = StKind::DoWhile;
  N.Cond = std::move(Cond);
  N.Body = {std::move(Body)};
  return makeSt(std::move(N));
}

St front::forLoop(const std::string &Name, Ex Init, Ex Cond, std::int64_t Step,
                  St Body) {
  StmtNode N;
  N.Kind = StKind::For;
  N.Name = Name;
  N.Init = std::move(Init);
  N.Cond = std::move(Cond);
  N.Step = Step;
  N.Body = {std::move(Body)};
  return makeSt(std::move(N));
}

St front::ret(Ex Value) {
  StmtNode N;
  N.Kind = StKind::Ret;
  N.Value = std::move(Value);
  return makeSt(std::move(N));
}

St front::brk() {
  StmtNode N;
  N.Kind = StKind::Break;
  return makeSt(std::move(N));
}

St front::cont() {
  StmtNode N;
  N.Kind = StKind::Continue;
  return makeSt(std::move(N));
}

St front::exprStmt(Ex Value) {
  StmtNode N;
  N.Kind = StKind::ExprStmt;
  N.Value = std::move(Value);
  return makeSt(std::move(N));
}
